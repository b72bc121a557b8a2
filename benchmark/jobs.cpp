#include "jobs.hh"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <map>
#include <thread>

#include "core/sweep.hh"

namespace atscale::bench
{

namespace
{

constexpr PageSize pageSizes[] = {PageSize::Size4K, PageSize::Size2M,
                                  PageSize::Size1G};

// The quick Fig 1 footprints (256 MiB .. 64 GiB, one point per decade),
// written out so a change to quickFootprints() cannot move the workload.
constexpr std::uint64_t footprints[] = {
    268'435'456ull, 1'704'458'900ull, 10'822'639'409ull, 68'719'476'736ull};
constexpr std::uint64_t observedFootprints[] = {1'704'458'900ull,
                                                68'719'476'736ull};
// fig01-parallel traces this footprint only.
constexpr std::uint64_t tracedFig01Footprint = 1'704'458'900ull;

RunSpec
baseSpec(const std::string &program, std::uint64_t footprint, PageSize page,
         std::uint64_t seed)
{
    RunSpec spec;
    spec.workload = program;
    spec.footprintBytes = footprint;
    spec.pageSize = page;
    spec.mode = WorkloadMode::Model;
    spec.warmupRefs = warmupRefs;
    spec.measureRefs = measureRefs;
    spec.seed = seed;
    return spec;
}

/** programs x footprints x {4K, 2M, 1G}, program-major. */
std::vector<RunSpec>
matrix(const std::vector<std::string> &programs, std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const std::string &program : programs)
        for (std::uint64_t footprint : footprints)
            for (PageSize page : pageSizes)
                specs.push_back(baseSpec(program, footprint, page, seed));
    return specs;
}

const char *
pageLabel(PageSize page)
{
    switch (page) {
      case PageSize::Size4K:
        return "4K";
      case PageSize::Size2M:
        return "2M";
      case PageSize::Size1G:
        return "1G";
    }
    return "?";
}

} // namespace

std::optional<BenchWorkload>
benchWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    BenchWorkload workload;
    workload.name = name;
    if (name == "fig01-parallel") {
        // Every program, in the simulator's own registry order.
        workload.exec = ExecKind::Parallel;
        workload.specs = matrix(
            {"bc-kron", "bc-urand", "bfs-kron", "bfs-urand", "cc-kron",
             "cc-urand", "kvserver-mix", "mcf-rand", "memcached-uniform",
             "pr-kron", "pr-urand", "streamcluster-rand", "tc-kron",
             "tc-urand"},
            seed);
    } else if (name == "seq-stream") {
        // 58-78% of references hit the same 4 KiB page as the previous
        // one: the L1-TLB-hit path and the data hierarchy dominate.
        workload.specs = matrix(
            {"streamcluster-rand", "memcached-uniform", "kvserver-mix"},
            seed);
    } else if (name == "rand-walk") {
        // <=3% same-page references and up to 332 walks/kref at 4K:
        // walker and data-miss work dominate.
        workload.specs =
            matrix({"mcf-rand", "bfs-urand", "pr-urand", "cc-urand"}, seed);
    } else if (name == "gen-heavy") {
        // Kronecker graph generation is 21-26% of measured host time.
        workload.specs = matrix({"bfs-kron", "cc-kron", "pr-kron"}, seed);
    } else if (name == "observed") {
        // The only workload whose obs/export layers do any work.
        workload.exec = ExecKind::Observed;
        for (const char *program : {"mcf-rand", "bc-urand",
                                    "memcached-uniform",
                                    "streamcluster-rand"}) {
            for (std::uint64_t footprint : observedFootprints) {
                workload.specs.push_back(
                    baseSpec(program, footprint, PageSize::Size4K, seed));
            }
        }
    } else {
        return std::nullopt;
    }
    if (smoke)
        workload.specs = {workload.specs.front(), workload.specs.back()};
    return workload;
}

std::vector<RunSpec>
tracedSpecs(const BenchWorkload &workload)
{
    if (workload.exec != ExecKind::Parallel || workload.specs.size() <= 2)
        return workload.specs;
    std::vector<RunSpec> specs;
    for (const RunSpec &spec : workload.specs)
        if (spec.footprintBytes == tracedFig01Footprint)
            specs.push_back(spec);
    return specs;
}

int
parallelThreads()
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min(4u, nproc));
}

std::string
oracleKey(const RunSpec &spec, bool observed)
{
    return spec.workload + "/" + std::to_string(spec.footprintBytes) + "/" +
           pageLabel(spec.pageSize) + (observed ? "/observed" : "/plain");
}

ObsOptions
observedOptions(const std::string &dir, const RunSpec &spec)
{
    const std::string stem =
        dir + "/" + spec.workload + "_f" + std::to_string(spec.footprintBytes);
    ObsOptions options;
    options.sampleWindow = observedSampleWindow;
    options.tracePrefix = stem;
    options.jsonOut = stem + ".json";
    return options;
}

std::vector<RunResult>
runParallel(const std::vector<RunSpec> &specs, std::vector<double> &jobMs)
{
    using Clock = std::chrono::steady_clock;
    // The engine calls onProgress under its own mutex, once on the worker
    // thread before it executes a unit (running grows) and once on the
    // same thread after (completed grows), so this state needs no lock
    // of its own.
    std::map<std::thread::id, Clock::time_point> started;
    SweepProgress last;
    SweepOptions options;
    options.threads = parallelThreads();
    options.onProgress = [&](const SweepProgress &now) {
        const Clock::time_point t = Clock::now();
        const std::thread::id self = std::this_thread::get_id();
        if (now.completed > last.completed) {
            const double ms =
                std::chrono::duration<double, std::milli>(t - started[self])
                    .count();
            jobMs.insert(jobMs.end(), now.completed - last.completed, ms);
        } else if (now.running > last.running) {
            started[self] = t;
        }
        last = now;
    };
    SweepEngine engine(options);
    return engine.run(specs);
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    bool same = a.footprintTouched == b.footprintTouched &&
                a.pageTableBytes == b.pageTableBytes;
    a.counters.forEach([&](EventId id, const char *, Count value) {
        same = same && b.counters.get(id) == value;
    });
    return same;
}

double
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

} // namespace atscale::bench
