/**
 * @file
 * atscale_bench: the benchmark driver. One process runs one repeat of
 * one benchmark workload (jobs.hh) and prints, on stdout, a `ready`
 * line once set-up is done and then one `RESULT {json}` line. run.py
 * spawns it once per repeat and turns the results into metrics.
 *
 *   atscale_bench --workload=W --tmp=DIR [--seed=N] [--smoke]
 *                 [--traced [--trace-out=PATH]] [--setup-only]
 *   atscale_bench --record-expected [--out-dir=DIR] [--force]
 *
 * --tmp names a fresh scratch directory for the run cache and observed
 * outputs. --traced runs the traced pass (traced.hh) instead of the
 * timed repeat. --setup-only exits right after `ready`. The driver
 * times calls into the program's public API only, and every job is
 * checked by run.py against the exact-results oracle
 * (expected/seed<N>.json) that --record-expected writes.
 */

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_export.hh"
#include "core/sweep.hh"
#include "jobs.hh"
#include "obs/json.hh"
#include "traced.hh"

extern char **environ;

using namespace atscale;
using namespace atscale::bench;

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string tmp;
    std::string traceOut;
    std::string outDir = "benchmark/expected";
    bool smoke = false;
    bool traced = false;
    bool setupOnly = false;
    bool recordExpected = false;
    bool force = false;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: atscale_bench --workload=W --tmp=DIR [--seed=N] "
                 "[--smoke] [--traced [--trace-out=PATH]] [--setup-only]\n"
                 "       atscale_bench --record-expected [--out-dir=DIR] "
                 "[--force]\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&](const char *prefix, std::string &out) {
            const std::size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) != 0)
                return false;
            out = arg.substr(n);
            return true;
        };
        std::string value;
        if (valueOf("--workload=", args.workload) ||
            valueOf("--tmp=", args.tmp) ||
            valueOf("--trace-out=", args.traceOut) ||
            valueOf("--out-dir=", args.outDir)) {
            continue;
        }
        if (valueOf("--seed=", value)) {
            char *end = nullptr;
            errno = 0;
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || errno != 0 ||
                value[0] == '-') {
                std::fprintf(stderr, "atscale_bench: bad --seed '%s'\n",
                             value.c_str());
                return false;
            }
            continue;
        }
        if (arg == "--smoke")
            args.smoke = true;
        else if (arg == "--traced")
            args.traced = true;
        else if (arg == "--setup-only")
            args.setupOnly = true;
        else if (arg == "--record-expected")
            args.recordExpected = true;
        else if (arg == "--force")
            args.force = true;
        else {
            std::fprintf(stderr, "atscale_bench: unknown argument '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Drop every inherited ATSCALE_* variable: the program reads knobs from
 * the environment (threads, cache, shards, ...), and none of them may
 * reach a benchmark run unannounced.
 */
void
scrubAmbientEnv()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        const std::string entry = *env;
        if (entry.rfind("ATSCALE_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Peak resident set size (VmHWM) of this process, in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
writeHost(JsonWriter &json, int threads, std::uint64_t seed)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    json.key("host")
        .beginObject()
        .kv("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()))
        .kv("cpu_model", cpuModel())
        .kv("compiler", compiler)
        .kv("build_type", ATSCALE_BENCH_BUILD_TYPE)
        .kv("threads", threads)
        .kv("seed", seed)
        .endObject();
}

/** Everything the oracle holds for one job, as a JSON object. */
void
writeEntry(JsonWriter &json, const RunResult &result)
{
    json.beginObject()
        .kv("footprint_touched", result.footprintTouched)
        .kv("page_table_bytes", result.pageTableBytes);
    json.key("counters").beginObject();
    result.counters.forEach([&](EventId, const char *name, Count value) {
        json.kv(name, static_cast<std::uint64_t>(value));
    });
    json.endObject().endObject();
}

void
writeResults(JsonWriter &json, const std::vector<RunSpec> &specs,
             const std::vector<RunResult> &results, bool observed)
{
    json.key("results").beginArray();
    for (std::size_t i = 0; i < results.size(); ++i) {
        json.beginObject().kv("key", oracleKey(specs[i], observed));
        json.key("result");
        writeEntry(json, results[i]);
        json.endObject();
    }
    json.endArray();
}

int
recordExpected(const Args &args)
{
    const std::uint64_t seeds[] = {1, 2};
    auto pathOf = [&](std::uint64_t seed) {
        return args.outDir + "/seed" + std::to_string(seed) + ".json";
    };
    for (std::uint64_t seed : seeds) {
        const std::string path = pathOf(seed);
        if (fs::exists(path) && !args.force) {
            std::fprintf(stderr,
                         "atscale_bench: %s exists; pass --force to "
                         "overwrite the oracle\n",
                         path.c_str());
            return 1;
        }
    }
    fs::create_directories(args.outDir);
    for (std::uint64_t seed : seeds) {
        // Every plain spec of every workload is in the Fig 1 matrix.
        const std::vector<RunSpec> specs =
            benchWorkload("fig01-parallel", seed, false)->specs;
        // The reference: each spec through runExperiment on its own.
        std::vector<RunResult> reference(specs.size());
        SweepOptions poolOptions;
        poolOptions.threads = parallelThreads();
        SweepEngine(poolOptions).forEachTask(specs.size(), [&](std::size_t i) {
            reference[i] = runExperiment(specs[i]);
        });
        // What the parallel workload's SweepEngine::run returns instead,
        // where that differs from the reference.
        std::vector<double> unusedMs;
        const std::vector<RunResult> engine = runParallel(specs, unusedMs);

        const std::string path = pathOf(seed);
        std::ofstream os(path);
        os << "{\n  \"format\": \"atscale-bench-expected-v1\",\n"
           << "  \"seed\": " << seed << ",\n"
           << "  \"warmup_refs\": " << warmupRefs << ",\n"
           << "  \"measure_refs\": " << measureRefs << ",\n"
           << "  \"entries\": {\n";
        bool first = true;
        auto entry = [&](const std::string &key, const RunResult &result) {
            os << (first ? "" : ",\n") << "    \"" << key << "\": ";
            first = false;
            JsonWriter json(os, false);
            writeEntry(json, result);
        };
        for (std::size_t i = 0; i < specs.size(); ++i)
            entry(oracleKey(specs[i], false), reference[i]);
        const std::vector<RunSpec> observed =
            benchWorkload("observed", seed, false)->specs;
        for (const RunSpec &spec : observed) {
            // Output files do not affect counters; none are written.
            ObsSession session(observedOptions(".", spec));
            entry(oracleKey(spec, true), runExperiment(spec, {}, &session));
        }
        os << "\n  },\n  \"parallel_divergence\": {\n";
        first = true;
        std::size_t divergent = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!sameResult(engine[i], reference[i])) {
                entry(oracleKey(specs[i], false), engine[i]);
                ++divergent;
            }
        }
        os << "\n  }\n}\n";
        if (!os) {
            std::fprintf(stderr, "atscale_bench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "wrote %s (%zu parallel-workload results differ from "
                     "runExperiment)\n",
                     path.c_str(), divergent);
    }
    return 0;
}

/**
 * One job as a serial workload runs it: runExperiment(spec), or for an
 * observed job runExperiment(spec, {}, &session) followed by the
 * RunResult JSON and writeOutputs(), all under `obsDir`.
 */
RunResult
runJob(const RunSpec &spec, bool observed, const std::string &obsDir)
{
    if (!observed)
        return runExperiment(spec);
    const ObsOptions options = observedOptions(obsDir, spec);
    ObsSession session(options);
    RunResult result = runExperiment(spec, {}, &session);
    writeRunResultJsonFile(options.jsonOut, result, &session.statsSnapshot());
    session.writeOutputs();
    return result;
}

int
runTimed(const BenchWorkload &workload, const Args &args)
{
    const bool observed = workload.exec == ExecKind::Observed;
    const std::string obsDir = args.tmp + "/obs";
    std::vector<RunResult> results;
    // Serial workloads: one entry per job, in job order. The parallel
    // workload: one per job in completion order, and no per-job CPU.
    std::vector<double> jobMs;
    std::vector<double> jobCpuMs;

    const double cpu0 = processCpuNs();
    const Clock::time_point t0 = Clock::now();
    if (workload.exec == ExecKind::Parallel) {
        results = runParallel(workload.specs, jobMs);
    } else {
        for (const RunSpec &spec : workload.specs) {
            const double jobCpu0 = processCpuNs();
            const Clock::time_point start = Clock::now();
            results.push_back(runJob(spec, observed, obsDir));
            jobMs.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count());
            jobCpuMs.push_back((processCpuNs() - jobCpu0) * 1e-6);
        }
    }
    const double wallS =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double cpuS = (processCpuNs() - cpu0) * 1e-9;
    const double rssMb = peakRssMb();

    const int threads =
        workload.exec == ExecKind::Parallel ? parallelThreads() : 1;
    std::cout << "RESULT ";
    JsonWriter json(std::cout, false);
    json.beginObject()
        .kv("kind", "timed")
        .kv("workload", workload.name)
        .kv("engine", workload.exec == ExecKind::Parallel)
        .kv("jobs", static_cast<std::uint64_t>(results.size()))
        .kv("sim_refs", static_cast<std::uint64_t>(
                            results.size() * (warmupRefs + measureRefs)))
        .kv("wall_s", wallS)
        .kv("cpu_s", cpuS)
        .kv("peak_rss_mb", rssMb);
    json.key("job_ms").beginArray();
    for (double ms : jobMs)
        json.value(ms);
    json.endArray();
    json.key("job_cpu_ms").beginArray();
    for (double ms : jobCpuMs)
        json.value(ms);
    json.endArray();
    writeHost(json, threads, args.seed);
    writeResults(json, workload.specs, results, observed);
    json.endObject();
    std::cout << std::endl;
    return 0;
}

int
runTraced(const BenchWorkload &workload, const Args &args)
{
    const TracedPass pass = runTracedPass(workload, args.tmp, args.traceOut);
    const bool observed = workload.exec == ExecKind::Observed;

    std::cout << "RESULT ";
    JsonWriter json(std::cout, false);
    json.beginObject()
        .kv("kind", "traced")
        .kv("workload", workload.name)
        .kv("engine", false)
        .kv("jobs", static_cast<std::uint64_t>(pass.results.size()))
        .kv("matches", pass.mismatches.empty());
    json.key("mismatches").beginArray();
    for (const std::string &key : pass.mismatches)
        json.value(key);
    json.endArray();
    json.key("layers").beginObject();
    for (const auto &[name, value] : pass.layers)
        json.kv(name, value);
    json.endObject();
    json.key("self_s").beginObject();
    for (const auto &[name, value] : pass.selfSeconds)
        json.kv(name, value);
    json.endObject();
    writeHost(json, 1, args.seed);
    writeResults(json, tracedSpecs(workload), pass.results, observed);
    json.endObject();
    std::cout << std::endl;
    // Per-layer numbers are only meaningful when tracing changed nothing.
    return pass.mismatches.empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "atscale_bench: refusing to run a build without "
                         "NDEBUG (debug builds run the CycleLedger hooks)\n");
    return 2;
#endif
    scrubAmbientEnv();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (args.recordExpected)
        return recordExpected(args);

    const std::optional<BenchWorkload> workload =
        benchWorkload(args.workload, args.seed, args.smoke);
    if (!workload || args.tmp.empty()) {
        if (!workload) {
            std::fprintf(stderr, "atscale_bench: unknown workload '%s'\n",
                         args.workload.c_str());
        }
        usage();
        return 2;
    }
    // A fresh run cache per repeat: a warm one would turn jobs into
    // cache reads.
    const std::string cacheDir = args.tmp + "/cache";
    std::error_code ec;
    if (fs::exists(cacheDir) && !fs::is_empty(cacheDir, ec)) {
        std::fprintf(stderr, "atscale_bench: %s is not empty\n",
                     cacheDir.c_str());
        return 2;
    }
    fs::create_directories(cacheDir);
    fs::create_directories(args.tmp + "/obs");
    setenv("ATSCALE_CACHE_DIR", cacheDir.c_str(), 1);

    std::cout << "ready" << std::endl;
    if (args.setupOnly)
        return 0;
    return args.traced ? runTraced(*workload, args) : runTimed(*workload, args);
}
