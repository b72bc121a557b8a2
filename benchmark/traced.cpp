#include "traced.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/platform.hh"
#include "core/run_cache.hh"
#include "core/run_export.hh"
#include "obs/json.hh"
#include "workloads/registry.hh"

namespace atscale::bench
{

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    int job = -1;
    /** Calls folded into an aggregated span (1 for a plain span). */
    std::uint64_t count = 1;
};

/** Spans held in memory until the pass ends. */
class SpanLog
{
  public:
    std::int64_t at(Clock::time_point t) const { return nsBetween(origin_, t); }

    int
    open(const char *name, int parent, int job)
    {
        spans_.push_back(Span{name, at(Clock::now()), 0, parent, job, 1});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int span)
    {
        Span &s = spans_[static_cast<std::size_t>(span)];
        s.durNs = at(Clock::now()) - s.startNs;
    }

    /** One child span standing for `count` timed calls totalling
     * `totalNs`, the first of which started at `start`. */
    void
    aggregate(const char *name, int parent, int job, Clock::time_point start,
              std::int64_t totalNs, std::uint64_t count)
    {
        if (count > 0)
            spans_.push_back(Span{name, at(start), totalNs, parent, job, count});
    }

    std::int64_t
    duration(int span) const
    {
        return spans_[static_cast<std::size_t>(span)].durNs;
    }

    /** Self time per span name (duration minus the child spans), in
     * first-seen order. */
    std::vector<std::pair<std::string, double>>
    selfSeconds() const
    {
        std::vector<std::int64_t> self;
        for (const Span &s : spans_)
            self.push_back(s.durNs);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.durNs;
        std::vector<std::pair<std::string, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto it = std::find_if(out.begin(), out.end(), [&](const auto &e) {
                return e.first == spans_[i].name;
            });
            if (it == out.end())
                it = out.insert(out.end(), {spans_[i].name, 0.0});
            it->second += static_cast<double>(self[i]) * 1e-9;
        }
        return out;
    }

    void
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream os(path);
        JsonWriter json(os, false);
        json.beginObject().key("traceEvents").beginArray();
        for (const Span &s : spans_) {
            json.beginObject()
                .kv("name", s.name)
                .kv("cat", "atscale_bench")
                .kv("ph", "X")
                .kv("ts", static_cast<double>(s.startNs) * 1e-3)
                .kv("dur", static_cast<double>(s.durNs) * 1e-3)
                .kv("pid", 1)
                .kv("tid", 1);
            json.key("args")
                .beginObject()
                .kv("job", s.job)
                .kv("count", static_cast<std::uint64_t>(s.count))
                .endObject();
            json.endObject();
        }
        json.endArray().kv("displayTimeUnit", "ms").endObject();
        os << '\n';
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Run fn(span id) inside a new span; returns the span's duration. */
template <typename Fn>
std::int64_t
inSpan(SpanLog &log, const char *name, int parent, int job, Fn &&fn)
{
    const int id = log.open(name, parent, job);
    fn(id);
    log.close(id);
    return log.duration(id);
}

/**
 * A cheap fingerprint of a stream's fill() sequence: each chunk's length
 * and first and last vaddr. The replay regenerates the traced job's
 * stream and must arrive at the same digest.
 */
struct StreamDigest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    add(const Ref *refs, Count n)
    {
        mix(n);
        if (n > 0) {
            mix(refs[0].vaddr);
            mix(refs[n - 1].vaddr);
        }
    }

    void mix(std::uint64_t v) { value = (value ^ v) * 0x100000001b3ull; }
};

/**
 * Forwarding decorator: times every fill() and fingerprints what it
 * produced. Everything else forwards unchanged.
 */
class TimedRefSource final : public RefSource
{
  public:
    TimedRefSource(RefSource &inner, StreamDigest &digest)
        : inner_(inner), digest_(digest)
    {
    }

    bool
    next(Ref &ref) override
    {
        const bool ok = inner_.next(ref);
        digest_.add(&ref, ok ? 1 : 0);
        return ok;
    }

    Count
    fill(Ref *out, Count max) override
    {
        const Clock::time_point start = Clock::now();
        const Count n = inner_.fill(out, max);
        const Clock::time_point end = Clock::now();
        if (calls_ == 0)
            first_ = start;
        ++calls_;
        ns_ += nsBetween(start, end);
        digest_.add(out, n);
        return n;
    }

    Addr wrongPathAddr(Rng &rng) override { return inner_.wrongPathAddr(rng); }

    void
    registerStats(StatsRegistry &registry,
                  const std::string &prefix) const override
    {
        inner_.registerStats(registry, prefix);
    }

    bool supportsAnchors() const override { return inner_.supportsAnchors(); }

    std::uint64_t
    wrongPathAnchor() const override
    {
        return inner_.wrongPathAnchor();
    }

    Addr
    wrongPathAddrAt(std::uint64_t anchor, Rng &rng) override
    {
        return inner_.wrongPathAddrAt(anchor, rng);
    }

    /** Log the fills since the last call as one child of `parent`.
     * @return their total time in ns */
    std::int64_t
    flush(SpanLog &log, int parent, int job)
    {
        log.aggregate("workloads.fill", parent, job, first_, ns_, calls_);
        const std::int64_t total = ns_;
        ns_ = 0;
        calls_ = 0;
        return total;
    }

  private:
    RefSource &inner_;
    StreamDigest &digest_;
    Clock::time_point first_{};
    std::int64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

/** Sums over the traced jobs. */
struct Totals
{
    std::size_t jobs = 0;
    std::int64_t instantiateNs = 0;
    std::int64_t platformNs = 0;
    std::int64_t warmupNs = 0;
    std::int64_t measureNs = 0;
    std::int64_t fillWarmupNs = 0;
    std::int64_t fillMeasureNs = 0;
    Count warmupRefs = 0;
    Count measureRefs = 0;
    std::int64_t storeNs = 0;
    std::int64_t loadNs = 0;
    std::int64_t exportNs = 0;
    std::uint64_t exportBytes = 0;
    std::int64_t obsWriteNs = 0;
    std::uint64_t obsBytes = 0;
    std::int64_t translateNs = 0;
    std::int64_t accessNs = 0;
    Count replayRefs = 0;
    Count samePageRefs = 0;
    /** Untraced runs paired with the traced ones. */
    double plainWallNs = 0;
    double plainCpuNs = 0;
    /** The traced equivalent of the untraced runs' work. */
    double tracedNs = 0;
    CounterSet counters;
    Count l1dHits = 0;
    Count dataAccesses = 0;
};

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/** Platform parameters runExperiment uses for a spec. */
PlatformParams
platformParams(const RunSpec &spec)
{
    PlatformParams params;
    params.mmu.scheme = spec.scheme;
    return params;
}

/** runExperiment's seeding of the platform RNG. */
std::uint64_t
platformSeed(const RunSpec &spec)
{
    return spec.seed * 0x9e37 + 7;
}

WorkloadConfig
workloadConfig(const RunSpec &spec)
{
    WorkloadConfig config;
    config.footprintBytes = spec.footprintBytes;
    config.seed = spec.seed;
    config.mode = spec.mode;
    return config;
}

/**
 * The simulation part of runExperiment(spec, {}, obs), call for call,
 * as children of the span `parent`. The run cache is not consulted (the
 * pass keeps it empty); the caller times the store separately.
 */
RunResult
simulateTraced(const RunSpec &spec, ObsSession *obs, int parent, int job,
               SpanLog &log, Totals &totals, StreamDigest &digest)
{
    RunResult result;
    result.spec = spec;

    std::unique_ptr<Workload> workload;
    std::unique_ptr<Platform> platform;
    std::unique_ptr<RefSource> inner;
    totals.instantiateNs +=
        inSpan(log, "workloads.create", parent, job,
               [&](int) { workload = createWorkload(spec.workload); });
    totals.platformNs +=
        inSpan(log, "core.platform_build", parent, job, [&](int) {
            platform = std::make_unique<Platform>(
                platformParams(spec), spec.pageSize, workload->traits(),
                platformSeed(spec));
        });
    totals.instantiateNs +=
        inSpan(log, "workloads.instantiate", parent, job, [&](int) {
            inner = workload->instantiate(platform->space,
                                          workloadConfig(spec));
        });
    TimedRefSource stream(*inner, digest);
    if (obs) {
        platform->registerStats(obs->registry());
        stream.registerStats(obs->registry(), "workload");
        platform->core.attachTracer(obs->tracer());
    }

    totals.warmupNs += inSpan(log, "cpu.warmup", parent, job, [&](int id) {
        platform->core.run(stream, spec.warmupRefs);
        totals.fillWarmupNs += stream.flush(log, id, job);
    });

    platform->core.resetCounters();
    platform->mmu.resetStats();
    platform->hierarchy.resetStats();
    if (obs)
        obs->beginMeasurement(platform->core.counters());

    totals.measureNs += inSpan(log, "cpu.measure", parent, job, [&](int id) {
        const Count chunk = obs ? obs->chunkRefs() : 0;
        if (chunk == 0) {
            platform->core.run(stream, spec.measureRefs);
        } else {
            Count done = 0;
            while (done < spec.measureRefs) {
                const Count n = std::min(chunk, spec.measureRefs - done);
                const Count ran = platform->core.run(stream, n);
                obs->observe(platform->core.counters());
                done += ran;
                if (ran < n)
                    break;
            }
        }
        totals.fillMeasureNs += stream.flush(log, id, job);
    });

    result.counters = platform->core.counters();
    result.footprintTouched = platform->space.footprintBytes();
    result.pageTableBytes = platform->space.pageTable().nodeBytes();
    totals.l1dHits +=
        platform->hierarchy.levelCount(AccessKind::Data, MemLevel::L1);
    totals.dataAccesses += platform->hierarchy.kindCount(AccessKind::Data);
    if (obs) {
        obs->finishRun();
        platform->core.attachTracer(nullptr);
    }

    totals.warmupRefs += spec.warmupRefs;
    totals.measureRefs += spec.measureRefs;
    return result;
}

/**
 * Regenerate the traced job's reference stream on a second platform of
 * the same spec (a stream depends only on its spec, never on the core
 * consuming it), run the warm-up refs through Mmu::translate and
 * CacheHierarchy::access untimed, then time those two calls separately,
 * a fetch chunk at a time, over the measured refs.
 * @return the regenerated stream's digest
 */
std::uint64_t
replay(const RunSpec &spec, int job, SpanLog &log, Totals &totals)
{
    const int replaySpan = log.open("replay", -1, job);
    std::unique_ptr<Workload> workload = createWorkload(spec.workload);
    Platform platform(platformParams(spec), spec.pageSize, workload->traits(),
                      platformSeed(spec));
    std::unique_ptr<RefSource> stream =
        workload->instantiate(platform.space, workloadConfig(spec));

    // Up to `max` next vaddrs, fetched in whole chunks as Core::run does.
    StreamDigest digest;
    std::array<Ref, refStreamChunk> chunk{};
    Count len = 0;
    Count pos = 0;
    std::array<Addr, refStreamChunk> vaddrs{};
    auto take = [&](Count max) {
        Count n = 0;
        while (n < max) {
            if (pos == len) {
                len = stream->fill(chunk.data(), refStreamChunk);
                digest.add(chunk.data(), len);
                pos = 0;
                if (len == 0)
                    break;
            }
            vaddrs[n++] = chunk[pos++].vaddr;
        }
        return n;
    };

    Addr prevPage = ~0ull;
    inSpan(log, "replay.warmup", replaySpan, job, [&](int) {
        for (Count left = spec.warmupRefs; left > 0;) {
            const Count n = take(std::min(left, refStreamChunk));
            if (n == 0)
                break;
            for (Count i = 0; i < n; ++i) {
                const Addr v = vaddrs[i];
                (void)platform.mmu.translate(v);
                platform.hierarchy.access(platform.space.touch(v).paddr(v),
                                          AccessKind::Data);
            }
            prevPage = vaddrs[n - 1] >> 12;
            left -= n;
        }
    });

    std::array<PhysAddr, refStreamChunk> paddrs{};
    std::int64_t translateNs = 0;
    std::int64_t accessNs = 0;
    Count refs = 0;
    Clock::time_point firstTranslate{};
    Clock::time_point firstAccess{};
    for (Count left = spec.measureRefs; left > 0;) {
        const Count n = take(std::min(left, refStreamChunk));
        if (n == 0)
            break;
        const Clock::time_point t0 = Clock::now();
        for (Count i = 0; i < n; ++i)
            (void)platform.mmu.translate(vaddrs[i]);
        const Clock::time_point t1 = Clock::now();
        for (Count i = 0; i < n; ++i) {
            const Addr v = vaddrs[i];
            paddrs[i] = platform.space.touch(v).paddr(v);
            totals.samePageRefs += (v >> 12) == prevPage;
            prevPage = v >> 12;
        }
        const Clock::time_point t2 = Clock::now();
        for (Count i = 0; i < n; ++i)
            platform.hierarchy.access(paddrs[i], AccessKind::Data);
        const Clock::time_point t3 = Clock::now();
        if (refs == 0) {
            firstTranslate = t0;
            firstAccess = t2;
        }
        translateNs += nsBetween(t0, t1);
        accessNs += nsBetween(t2, t3);
        refs += n;
        left -= n;
    }
    log.aggregate("mmu.translate", replaySpan, job, firstTranslate,
                  translateNs, refs);
    log.aggregate("cache.access", replaySpan, job, firstAccess, accessNs,
                  refs);
    totals.translateNs += translateNs;
    totals.accessNs += accessNs;
    totals.replayRefs += refs;
    log.close(replaySpan);
    return digest.value;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One job of the traced pass, between its phases. */
struct TracedJob
{
    RunSpec spec;
    RunResult result;
    /** Observed jobs only; kept for writeOutputs() in phase 2. */
    std::unique_ptr<ObsSession> session;
    StreamDigest digest;
};

/**
 * Phase 2 for one job: the run-cache round trip, the export into memory
 * and the output writes, each under its own root span. Observed runs
 * bypass the run cache, but their store and load are timed too, so the
 * layer is measured on every workload.
 */
void
storeAndExport(const TracedJob &job, int id, bool observed,
               const std::string &obsDir, SpanLog &log, Totals &totals,
               std::vector<std::string> &mismatches)
{
    const RunSpec &spec = job.spec;
    // A plain job's store was timed inside its job span, where
    // runExperiment does it.
    if (observed) {
        totals.storeNs += inSpan(log, "core.cache_store", -1, id, [&](int) {
            storeCachedRun(spec, job.result);
        });
    } else {
        storeCachedRun(spec, job.result);
    }
    totals.loadNs += inSpan(log, "core.cache_load", -1, id, [&](int) {
        RunResult loaded;
        if (!loadCachedRun(spec, loaded) || !sameResult(loaded, job.result))
            mismatches.push_back(oracleKey(spec, observed) +
                                 " (run cache round trip)");
    });
    fs::remove(runCachePath(spec));
    totals.exportNs += inSpan(log, "core.export", -1, id, [&](int) {
        std::ostringstream json;
        writeRunResultJson(json, job.result);
        totals.exportBytes += json.str().size();
    });
    const std::string jsonPath = job.session
                                     ? job.session->options().jsonOut
                                     : obsDir + "/export.json";
    std::vector<std::string> written{jsonPath};
    totals.obsWriteNs += inSpan(log, "obs.write", -1, id, [&](int) {
        writeRunResultJsonFile(jsonPath, job.result,
                               job.session ? &job.session->statsSnapshot()
                                           : nullptr);
        if (job.session) {
            for (const std::string &path : job.session->writeOutputs())
                written.push_back(path);
        }
    });
    for (const std::string &path : written)
        totals.obsBytes += fileBytes(path);
}

} // namespace

TracedPass
runTracedPass(const BenchWorkload &workload, const std::string &tmpDir,
              const std::string &traceOut)
{
    const std::string obsDir = tmpDir + "/obs";
    fs::create_directories(obsDir);
    const bool observed = workload.exec == ExecKind::Observed;

    TracedPass pass;
    Totals totals;
    SpanLog log;
    std::vector<TracedJob> jobs;

    // Phase 1: each traced simulation between two untraced
    // runExperiment() calls of the same spec. Their mean cancels host
    // drift that is linear over the three; the file writes of phase 2
    // stay out of the comparison.
    for (const RunSpec &spec : tracedSpecs(workload)) {
        const int id = static_cast<int>(jobs.size());
        auto runPlain = [&] {
            std::unique_ptr<ObsSession> session;
            if (observed)
                session = std::make_unique<ObsSession>(
                    observedOptions(obsDir, spec));
            const double cpu0 = processCpuNs();
            const Clock::time_point t0 = Clock::now();
            RunResult result = runExperiment(spec, {}, session.get());
            totals.plainWallNs +=
                0.5 * static_cast<double>(nsBetween(t0, Clock::now()));
            totals.plainCpuNs += 0.5 * (processCpuNs() - cpu0);
            fs::remove(runCachePath(spec));
            return result;
        };
        const RunResult before = runPlain();
        TracedJob job;
        job.spec = spec;
        if (observed)
            job.session =
                std::make_unique<ObsSession>(observedOptions(obsDir, spec));
        totals.tracedNs +=
            static_cast<double>(inSpan(log, "job", -1, id, [&](int span) {
                job.result = simulateTraced(spec, job.session.get(), span,
                                            id, log, totals, job.digest);
                // runExperiment stores plain results in the run cache.
                if (!observed) {
                    totals.storeNs +=
                        inSpan(log, "core.cache_store", span, id, [&](int) {
                            storeCachedRun(spec, job.result);
                        });
                    fs::remove(runCachePath(spec));
                }
            }));
        const RunResult after = runPlain();
        if (!sameResult(before, job.result) || !sameResult(after, job.result))
            pass.mismatches.push_back(oracleKey(spec, observed));
        ++totals.jobs;
        totals.counters += job.result.counters;
        jobs.push_back(std::move(job));
    }

    // Phase 2: the run-cache round trip, export and output writes.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        storeAndExport(jobs[i], static_cast<int>(i), observed, obsDir, log,
                       totals, pass.mismatches);
    }

    // Phase 3: the replay, which must regenerate each traced stream.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (replay(jobs[i].spec, static_cast<int>(i), log, totals) !=
            jobs[i].digest.value) {
            pass.mismatches.push_back(oracleKey(jobs[i].spec, observed) +
                                      " (replayed stream)");
        }
    }
    for (TracedJob &job : jobs)
        pass.results.push_back(std::move(job.result));

    // Thread use is a property of the whole sweep, so for the parallel
    // workload measure it around an untraced SweepEngine::run of every
    // job; elsewhere around the untraced runs above.
    double sweepWallNs = totals.plainWallNs;
    double sweepCpuNs = totals.plainCpuNs;
    std::size_t sweepJobs = totals.jobs;
    if (workload.exec == ExecKind::Parallel) {
        std::vector<double> unusedMs;
        const double cpu0 = processCpuNs();
        const Clock::time_point t0 = Clock::now();
        runParallel(workload.specs, unusedMs);
        sweepWallNs = static_cast<double>(nsBetween(t0, Clock::now()));
        sweepCpuNs = processCpuNs() - cpu0;
        sweepJobs = workload.specs.size();
    }

    const double jobCount = static_cast<double>(totals.jobs);
    const double measured = static_cast<double>(totals.measureRefs);
    const double allRefs =
        static_cast<double>(totals.warmupRefs + totals.measureRefs);
    const CounterSet &c = totals.counters;
    const double walks = static_cast<double>(
        c.get(EventId::DtlbLoadMissesMissCausesAWalk) +
        c.get(EventId::DtlbStoreMissesMissCausesAWalk));
    const double ptwLoads = static_cast<double>(
        c.get(EventId::PageWalkerLoadsDtlbL1) +
        c.get(EventId::PageWalkerLoadsDtlbL2) +
        c.get(EventId::PageWalkerLoadsDtlbL3) +
        c.get(EventId::PageWalkerLoadsDtlbMemory));
    const double stlbHits =
        static_cast<double>(c.get(EventId::DtlbLoadMissesStlbHit) +
                            c.get(EventId::DtlbStoreMissesStlbHit));
    const auto ns = [](std::int64_t v) { return static_cast<double>(v); };

    pass.layers = {
        {"workloads.fill_ns_per_ref", ratio(ns(totals.fillMeasureNs), measured)},
        {"workloads.fill_share",
         ratio(ns(totals.fillMeasureNs), ns(totals.measureNs))},
        {"mmu.translate_ns_per_ref",
         ratio(ns(totals.translateNs), static_cast<double>(totals.replayRefs))},
        {"cache.access_ns_per_ref",
         ratio(ns(totals.accessNs), static_cast<double>(totals.replayRefs))},
        {"cpu.core_ns_per_ref",
         ratio(ns(totals.warmupNs + totals.measureNs - totals.fillWarmupNs -
                  totals.fillMeasureNs),
               allRefs)},
        {"cpu.warmup_s", ns(totals.warmupNs) * 1e-9},
        {"cpu.measure_s", ns(totals.measureNs) * 1e-9},
        {"workloads.instantiate_ms", ratio(ns(totals.instantiateNs), jobCount) * 1e-6},
        {"core.platform_build_ms", ratio(ns(totals.platformNs), jobCount) * 1e-6},
        {"core.cache_store_us", ratio(ns(totals.storeNs), jobCount) * 1e-3},
        {"core.cache_load_us", ratio(ns(totals.loadNs), jobCount) * 1e-3},
        {"core.export_us", ratio(ns(totals.exportNs), jobCount) * 1e-3},
        {"core.export_bytes",
         ratio(static_cast<double>(totals.exportBytes), jobCount)},
        {"obs.write_s", ns(totals.obsWriteNs) * 1e-9},
        {"obs.bytes_written", static_cast<double>(totals.obsBytes)},
        {"core.sweep_parallelism", ratio(sweepCpuNs, sweepWallNs)},
        {"core.sweep_cpu_s_per_job",
         ratio(sweepCpuNs, static_cast<double>(sweepJobs)) * 1e-9},
        {"trace.overhead", ratio(totals.tracedNs, totals.plainWallNs) - 1.0},
        {"workloads.same_page_share",
         ratio(static_cast<double>(totals.samePageRefs),
               static_cast<double>(totals.replayRefs))},
        {"cpu.instr_per_ref",
         ratio(static_cast<double>(c.get(EventId::InstRetired)), measured)},
        {"cpu.mispredicts_per_kref",
         ratio(static_cast<double>(c.get(EventId::BrMispRetiredAllBranches)),
               measured) * 1e3},
        {"mmu.stlb_hits_per_kref", ratio(stlbHits, measured) * 1e3},
        {"mmu.walks_per_kref", ratio(walks, measured) * 1e3},
        {"mmu.ptw_loads_per_walk", ratio(ptwLoads, walks)},
        {"cache.l1d_hit_share",
         ratio(static_cast<double>(totals.l1dHits),
               static_cast<double>(totals.dataAccesses))},
    };
    pass.selfSeconds = log.selfSeconds();
    if (!traceOut.empty())
        log.writeChromeTrace(traceOut);
    return pass;
}

} // namespace atscale::bench
