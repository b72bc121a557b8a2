/**
 * @file
 * The traced pass: each job is driven through the public calls
 * runExperiment() makes, in the same order, with spans recorded around
 * each layer boundary from outside the program. Phase 1 simulates:
 *
 *   job                      runExperiment's work, call for call
 *     workloads.create       createWorkload
 *     core.platform_build    Platform constructor
 *     workloads.instantiate  Workload::instantiate
 *     cpu.warmup             Core::run over the warm-up window
 *       workloads.fill       RefSource::fill (aggregated, with a count)
 *     cpu.measure            Core::run over the measured window
 *       workloads.fill
 *     core.cache_store       storeCachedRun (plain jobs)
 *
 * with an untraced runExperiment() of the same spec before and after;
 * all three must agree exactly, and their times give the tracing
 * overhead. Phase 2 does each job's I/O, phase 3 its replay:
 *
 *   core.cache_store         storeCachedRun (observed jobs)
 *   core.cache_load          loadCachedRun
 *   core.export              writeRunResultJson into memory
 *   obs.write                writeRunResultJsonFile (+ writeOutputs)
 *   replay                   the job's stream, regenerated on a second platform
 *     replay.warmup          warm-up vaddrs: translate + access
 *     mmu.translate          Mmu::translate per measured vaddr (aggregated)
 *     cache.access           CacheHierarchy::access per paddr (aggregated)
 */

#ifndef ATSCALE_BENCHMARK_TRACED_HH
#define ATSCALE_BENCHMARK_TRACED_HH

#include <string>
#include <utility>
#include <vector>

#include "jobs.hh"

namespace atscale::bench
{

/** What one traced pass measured. */
struct TracedPass
{
    /** Traced results, in job order. */
    std::vector<RunResult> results;
    /** Keys of jobs whose traced counters differ from the untraced run. */
    std::vector<std::string> mismatches;
    /** Per-layer metrics, in BENCHMARK.json's per_layer order. */
    std::vector<std::pair<std::string, double>> layers;
    /** Self time (s) per span name: duration minus child spans. */
    std::vector<std::pair<std::string, double>> selfSeconds;
};

/**
 * Run the traced pass over tracedSpecs(workload). Scratch files (run
 * cache, observed outputs, exported JSON) go under `tmpDir`; the spans
 * are written as a Chrome trace to `traceOut` unless it is empty.
 */
TracedPass runTracedPass(const BenchWorkload &workload,
                         const std::string &tmpDir,
                         const std::string &traceOut);

} // namespace atscale::bench

#endif // ATSCALE_BENCHMARK_TRACED_HH
