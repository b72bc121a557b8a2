/**
 * @file
 * The benchmark's workloads: fixed job lists built here rather than from
 * program defaults (quickFootprints(), bench window sizes), so that a
 * change to a default can never silently change what is measured.
 *
 * "Program" below means one of the simulator's fourteen workload
 * generators (bc-urand, ...); "workload" means a benchmark workload.
 */

#ifndef ATSCALE_BENCHMARK_JOBS_HH
#define ATSCALE_BENCHMARK_JOBS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/session.hh"

namespace atscale::bench
{

/** References before the counter window opens, for every job. */
constexpr Count warmupRefs = 150'000;
/** References in the measured window, for every job. */
constexpr Count measureRefs = 400'000;
/** Instructions per sampling window of the observed workload. */
constexpr Count observedSampleWindow = 50'000;

/** How a workload's jobs are executed. */
enum class ExecKind
{
    /** One runExperiment() at a time, in declared order. */
    Serial,
    /** All jobs through one SweepEngine::run on min(4, nproc) threads. */
    Parallel,
    /** Serial, each job observed (sampler, walk trace, JSON out). */
    Observed,
};

/** One benchmark workload. */
struct BenchWorkload
{
    std::string name;
    ExecKind exec = ExecKind::Serial;
    std::vector<RunSpec> specs;
};

/**
 * The workload's job list at `seed`. With `smoke`, only its first and
 * last job. std::nullopt for an unknown name.
 */
std::optional<BenchWorkload> benchWorkload(const std::string &name,
                                           std::uint64_t seed, bool smoke);

/**
 * The jobs of `workload` the traced pass runs. fig01-parallel traces
 * one footprint (all 14 programs, 3 page sizes) so a traced run stays
 * within a few seconds of an untraced one; the others trace every job.
 */
std::vector<RunSpec> tracedSpecs(const BenchWorkload &workload);

/** Worker threads of the parallel workload: min(4, nproc). */
int parallelThreads();

/**
 * Oracle key of a job: "<program>/<footprint bytes>/<4K|2M|1G>/<plain|
 * observed>". Observed runs publish CpuClkUnhalted with different
 * rounding, so they are keyed apart from plain runs of the same spec.
 */
std::string oracleKey(const RunSpec &spec, bool observed);

/** Observability options of one observed job, writing under `dir`. */
ObsOptions observedOptions(const std::string &dir, const RunSpec &spec);

/**
 * All specs through one SweepEngine::run on parallelThreads() workers,
 * with program defaults otherwise. Appends one latency sample per job
 * to `jobMs`: the wall time of the execution unit (one job, or a group
 * the engine co-scheduled) that ran it, taken from the engine's
 * progress callback on the worker thread that ran the unit.
 */
std::vector<RunResult> runParallel(const std::vector<RunSpec> &specs,
                                   std::vector<double> &jobMs);

/** Equal counters, footprintTouched and pageTableBytes. */
bool sameResult(const RunResult &a, const RunResult &b);

/** CPU time of the whole process (all threads, live or joined), in ns. */
double processCpuNs();

} // namespace atscale::bench

#endif // ATSCALE_BENCHMARK_JOBS_HH
