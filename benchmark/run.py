#!/usr/bin/env python3
"""The atscale benchmark: builds the driver, runs the workloads, prints
every metric by name with its unit, and checks every job's results.

Run from the repository root:

  python3 benchmark/run.py
      Every workload, round-robin: 1 discarded warm-up repeat, then 5
      timed repeats, then one traced pass each. Prints
      `workload metric value unit` lines; exits 1 if any job is wrong.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload. --trace 0: a discarded warm-up repeat, then timed
      repeats for S seconds; reports the end-to-end metrics. --trace 1:
      the traced pass; reports the per-layer metrics. The last stdout
      line is one JSON object: correct, attempted, failed, metrics.

  python3 benchmark/run.py --smoke
      2 jobs per workload, one repeat plus the traced pass; checks that
      every metric BENCHMARK.json names is reported with its unit and
      that no job failed (the ctest smoke test).

Each repeat is a fresh `atscale_bench` process with a fresh, empty run
cache; inherited ATSCALE_* variables are dropped. --out PATH writes the
results (with host identity) for benchmark/compare.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

# Spawns of the driver that stop right after set-up, per run, on top of
# the set-up of every timed repeat: set-up is a millisecond-scale
# process start, so it needs many samples for a steady median.
SETUP_PROBES = 20
FULL_REPEATS = 5
# A run stops starting repeats after this long, to stay inside the
# 180-second limit on one invocation.
RUN_DEADLINE_S = 120.0
PROCESS_TIMEOUT_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ATSCALE_")}


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    env = clean_env()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "atscale_bench")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


class Driver:
    """Spawns atscale_bench processes, each with a fresh scratch dir."""

    def __init__(self, exe, build_dir):
        self.exe = exe
        self.tmp_root = os.path.join(build_dir, "tmp", str(os.getpid()))
        self.results_dir = os.path.join(build_dir, "results")
        self.count = 0
        os.makedirs(self.results_dir, exist_ok=True)

    def spawn(self, workload, seed, *flags):
        """Returns (setup_s, result or None, exit code)."""
        self.count += 1
        tmp = os.path.join(self.tmp_root, str(self.count))
        shutil.rmtree(tmp, ignore_errors=True)
        cmd = [self.exe, "--workload=" + workload, "--seed=%d" % seed,
               "--tmp=" + tmp] + list(flags)
        setup_s = None
        result = None
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=clean_env())
        try:
            for line in proc.stdout:
                if setup_s is None and line == "ready\n":
                    setup_s = time.perf_counter() - start
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(tmp, ignore_errors=True)
        return setup_s, result, code

    def close(self):
        shutil.rmtree(self.tmp_root, ignore_errors=True)


class Checker:
    """Checks job results: the exact-results oracle where one exists
    for the seed, counter laws always, and that every run of one job in
    this invocation produced identical results."""

    def __init__(self, seed, measure_refs=400000):
        self.seed = seed
        self.measure_refs = measure_refs
        self.oracle = None
        self.divergence = {}
        path = os.path.join(EXPECTED_DIR, "seed%d.json" % seed)
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
            self.oracle = doc["entries"]
            self.divergence = doc["parallel_divergence"]
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.divergent = 0
        self.problems = []

    @property
    def verification(self):
        return "oracle" if self.oracle is not None else "unverified"

    def laws(self, res):
        c = res["counters"]
        g = lambda name: c.get(name, 0)
        out = []
        if g("mem_uops_retired.all_loads") + g("mem_uops_retired.all_stores") != self.measure_refs:
            out.append("memory uops != measured refs")
        if g("inst_retired.any") < self.measure_refs:
            out.append("fewer instructions than refs")
        if g("cpu_clk_unhalted.thread") <= 0:
            out.append("no cycles")
        for kind in ("load", "store"):
            walks = g("dtlb_%s_misses.miss_causes_a_walk" % kind)
            done = g("dtlb_%s_misses.walk_completed" % kind)
            retired = g("mem_uops_retired.stlb_miss_%ss" % kind)
            if done > walks:
                out.append("%s walks completed > initiated" % kind)
            if retired > done:
                out.append("retired %s STLB misses > completed walks" % kind)
        if res["footprint_touched"] <= 0 or res["page_table_bytes"] <= 0:
            out.append("empty footprint or page table")
        return out

    def against_oracle(self, key, res):
        want = self.oracle.get(key)
        if want is None:
            return ["no oracle entry"]
        out = []
        for field in ("footprint_touched", "page_table_bytes"):
            if res[field] != want[field]:
                out.append("%s %d != %d" % (field, res[field], want[field]))
        for name, value in want["counters"].items():
            # Counters the oracle lacks are ignored: a new event is not a
            # failure; a missing or different one is.
            got = res["counters"].get(name)
            if got != value:
                out.append("%s %s != %d" % (name, got, value))
        return out

    def check(self, results, engine=False):
        """Returns how many of `results` failed. `engine`: the results
        came from SweepEngine::run, which for some jobs returns what the
        oracle recorded under parallel_divergence instead of
        runExperiment's result (see README.md); either is accepted
        there, and counted."""
        failed = 0
        for job in results:
            key, res = job["key"], job["result"]
            problems = self.laws(res)
            if self.oracle is not None:
                mismatch = self.against_oracle(key, res)
                if mismatch and engine and self.divergence.get(key) == res:
                    self.divergent += 1
                    mismatch = []
                problems += mismatch
            first = self.seen.setdefault((key, engine), res)
            if first != res:
                problems.append("differs from an earlier run of the same job")
            if problems:
                failed += 1
                self.problems.append("%s: %s" % (key, "; ".join(problems)))
        self.attempted += len(results)
        self.failed += failed
        return failed

    def crashed(self, jobs, what):
        self.attempted += jobs
        self.failed += jobs
        self.problems.append(what)


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(repeats, setups):
    """The end-to-end metrics of one run's timed repeats, and the number
    of job latencies behind the percentiles."""
    if repeats[0]["engine"]:
        # One SweepEngine::run: jobs overlap, so only whole repeats time
        # it; unit latencies arrive in completion order and are pooled.
        wall = statistics.median(r["wall_s"] for r in repeats)
        cpu = statistics.median(r["cpu_s"] for r in repeats)
        job_ms = [ms for r in repeats for ms in r["job_ms"]]
    else:
        # Serial: host interference only ever slows a job down, so each
        # job's fastest repeat is its cost, and a repeat's wall (CPU)
        # time is the sum of those costs.
        job_ms = [min(t) for t in zip(*(r["job_ms"] for r in repeats))]
        wall = sum(job_ms) / 1e3
        cpu = sum(min(t) for t in zip(*(r["job_cpu_ms"] for r in repeats))) / 1e3
    return {
        "wall_s": wall,
        "sim_mrefs_per_s": repeats[0]["sim_refs"] / wall / 1e6,
        "cpu_s": cpu,
        "job_ms_p50": percentile(job_ms, 50),
        "job_ms_p90": percentile(job_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }, len(job_ms)


class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, name, driver, checker, smoke):
        self.name = name
        self.driver = driver
        self.checker = checker
        self.flags = ["--smoke"] if smoke else []
        self.repeats = []
        self.setups = []
        self.traced = None
        self.host = None
        self.samples = 0
        self.attempted = 0
        self.failed = 0

    def _check(self, result):
        self.attempted += len(result["results"])
        self.failed += self.checker.check(result["results"], result["engine"])
        self.host = result["host"]

    def _crashed(self, jobs, what):
        self.attempted += jobs
        self.failed += jobs
        self.checker.crashed(jobs, what)

    def repeat(self, timed, warmup_only=False):
        """One repeat; False if the process failed. `warmup_only` runs
        the workload's smoke subset, to warm the host untimed."""
        flags = ["--smoke"] if warmup_only else self.flags
        setup_s, result, code = self.driver.spawn(self.name, self.checker.seed,
                                                  *flags)
        if result is None or code != 0:
            self._crashed(1, "%s: repeat exited %s" % (self.name, code))
            return False
        self._check(result)
        if timed:
            self.repeats.append(result)
            self.setups.append(setup_s)
        return True

    def probe_setup(self, count):
        for _ in range(count):
            setup_s, _, code = self.driver.spawn(self.name, self.checker.seed,
                                                 "--setup-only", *self.flags)
            if code == 0 and setup_s is not None:
                self.setups.append(setup_s)

    def trace(self):
        trace_out = os.path.join(self.driver.results_dir, "%s_s%d.trace.json"
                                 % (self.name, self.checker.seed))
        _, result, code = self.driver.spawn(self.name, self.checker.seed,
                                            "--traced", "--trace-out=" + trace_out,
                                            *self.flags)
        if result is None:
            self._crashed(1, "%s: traced pass exited %s" % (self.name, code))
            return
        self._check(result)
        if not result["matches"]:
            # Per-layer numbers are invalid when tracing changed results.
            self._crashed(len(result["mismatches"]),
                                 "%s: traced != untraced: %s"
                                 % (self.name, ", ".join(result["mismatches"])))
        self.traced = result

    def metrics(self):
        out = {}
        if self.repeats:
            out, self.samples = end_to_end(self.repeats, self.setups)
        if self.traced is not None:
            out.update(self.traced["layers"])
        return out


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(name, metrics, unit_of):
    for metric, value in metrics.items():
        print("%s %s %.6g %s" % (name, metric, value, unit_of.get(metric, "")))


def write_results(path, runs, seed, checker):
    doc = {
        "format": "atscale-bench-results-v1",
        "git_rev": git_rev(),
        "seed": seed,
        "verification": checker.verification,
        "workloads": {},
    }
    for run in runs:
        doc["host"] = run.host
        doc["workloads"][run.name] = {
            "metrics": run.metrics(),
            "repeats": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                           "sim_refs", "job_ms", "job_cpu_ms")}
                        for r in run.repeats],
            "setup_s": run.setups,
            "self_s": run.traced["self_s"] if run.traced else {},
        }
    doc["attempted"] = checker.attempted
    doc["failed"] = checker.failed
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def log_summary(what, checker):
    log("%s: %d jobs attempted, %d failed, results %s"
        % (what, checker.attempted, checker.failed, checker.verification))
    if checker.divergent:
        log("%s: %d SweepEngine results match the recorded parallel "
            "divergence from runExperiment, not runExperiment itself "
            "(see benchmark/README.md)" % (what, checker.divergent))


def report_problems(checker):
    for problem in checker.problems[:20]:
        log("FAILED " + problem)
    if len(checker.problems) > 20:
        log("... %d more" % (len(checker.problems) - 20))


def run_one(args, spec, driver):
    """One workload, one seed, trace 0 or 1."""
    checker = Checker(args.seed)
    run = WorkloadRun(args.workload, driver, checker, smoke=False)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    start = time.perf_counter()
    if args.trace:
        run.trace()
    elif run.repeat(timed=False, warmup_only=True):
        timed_start = time.perf_counter()
        while run.repeat(timed=True):
            now = time.perf_counter()
            if now - timed_start >= args.seconds or now - start >= RUN_DEADLINE_S:
                break
        run.probe_setup(SETUP_PROBES)
    metrics = run.metrics()
    unit_of = units(spec)
    print_metrics(args.workload, {m["name"]: metrics[m["name"]] for m in wanted
                                  if m["name"] in metrics}, unit_of)
    log_summary(args.workload, checker)
    report_problems(checker)
    if args.out:
        write_results(args.out, [run], args.seed, checker)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = checker.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


def run_all(args, spec, driver):
    """Every workload round-robin (or the smoke version of it)."""
    checker = Checker(args.seed)
    names = [w["name"] for w in spec["workloads"]]
    runs = [WorkloadRun(n, driver, checker, smoke=args.smoke) for n in names]
    repeats = 1 if args.smoke else FULL_REPEATS
    if not args.smoke:
        for run in runs:
            run.repeat(timed=False)
    for _ in range(repeats):
        for run in runs:
            run.repeat(timed=True)
            run.probe_setup(SETUP_PROBES // repeats or 1)
    for run in runs:
        run.trace()

    unit_of = units(spec)
    missing = []
    for run in runs:
        metrics = run.metrics()
        print_metrics(run.name, metrics, unit_of)
        if run.repeats:
            print("%s job_ms_samples %d count" % (run.name, run.samples))
        print("%s error_rate %.6g fraction" % (
            run.name, run.failed / max(run.attempted, 1)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] not in metrics:
                missing.append("%s %s" % (run.name, m["name"]))
    log_summary("all workloads", checker)
    report_problems(checker)
    for item in missing:
        log("MISSING metric " + item)
    if args.out:
        write_results(args.out, runs, args.seed, checker)
    return 0 if checker.failed == 0 and not missing else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed repeats run for this long (one workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-bench"))
    parser.add_argument("--out", help="write the results here as JSON")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    try:
        exe = build(os.path.abspath(args.build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 1
    driver = Driver(exe, os.path.abspath(args.build_dir))
    try:
        if args.workload is not None:
            return run_one(args, spec, driver)
        return run_all(args, spec, driver)
    finally:
        driver.close()


if __name__ == "__main__":
    sys.exit(main())
