"""netepi benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a netepi checkout and measures the source under
`src/`.  With `--trace 0` it times whole jobs and prints the end-to-end
metrics; with `--trace 1` it alternates untraced and traced jobs and
prints the per-layer metrics derived from spans (see spans.py).  Both
modes check every job's outputs.  Times are reported at a reference
CPU speed: the process pins itself to one CPU, runs sampler.py beside
it and divides each timed stretch by the slowdown the sampler saw (see
NOTES.md, "Speed normalisation").  A readable table and the environment
go to standard output first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A full record, and the
spans of a traced run, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tomllib
import traceback
from pathlib import Path
from time import perf_counter

import checkout

SETUP_SAMPLES = 3   # fresh interpreters per run; setup_s is their median
MIN_JOBS = 2        # a run always times at least this many jobs
# the sampler loop's time at the speed times are reported at: about its
# fastest on the reference VM (2-vCPU Intel Xeon, Python 3.11); it only
# sets the scale, since parent and change share it
REFERENCE_LOOP_S = 0.00045

E2E_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
NAMED_UNITS = {**E2E_UNITS, "fig3_s": "s", "fig4_s": "s", "fig5_s": "s",
               "analytic_sweep_s": "s", "mc_runs_per_s": "1/s",
               "large_pipeline_s": "s", "generate_s": "s",
               "read_network_s": "s", "error_rate": "ratio"}
_LAYER_UNITS = [(".calls", "calls/job"), ("_s", "s/job"), ("_ms", "ms"),
                (".bytes_computed", "B/call"), (".bytes", "B/call"),
                ("_frac", "ratio"), (".pgf_evals_per_solve", "evals/solve"),
                (".generations", "levels/call"),
                (".nodes_reached", "nodes/call"), (".edges", "edges/call"),
                (".directed_edges_indexed", "edges/call")]


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_intervals(config: Path) -> list:
    """(start, end of set-up) of fresh interpreters, on this process's
    clock (perf_counter is CLOCK_MONOTONIC, shared by all processes)."""
    intervals = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, str(checkout.BENCH / "setup_probe.py"),
             str(config)],
            check=True, capture_output=True, text=True, timeout=120)
        intervals.append((start, float(done.stdout.split()[-1])))
    return intervals


class Sampler:
    """The speed sampler (sampler.py) on this process's CPU.

    `slowdown(a, b)` is the sampler's mean loop time between a and b over
    REFERENCE_LOOP_S: how much slower than the reference speed the CPU
    ran in that stretch.  Timed values divided by it are times at the
    reference speed; the raw times are kept in the record.  A fixed
    reference, not a floor taken from the run, because a run can spend
    all its time in a slow phase."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(checkout.BENCH / "sampler.py")],
            stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # "ready"
        self.samples = []
        self.stopped = False

    def stop(self):
        if self.stopped:
            return
        self.stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        self.samples = json.loads(out) if out.strip() else []

    def slowdown(self, a: float, b: float) -> float:
        inside = [d for t, d in self.samples if a <= t <= b]
        if len(inside) < 3:  # a short stretch: widen it by a second
            inside = [d for t, d in self.samples if a - 1 <= t <= b + 1]
        return statistics.mean(inside) / REFERENCE_LOOP_S


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    with open(checkout.ROOT / "pyproject.toml", "rb") as fh:
        netepi_version = tomllib.load(fh)["project"]["version"]
    cpu_model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        key = f"L{_read(index / 'level')} {_read(index / 'type')}"
        caches[key] = _read(index / "size")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "netepi": netepi_version,
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "caches": caches,
            "threads": {v: os.environ.get(v) for v in checkout.THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.prepare()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    out_dir = checkout.BENCH / "out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # one CPU for the benchmark, its children and the sampler
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    try:
        return run(args, work, out_dir, spans, workloads, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, out_dir, spans, workloads, sampler) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = spans.Tracer(run_id=f"{tag}-pid{os.getpid()}")
    probes = [] if args.trace else setup_intervals(wl.probe_config)

    attempted = failed = 0
    failures = []
    stages, job_wall, traced_flags, job_spans = [], [], [], []
    start = perf_counter()
    j = 0
    while (j < MIN_JOBS or perf_counter() - start
           + statistics.median(job_wall or [0.0]) <= args.seconds):
        traced = bool(args.trace) and j % 2 == 1
        attempted += 1
        t0 = perf_counter()
        tracer.job = j
        try:
            if traced:
                tracer.install()
            try:
                job_stages, state = wl.job(j)
            finally:
                tracer.uninstall()
            job_span = (t0, perf_counter())
            problems = wl.check(j, state)
        except Exception:
            problems = ["exception:\n" + traceback.format_exc()]
            job_stages = None
        job_wall.append(perf_counter() - t0)
        if problems:
            failed += 1
            failures += [f"job {j}: {p}" for p in problems]
        if job_stages is not None:
            stages.append(job_stages)
            traced_flags.append(traced)
            job_spans.append(job_span)
        j += 1

    try:
        final = wl.finish()
    except Exception:
        final = [("finish", "exception:\n" + traceback.format_exc())]
    for name, problem in final:
        attempted += 1
        if problem:
            failed += 1
            failures.append(f"{name}: {problem}")

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    if not stages:
        print("no job completed; nothing to report", file=sys.stderr)
        return 1

    sampler.stop()
    slowdowns = [sampler.slowdown(a, b) for a, b in job_spans]
    adjusted = [{k: v / f for k, v in s.items()}
                for s, f in zip(stages, slowdowns)]
    totals = [sum(s.values()) for s in adjusted]
    untraced = [t for t, tr in zip(totals, traced_flags) if not tr]
    named = {}
    if args.trace:
        traced_totals = [t for t, tr in zip(totals, traced_flags) if tr]
        if not traced_totals or not untraced:
            print("a traced run needs one traced and one untraced job",
                  file=sys.stderr)
            return 1
        metrics = tracer.layer_metrics(len(traced_totals))
        metrics["trace.overhead_frac"] = (statistics.median(traced_totals)
                                          / statistics.median(untraced) - 1.0)
        raw_traced = [sum(s.values()) for s, tr in zip(stages, traced_flags)
                      if tr]
        metrics["trace.coverage_frac"] = (tracer.top_level_seconds()
                                          / sum(raw_traced))
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup_s = statistics.median(
            (end - start) / sampler.slowdown(start, end)
            for start, end in probes)
        metrics = {"job_s": statistics.median(totals), "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        named = {"setup_s": setup_s, **wl.report(adjusted),
                 "peak_rss_mb": metrics["peak_rss_mb"],
                 "error_rate": failed / attempted, "job_s": metrics["job_s"]}
        units = E2E_UNITS

    env = environment()
    sizes = wl.sizes()
    record = {"workload": args.workload, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "sizes": sizes, "raw_jobs": stages, "slowdowns": slowdowns,
              "raw_job_s": statistics.median(sum(s.values())
                                             for s in stages),
              "raw_setup_s": [end - start for start, end in probes],
              "sampler": {"samples": len(sampler.samples),
                          "reference_loop_s": REFERENCE_LOOP_S},
              "traced": traced_flags,
              "named_metrics": named, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "failures": failures}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(out_dir / f"{tag}-spans.jsonl.gz",
                     {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(stages)}  "
          f"trace {args.trace}")
    for name, value in (named or metrics).items():
        unit = NAMED_UNITS.get(name) or units[name]
        print(f"  {name:48s} {value:14.6g} {unit}")
    if args.trace:
        for name in ("branching.analyze", "netgen.build_network",
                     "simulate.run_epidemic"):
            values = tracer.durations(name)
            if values:
                print(f"  {name}: {spans.tail_summary(values)}")
    print(f"  error_rate counts {failed} failed of {attempted} attempted "
          "(jobs plus run-level checks)")
    print("env " + json.dumps(env, sort_keys=True))
    if sizes:
        print("sizes " + json.dumps(sizes, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
