"""Re-measure the rows of the roadmap's "Measured baseline" table.

    python3 bench/roadmap_rows.py

Prints one markdown row per baseline row: the roadmap's figure, the time
measured here (best of three for calls under a second, one run
otherwise; the figure rows run with the tracer on, to count builds) and
whether the two agree within a factor of 1.3 either way.
Build and PGF-evaluation counts come from the benchmark's tracer.  Rows
about stages inside a function (the lexsort, the imperfection count, the
adjacency argsort) need spans inside the package and are not measured.
"""

from time import perf_counter

import checkout

checkout.prepare()

import tempfile  # noqa: E402

import spans  # noqa: E402
from netepi import cli, netgen, simulate  # noqa: E402
from netepi.branching import ModelParams, analyze  # noqa: E402
from netepi.distributions import InfectionSpec, poisson, poisson_plus  # noqa: E402

AGREE = 1.3


def params(r=0.0, p_i=0.2):
    return ModelParams(poisson_plus(2), poisson(8), r, 10,
                       InfectionSpec.constant(p_i))


def best(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def traced(fn):
    tracer = spans.Tracer("roadmap")
    tracer.install()
    try:
        t0 = perf_counter()
        fn()
        elapsed = perf_counter() - t0
    finally:
        tracer.uninstall()
    return elapsed, tracer


def row(what, roadmap_s, measured_s, note=""):
    ratio = measured_s / roadmap_s
    verdict = "agrees" if 1 / AGREE <= ratio <= AGREE else "DISAGREES"
    print(f"| {what} | {roadmap_s:.4g} s | {measured_s:.4g} s | "
          f"{ratio:.2f} | {verdict} | {note} |")


def main():
    print("| row | roadmap | measured | ratio | verdict | note |")
    print("|---|---|---|---|---|---|")
    for r in (-1.0, 0.0, 0.5):
        row(f"analyze, r={r}", 0.021, best(lambda: analyze(params(r)), 3))
    t, tr = traced(lambda: cli.analyze(params(-0.5, 0.104)))
    evals = len(tr.durations("household.mixture_pgf_profile"))
    row("analyze, p_i=0.104, r=-0.5", 2.9, t,
        f"{evals} PGF evaluations (roadmap: 8022)")
    # the table does not give r for its build rows; r = 0 pairs no
    # labelled stubs, so r = 0.5 is measured too (the lexsort sub-row
    # needs labelled stubs)
    nets = {}
    for r in (0.0, 0.5):
        for n, roadmap_s in ((10_000, 0.016), (100_000, 0.218),
                             (1_000_000, 3.0)):
            spec = params(r).gen_spec(n)
            reps = 3 if n < 1_000_000 else 1
            t = best(lambda: nets.__setitem__(
                n, netgen.build_network(spec, 1)), reps)
            row(f"build_network, n={n:.0e}, r={r}", roadmap_s, t)
    for n, roadmap_s in ((10_000, 0.015), (100_000, 0.190),
                         (1_000_000, 2.9)):
        reps = 3 if n < 1_000_000 else 1
        t = best(lambda: simulate.run_epidemic(
            nets[n], InfectionSpec.constant(0.2), 2), reps)
        row(f"run_epidemic, n={n:.0e}", roadmap_s, t)
    del nets
    t = best(lambda: simulate.estimate(params(), 10_000, 200, 0), 1)
    row("estimate, n=1e4, 200 runs, 1 thread", 6.6, t,
        f"{t / 200 * 1e3:.1f} ms/run (roadmap: ~33)")
    net = netgen.build_network(params().gen_spec(100_000), 3)
    with tempfile.TemporaryDirectory(dir=checkout.BENCH / "out") as tmp:
        path = f"{tmp}/network.txt"
        row("write_network, n=1e5", 1.4,
            best(lambda: netgen.write_network(net, path), 1))
        row("read_network, n=1e5", 1.2,
            best(lambda: netgen.read_network(path), 1))
        for name, roadmap_s, note in (
                ("fig3", 17.7, "roadmap: 1404 BranchingModel builds"),
                ("fig4", 16.8, ""), ("fig5", 1.3, "")):
            t, tr = traced(lambda: cli.main(["figure", name, "--out", tmp]))
            builds = len(tr.durations("branching.BranchingModel.init"))
            row(f"figure {name}, default grid", roadmap_s, t,
                f"{builds} builds; {note}" if note else f"{builds} builds")


if __name__ == "__main__":
    (checkout.BENCH / "out").mkdir(exist_ok=True)
    main()
