"""Guards for the tooling kept beside the package.

bench/spans.py traces a run by replacing public callables of netepi with
wrappers and restoring them afterwards.  Renaming or deleting one of
those callables would only show up when a traced benchmark run crashes;
this test makes it fail the suite instead.
"""

from pathlib import Path

from netepi import netgen, simulate
from netepi.distributions import InfectionSpec, poisson, poisson_plus

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    targets = [(owner, attr) for _, owners, attr, _, _ in spans._TARGETS
               for owner in owners]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr


def test_span_observers_read_lazy_counts(monkeypatch):
    # the build observer reads net.imperfections, which the package now
    # counts on first read; the epidemic observer reads the outcome
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    spec = netgen.GenSpec(n=200, household=poisson_plus(2.0),
                          global_degree=poisson(4.0), r=0.5, n_q=4)
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        built = netgen.build_network(spec, 1)
        rewired = netgen.rewire(built, 0.5, 2)
        outcome = simulate.run_epidemic(rewired, InfectionSpec.constant(0.3), 3)
    finally:
        tracer.uninstall()
    counts = {rec[2]: rec[6] for rec in tracer.spans}
    imp = built.imperfections
    assert counts["netgen.build_network"]["edges"] == built.n_edges
    assert (counts["netgen.build_network"]["imperfect"]
            == imp.self_loops + imp.parallel_edges)
    assert "netgen.rewire" in counts
    assert (counts["simulate.run_epidemic"]["generations"]
            == outcome.generations.size)
