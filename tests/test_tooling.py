"""Guards for the tooling kept beside the package.

bench/spans.py traces a run by replacing public callables of netepi with
wrappers and restoring them afterwards.  Renaming or deleting one of
those callables would only show up when a traced benchmark run crashes;
this test makes it fail the suite instead.
"""

from pathlib import Path

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
