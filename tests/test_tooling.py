"""Guards for the tooling kept beside the package.

bench/spans.py traces a run by replacing public callables of netepi with
wrappers and restoring them afterwards.  Renaming or deleting one of
those callables would only show up when a traced benchmark run crashes;
these tests make it fail the suite instead.  The same holds for the
configs the benchmark workloads hand to the command line, and for the
start-up cost every command pays before its work begins.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from netepi import cli, netgen, simulate
from netepi.distributions import InfectionSpec, poisson, poisson_plus

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"


@pytest.mark.parametrize("module, absent", [
    pytest.param("netepi", "scipy.stats", id="netepi"),
    pytest.param("netepi.cli", "scipy.stats", id="netepi.cli"),
    pytest.param("netepi.cli", "scipy.sparse.csgraph",
                 id="netepi.cli-scipy.sparse.csgraph"),
])
def test_import_leaves_scipy_stats_out(module, absent):
    # scipy.stats alone takes longer to import than everything else the
    # package loads; the distribution tables use scipy.special instead.
    # scipy.sparse.csgraph adds 65-135 ms on top of netepi.cli.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}; "
            f"assert {absent!r} not in sys.modules, "
            f"sorted(m for m in sys.modules if m.startswith({absent!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_mistyped_mark_fails_collection(tmp_path):
    # a mark outside the registered ones would otherwise run a slow test
    # in the quick -m "not slow and not acceptance" loop
    probe = tmp_path / "test_probe.py"
    probe.write_text("import pytest\n\n\n@pytest.mark.slwo\n"
                     "def test_probe():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert "'slwo' not found" in proc.stdout


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


def test_benchmark_configs_are_read_by_their_commands(monkeypatch, tmp_path):
    # every config the benchmark writes must pass the full typed resolution
    # of the command it runs (or, for network_large, which runs no command,
    # of `simulate`, whose resolution `model_params` mirrors), and
    # bench/setup_probe.py must load each workload's probe config, so a
    # stricter config table fails the suite instead of a benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    runs = [(argv[-1], cfg, None)
            for _, argv, cfg, _ in workloads.sweep_steps()]
    runs += [("simulate", workloads.McSmall(0, tmp_path).cfg, 1),
             ("simulate", workloads.NetworkLarge(0, tmp_path).cfg, None),
             ("generate", workloads.GenerateIO(0, tmp_path).cfg, 1)]
    for command, cfg, seed in runs:
        path = workloads.write_config(tmp_path / "c.yaml", cfg)
        typed = cli._command_config(command, path, seed=seed)
        assert set(typed) == {section for section, keys
                              in cli._READS[command].items() if keys}
        if "model" in cfg:
            workloads.model_params(
                {"infection": {"kind": "constant", "p_i": 0.0}, **cfg})

    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        probe = workload(0, tmp_path / name).probe_config
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(probe)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        float(proc.stdout)  # the probe's perf_counter reading


def test_write_span_counts_the_bytes_of_the_edge_list(monkeypatch, tmp_path):
    # netgen.write_network.bytes is the file position moved by the call:
    # everything generate writes to network.txt after its "# config:" line
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    cfg = {"model": {"gamma": 10.0, "mu": 2.0, "r": 0.5, "n_q": 10,
                     "p_rw": 0.3},
           "simulation": {"n": 30_000}}
    path = workloads.write_config(tmp_path / "generate.yaml", cfg)
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert cli.main(["generate", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    written = [rec[6]["bytes"] for rec in tracer.spans
               if rec[2] == "netgen.write_network"]
    network = (tmp_path / "out" / "network.txt").read_bytes()
    config_line = network[:network.index(b"\n") + 1]
    assert config_line.startswith(b"# config: ")
    assert written == [len(network) - len(config_line)]
    # the header lines, then more than one chunk of edge lines
    assert network.count(b"\n") > 4 + netgen._IO_CHUNK


def test_read_span_is_one_per_call_and_counts_the_file(monkeypatch, tmp_path):
    # netgen.read_network.bytes is the size of the file named by the path;
    # each call must leave exactly one span, whatever the reader calls
    # inside
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    cfg = {"model": {"gamma": 10.0, "mu": 2.0, "r": 0.5, "n_q": 10,
                     "p_rw": 0.3},
           "simulation": {"n": 2_000}}
    path = workloads.write_config(tmp_path / "generate.yaml", cfg)
    assert cli.main(["generate", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--seed", "1"]) == 0
    network = tmp_path / "out" / "network.txt"
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        nets = [netgen.read_network(str(network)) for _ in range(2)]
    finally:
        tracer.uninstall()
    read = [rec for rec in tracer.spans if rec[2] == "netgen.read_network"]
    assert [rec[6]["bytes"] for rec in read] == [network.stat().st_size] * 2
    assert nets[0] == nets[1] and nets[0].n == 2_000
