"""Guards for the tooling kept beside the package.

bench/spans.py traces a run by replacing public callables of netepi with
wrappers and restoring them afterwards.  Renaming or deleting one of
those callables would only show up when a traced benchmark run crashes;
these tests make it fail the suite instead.  The same holds for the
configs the benchmark workloads hand to the command line, and for the
start-up cost every command pays before its work begins.  Four guards
read the source itself: a name set in src/ that nothing reads fails one,
a household engine built in src/ outside household.py another, a
structure record or its tables built outside branching's memo the third,
and the range message of r, n_q or p_rw written more than once the fourth.
Another holds the config table's infection keys to the parameters of
the InfectionSpec constructors that resolve_infection reads them by.
Another records every shuffle the structure layer draws, each of which
must permute an array whose items are the size of intp: the only item
size numpy's Generator.shuffle has a fast path for.  Another holds every
module-level array in src/, and the tables its memos share, read-only.
Another holds every call of scipy's COO->CSR kernel in src/ to
netgen._group_by, so that every grouping takes its one blocked path.
"""

import ast
import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from netepi import cli, netgen, simulate
from netepi.distributions import InfectionSpec, poisson, poisson_plus

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"


# one threshold bisection and one tuning, run after `import netepi.cli`
_INVERSIONS = (
    "from netepi.branching import critical_p_i, tune_poisson; "
    "from netepi.distributions import poisson, poisson_plus; "
    "critical_p_i(poisson_plus(2.0), poisson(8.0), -1.0, 10); "
    "tune_poisson(10.0, 0.16, 0.3, 10); ")


@pytest.mark.parametrize("module, absent", [
    pytest.param("netepi", "scipy.stats", id="netepi"),
    pytest.param("netepi.cli", "scipy.stats", id="netepi.cli"),
    pytest.param("netepi.cli", "scipy.sparse.csgraph",
                 id="netepi.cli-scipy.sparse.csgraph"),
    pytest.param("netepi.cli", "scipy.linalg", id="netepi.cli-scipy.linalg"),
    pytest.param("netepi.cli", "scipy.optimize",
                 id="netepi.cli-scipy.optimize"),
])
def test_import_leaves_scipy_stats_out(module, absent):
    # scipy.stats alone takes longer to import than everything else the
    # package loads; the distribution tables use scipy.special instead.
    # scipy.sparse.csgraph adds 65-135 ms on top of netepi.cli, and
    # scipy.optimize 170-220 ms.  After netepi.cli the inversions run
    # too, so that neither the exact Perron root (numpy's LAPACK) nor a
    # root finder loads a module on first use.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    work = _INVERSIONS if module == "netepi.cli" else ""
    code = (f"import sys, {module}; {work}"
            f"assert {absent!r} not in sys.modules, "
            f"sorted(m for m in sys.modules if m.startswith({absent!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _source_trees():
    for tree in (SRC, ROOT / "tests", BENCH):
        for path in sorted(tree.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _set_in_src():
    """(where, name) of each module-level assignment, def or class and
    each `self.` attribute assigned in src/."""
    for path, tree in _source_trees():
        if not path.is_relative_to(SRC):
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, stmt.name
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for node in ast.walk(ast.Tuple(targets)):
                    if isinstance(node, ast.Name):
                        yield path.name, node.id
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield path.name, f"self.{node.attr}"


def _read_anywhere():
    """The names read (loaded, imported or augmented), the attributes
    read, and the text of every string that is not a docstring or other
    bare string statement, over src/, tests/ and bench/."""
    names, attrs, strings = set(), set(), []
    for _, tree in _source_trees():
        bare = {id(stmt.value) for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                node = node.target
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in bare):
                strings.append(node.value)
    return names, attrs, "\n".join(strings)


def test_every_name_set_in_src_is_read():
    # a module-level name or a self. attribute that nothing reads is code
    # with no caller; bench/spans.py names the callables it patches in
    # strings, so a string naming the name counts as a read
    names, attrs, text = _read_anywhere()
    dead = []
    for where, name in sorted(set(_set_in_src())):
        bare = name.removeprefix("self.")
        if bare.startswith("__") and bare.endswith("__"):
            continue
        read = attrs if name.startswith("self.") else names | attrs
        if bare not in read and not re.search(rf"\b{bare}\b", text):
            dead.append(f"{where}: {name}")
    assert not dead, dead


def test_every_module_level_array_in_src_is_read_only():
    # a module-level array is shared by every caller, so a write through
    # one would change every later result; the tables a memo builds on
    # first use and shares the same way count too
    shared = {}
    for info in pkgutil.iter_modules([str(SRC / "netepi")]):
        module = importlib.import_module(f"netepi.{info.name}")
        shared.update((f"{info.name}.{name}", value)
                      for name, value in vars(module).items()
                      if isinstance(value, np.ndarray))
    shared["netgen._digit_words()"] = netgen._digit_words()
    for i, t in enumerate(netgen._clique_offsets(4, np.dtype(np.int32))):
        shared[f"netgen._clique_offsets(4, int32)[{i}]"] = t
    assert "netgen._LOCAL" in shared
    writable = [name for name, value in shared.items()
                if value.flags.writeable]
    assert not writable, writable


def _called_name(node):
    func = getattr(node, "func", None)
    return getattr(func, "id", getattr(func, "attr", None))


def test_only_household_builds_household_engines():
    # every other module takes its engine from household.household_engine,
    # whose memo is keyed on all that fixes an engine's tables, so no model
    # can hold an engine of another infection or largest household size
    builders = []
    for path, tree in _source_trees():
        if not path.is_relative_to(SRC) or path.name == "household.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _called_name(node) == "HouseholdEngine"):
                builders.append(f"{path.name}:{node.lineno}")
    assert not builders, builders


def test_only_the_memo_builds_structure_tables():
    # a Structure record is built only by branching.structure, whose memo
    # is keyed on all that fixes its tables, (H, G, r, n_q), and its
    # stub-degree law, quantile table and pairing kernels are built only
    # in the record, so no model holds tables of another structure or
    # builds its own
    builders = []
    for path, tree in _source_trees():
        if not path.is_relative_to(SRC):
            continue
        # the nodes each watched call may sit in: none outside branching
        homes = {"Structure": set()}
        if path.name == "branching.py":
            defs = {stmt.name: stmt for stmt in tree.body
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
            memo, record = defs["structure"], defs["Structure"]
            assert any(ast.unparse(d).startswith("functools.lru_cache")
                       for d in memo.decorator_list)
            homes["Structure"] = {id(node) for node in ast.walk(memo)}
            homes.update(dict.fromkeys(
                ("stub_degree_law", "quantile_table", "pairing_kernels"),
                {id(node) for node in ast.walk(record)}))
        for node in ast.walk(tree):
            name = _called_name(node)
            if (isinstance(node, ast.Call) and name in homes
                    and id(node) not in homes[name]):
                builders.append(f"{path.name}:{node.lineno} {name}")
    assert not builders, builders


@pytest.mark.parametrize("message", [
    "r must lie in", "n_q must lie in", "p_rw must lie in"])
def test_each_parameter_domain_is_checked_in_one_place(message):
    # r, n_q and p_rw each have one check in distributions that every entry
    # calls; a hand-copied range check would carry its message again
    found = [f"{path.name}:{number}"
             for path in sorted((SRC / "netepi").glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(rf"\b{re.escape(message)}", line)]
    assert len(found) == 1, found


def test_only_group_by_calls_the_coo_kernel():
    # every grouping in src/ goes through netgen._group_by, so each takes
    # its one choice between a single and a cache-blocked scatter
    callers = []
    for path, tree in _source_trees():
        if not path.is_relative_to(SRC):
            continue
        homes = set()
        if path.name == "netgen.py":
            home, = (stmt for stmt in tree.body
                     if isinstance(stmt, ast.FunctionDef)
                     and stmt.name == "_group_by")
            homes = {id(node) for node in ast.walk(home)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "coo_tocsr"
                    and id(node) not in homes):
                callers.append(f"{path.name}:{node.lineno}")
    assert not callers, callers


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


def _accepted_infection_kinds():
    """The tuple of kinds that cli._infection_kind checks its value in."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._infection_kind)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and isinstance(node.ops[0], ast.NotIn)):
            return ast.literal_eval(node.comparators[0])
    raise AssertionError("cli._infection_kind checks no tuple of kinds")


def test_infection_keys_are_the_spec_constructors_parameters():
    # resolve_infection takes each kind's keys from the signature of its
    # InfectionSpec classmethod, so the config table must list exactly
    # those, and every kind the config accepts must have one
    kinds = _accepted_infection_kinds()
    params = set()
    for kind in kinds:
        assert cli._infection_kind("infection.kind", kind) == kind
        assert isinstance(inspect.getattr_static(InfectionSpec, kind),
                          classmethod), kind
        params.update(inspect.signature(getattr(InfectionSpec, kind))
                      .parameters)
    rows = {name.split(".", 1)[1] for name in cli._KEYS
            if name.startswith("infection.")}
    assert rows == {"kind", *params}
    with pytest.raises(cli.ConfigError):
        cli._infection_kind("infection.kind", "general")


# sha256 of each CSV of the analytic sweep at the benchmark's grids in
# their own order; the benchmark's reference gate allows 1e-10, these pin
# every byte, so sharing tables, engines or bisections moves no ulp
_SWEEP_SHA256 = {
    "fig3": "4540afc07e8689ac41f8802c6cadbff69844362acf623b645c8f409e64b02732",
    "fig4": "31863e68c617814502c972b31047bb2d37a0185b03289549a398dcaeb6301e31",
    "fig5": "d6bf51683213af625c4d226d8cbf0e9b7cc956be8c598af0a44fe09ad4f369af",
    "analyze": ("9e52b9ebddc353a459760c50d686815f"
                "8e649db5562c253f2ad1ea7e59aeb46f"),
}


def test_analytic_sweep_csvs_are_pinned_bytewise(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    got = {}
    for label, argv, cfg, _ in workloads.sweep_steps():
        path = workloads.write_config(tmp_path / f"{label}.yaml", cfg)
        assert cli.main([*argv, "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        got[label] = hashlib.sha256(
            (tmp_path / f"{label}.csv").read_bytes()).hexdigest()
    assert got == _SWEEP_SHA256


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


class _ShuffleRecorder:
    """A numpy Generator that logs the dtype of each array it shuffles."""

    def __init__(self, rng, shuffled):
        self._rng, self._shuffled = rng, shuffled

    def shuffle(self, x):
        self._shuffled.append(x.dtype)
        self._rng.shuffle(x)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_structure_layer_shuffles_intp_sized_arrays(monkeypatch):
    # netgen's docstring keeps the stubs it shuffles int64 for
    # Generator.shuffle's intp fast path: 4e4 int32 stubs shuffle in
    # 0.79 ms against 0.44 ms as int64 (Intel Xeon, numpy 2.4.6)
    shuffled = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None:
                        _ShuffleRecorder(default_rng(seed), shuffled))
    intp = np.dtype(np.intp).itemsize

    def check(stage, r):
        assert shuffled, (stage, r)
        assert all(dtype.itemsize == intp for dtype in shuffled), (
            stage, r, shuffled)
        shuffled.clear()

    for r in (0.0, 0.5, -0.5, 1.0):
        spec = netgen.GenSpec(n=3000, household=poisson_plus(2.0),
                              global_degree=poisson(8.0), r=r, n_q=7)
        net = netgen.build_network(spec, 1)
        check("build_network", r)
        netgen.rewire(net, 0.5, 2)
        check("rewire", r)
