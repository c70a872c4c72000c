"""The four benchmark workloads.

Each workload is a closed loop with one client: the benchmark issues one
job, waits for it, checks its outputs and issues the next.  User-facing
commands run in-process through `netepi.cli.main`, so interpreter
start-up is not part of a job.  The workload seed only shapes the inputs
(grid order, master seeds, network seeds); the program receives nothing
but the configs and seeds generated here.

A job returns its timed stages in seconds.  Checks run outside the timed
stages and report failures as strings; `finish` runs the checks that
need every job of the run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from netepi import branching, cli, netgen, simulate
from netepi.branching import ModelParams

REFERENCE = Path(__file__).resolve().parent / "reference" / "analytic.json"

R_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
REF_TOL = 1e-10      # the analytic gate of the roadmap's solver work
SAME_LAW_TOL = 1e-8  # p_maj = z for a constant infectious period


def child_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def model_params(cfg: dict) -> ModelParams:
    """The parameters `netepi simulate` resolves from this config."""
    model = cli.resolve_model(cfg["model"])
    h, g = cli.model_distributions(model)
    infection = cli.infection_spec(cli.resolve_infection(cfg["infection"]))
    return ModelParams(household=h, global_degree=g, r=model["r"],
                       n_q=model["n_q"], infection=infection,
                       p_rw=model["p_rw"])


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def run_cli(argv: list) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"netepi {' '.join(map(str, argv))} exited {code}")


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    @property
    def probe_config(self) -> Path:
        """The config a fresh interpreter loads to measure set-up."""
        raise NotImplementedError

    def job(self, j: int):
        """Run job j; return ({stage: seconds}, state for `check`)."""
        raise NotImplementedError

    def check(self, j: int, state) -> list:
        return []

    def finish(self) -> list:
        """Run-level checks: [(name, failure message or None)]."""
        return []

    def report(self, stages: list) -> dict:
        """The workload's named end-to-end metrics from per-job stages."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """Computed working-set sizes worth setting beside the caches."""
        return {}


def _median(stages, key):
    return float(np.median([s[key] for s in stages]))


# -- analytic_sweep --------------------------------------------------------


def sweep_steps(order=list):
    """(label, argv, config, key columns) of each step of the sweep; the
    label is also the stem of the CSV the step writes.  `order` permutes
    every grid (identity for the reference)."""
    return [
        ("fig3", ["figure", "fig3"],
         {"figure": {"mu_grid": [2.0], "r_grid": order(R_GRID),
                     "p_i_factors": order([1.05, 1.5, 2.5, 4.0])}},
         ("mu", "p_i_factor", "r")),
        ("fig4", ["figure", "fig4"],
         {"figure": {"p_i_grid": order([0.103, 0.104]),
                     "r_grid": order(R_GRID)}},
         ("p_i", "r")),
        # fig5 at its defaults; its rows are keyed by position because
        # every unrewired row has p_rw = 0
        ("fig5", ["figure", "fig5"], {}, ("#",)),
        ("analyze", ["analyze"],
         {"model": {"household": "poisson_plus(2)",
                    "global_degree": "poisson(8)", "r_grid": order(R_GRID),
                    "n_q": 10, "p_rw": 0.3},
          "infection": {"kind": "gamma", "rate": 0.15, "shape": 2.0,
                        "scale": 0.5}},
         ("r",)),
    ]


def csv_rows(path: Path, keys) -> dict:
    """{key: (r_star, p_maj, z)} as written, keyed by the input columns
    ("#" is the row's position)."""
    out = {}
    for i, row in enumerate(read_csv(path)):
        key = "|".join(str(i) if k == "#" else repr(float(row[k]))
                       for k in keys)
        out[key] = [row["r_star"], row["p_maj"], row["z"]]
    return out


def _close(got: str, want: str, tol: float) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


class AnalyticSweep(Workload):
    name = "analytic_sweep"
    why = ("figure fig3/fig4/fig5 and a general-period analyze: branching, "
           "household, distributions and netprops only, no netgen or simulate")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.reference = json.loads(REFERENCE.read_text())
        rng = np.random.default_rng(seed)

        def order(xs):
            return [xs[i] for i in rng.permutation(len(xs))]

        self.steps = []
        for label, argv, cfg, keys in sweep_steps(order):
            path = write_config(work / f"{label}.yaml", cfg)
            self.steps.append((label, argv, path, keys))

    @property
    def probe_config(self):
        return self.work / "analyze.yaml"

    def job(self, j):
        out = self.work / "out"
        stages = {}
        for label, argv, path, _ in self.steps:
            stages[label], _ = timed(run_cli, [*argv, "--config", path,
                                               "--out", out])
        return stages, out

    def check(self, j, out):
        failures = []
        for label, _, _, keys in self.steps:
            got = csv_rows(out / f"{label}.csv", keys)
            want = self.reference[label]
            if set(got) != set(want):
                failures.append(f"{label}: rows {sorted(set(got) ^ set(want))}"
                                " differ from the reference")
                continue
            for key, (r_star, p_maj, z) in got.items():
                for col, value, ref in zip(("r_star", "p_maj", "z"),
                                           (r_star, p_maj, z), want[key]):
                    if not _close(value, ref, REF_TOL):
                        failures.append(f"{label} {key} {col}={value}, "
                                        f"reference {ref}")
                if label != "analyze" and not _close(p_maj, z, SAME_LAW_TOL):
                    failures.append(f"{label} {key}: p_maj={p_maj} != z={z}")
        return failures

    def report(self, stages):
        m = {f"{label}_s": _median(stages, label)
             for label in ("fig3", "fig4", "fig5")}
        m["analytic_sweep_s"] = float(np.median([sum(s.values())
                                                 for s in stages]))
        return m


# -- mc_small --------------------------------------------------------------


class McSmall(Workload):
    name = "mc_small"
    why = ("netepi simulate at n=1e4, constant period: per-run fixed costs of "
           "build, adjacency and the BFS loop")
    N_SIMS = 100

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = {"model": {"gamma": 10.0, "mu": 2.0, "r": 0.5, "n_q": 10},
                    "infection": {"kind": "constant", "p_i": 0.2},
                    "simulation": {"n": 10_000, "n_sims": self.N_SIMS,
                                   "threads": 1}}
        self.path = write_config(work / "simulate.yaml", self.cfg)
        self.final_sizes = []
        self.major = []

    @property
    def probe_config(self):
        return self.path

    def job(self, j):
        out = self.work / "out"
        t, _ = timed(run_cli, ["simulate", "--config", self.path, "--out", out,
                               "--seed", child_seed(self.seed, j)])
        return {"simulate": t}, out

    def check(self, j, out):
        runs = read_csv(out / "runs.csv")
        if len(runs) != self.N_SIMS:
            return [f"runs.csv has {len(runs)} rows, not {self.N_SIMS}"]
        self.final_sizes += [int(r["final_size"]) for r in runs]
        self.major += [r["major"] == "1" for r in runs]
        return []

    def finish(self):
        params = model_params(self.cfg)
        rep = branching.analyze(params)
        n = self.cfg["simulation"]["n"]
        major = np.array(self.major)
        sizes = np.array(self.final_sizes)[major] / n
        p_hat = major.mean()
        p_se = math.sqrt(p_hat * (1.0 - p_hat) / major.size)
        z_hat = sizes.mean()
        z_se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        checks = [
            ("p_hat vs p_maj",
             None if abs(p_hat - rep.p_major) <= 3.0 * p_se else
             f"p_hat={p_hat:.5f} p_maj={rep.p_major:.5f} p_se={p_se:.5f}"),
            ("z_hat vs z",
             None if abs(z_hat - rep.z) <= 4.0 * z_se else
             f"z_hat={z_hat:.6f} z={rep.z:.6f} z_se={z_se:.6f}"),
        ]
        # same final sizes for any worker count (outside the timed jobs)
        kw = dict(n=2_000, n_sims=12, master_seed=self.seed)
        one = simulate.estimate(params, threads=1, **kw).final_sizes
        two = simulate.estimate(params, threads=2, **kw).final_sizes
        checks.append(("threads=2 equals threads=1",
                       None if np.array_equal(one, two) else
                       f"final sizes differ: {one} vs {two}"))
        return checks

    def report(self, stages):
        return {"mc_runs_per_s": float(np.median(
            [self.N_SIMS / s["simulate"] for s in stages]))}


# -- network_large ---------------------------------------------------------


class NetworkLarge(Workload):
    name = "network_large"
    why = ("one n=1e6 network per job, r=-0.5, rewired, gamma period: sort- "
           "and memory-bound build, rewire and two epidemics")
    N = 1_000_000
    P_RW = 0.3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = {"model": {"gamma": 10.0, "mu": 2.0, "r": -0.5, "n_q": 10,
                              "p_rw": self.P_RW},
                    "infection": {"kind": "gamma", "rate": 0.6, "shape": 4.0,
                                  "scale": 0.25},
                    "simulation": {"n": self.N}}
        self.path = write_config(work / "network.yaml", self.cfg)
        self.params = model_params(self.cfg)
        self.z = branching.analyze(self.params).z
        self.edges = []

    @property
    def probe_config(self):
        return self.path

    def job(self, j):
        s_build, s_rewire, s_fwd, s_rev = np.random.SeedSequence(
            [self.seed, j]).spawn(4)
        infection = self.params.infection
        stages = {}
        stages["build"], net = timed(netgen.build_network,
                                     self.params.gen_spec(self.N), s_build)
        degrees = net.degrees()
        stages["rewire"], rewired = timed(netgen.rewire, net, self.P_RW,
                                          s_rewire)
        del net
        stages["forward"], fwd = timed(simulate.run_epidemic, rewired,
                                       infection, s_fwd)
        stages["reverse"], _ = timed(simulate.run_epidemic, rewired,
                                     infection, s_rev, reverse=True)
        self.edges.append(rewired.n_edges)
        return stages, (degrees, rewired.degrees(), fwd)

    def check(self, j, state):
        before, after, fwd = state
        failures = []
        if not np.array_equal(before, after):
            failures.append("rewire changed node degrees")
        tol = 2.0 / math.sqrt(self.N)
        if (fwd.final_size >= math.ceil(0.05 * self.N)
                and abs(fwd.infected_fraction - self.z) > tol):
            failures.append(f"major forward run infected "
                            f"{fwd.infected_fraction:.6f}, z={self.z:.6f}")
        return failures

    def report(self, stages):
        return {"large_pipeline_s": float(np.median([sum(s.values())
                                                     for s in stages]))}

    def sizes(self):
        edges = float(np.median(self.edges))
        mb = 1e-6
        return {"nodes": self.N, "edges": edges,
                "edge_array_int64_mb": 8 * edges * mb,
                "directed_array_int64_mb": 16 * edges * mb,
                "node_array_int64_mb": 8 * self.N * mb,
                "note": "computed from array lengths; compare with the "
                        "last-level cache in env.caches"}


# -- generate_io -----------------------------------------------------------


class GenerateIO(Workload):
    name = "generate_io"
    why = ("netepi generate at n=2e5 with rewiring, then read_network: the "
           "per-edge write and read loops and the empirical c and rho")
    N = 200_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = {"model": {"gamma": 10.0, "mu": 2.0, "r": 0.5, "n_q": 10,
                              "p_rw": 0.3},
                    "simulation": {"n": self.N}}
        self.path = write_config(work / "generate.yaml", self.cfg)

    @property
    def probe_config(self):
        return self.path

    def job(self, j):
        out = self.work / "out"
        gen_seed = child_seed(self.seed, j)
        stages = {}
        stages["generate"], _ = timed(run_cli, [
            "generate", "--config", self.path, "--out", out,
            "--seed", gen_seed])
        stages["read_network"], net = timed(netgen.read_network,
                                            str(out / "network.txt"))
        return stages, (gen_seed, net, out)

    def check(self, j, state):
        gen_seed, read_back, out = state
        failures = []
        # the network `generate` builds for this seed (cli.cmd_generate)
        params = model_params({**self.cfg,
                               "infection": {"kind": "constant", "p_i": 0.0}})
        s_build, s_rewire = np.random.SeedSequence(gen_seed).spawn(2)
        net = netgen.rewire(netgen.build_network(params.gen_spec(self.N),
                                                 s_build),
                            params.p_rw, s_rewire)
        if read_back != net:
            failures.append("read_network(path) differs from the network "
                            "generate built")
        props = read_csv(out / "network_properties.csv")[0]
        if int(props["n_edges"]) != net.n_edges:
            failures.append("network_properties.csv n_edges is wrong")
        # finite-size tolerances; see NOTES.md, "Output checks"
        tols = {"c": 1.0 / math.sqrt(self.N), "rho": 2.5 / math.sqrt(self.N)}
        for kind, tol in tols.items():
            emp = float(props[f"{kind}_empirical"])
            ana = float(props[f"{kind}_analytic"])
            if abs(emp - ana) > tol:
                failures.append(f"{kind}_empirical={emp} vs analytic {ana}")
        return failures

    def report(self, stages):
        return {"generate_s": _median(stages, "generate"),
                "read_network_s": _median(stages, "read_network")}


WORKLOADS = {w.name: w for w in (AnalyticSweep, McSmall, NetworkLarge,
                                 GenerateIO)}
