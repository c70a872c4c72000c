"""Span tracing from outside the package.

`Tracer.install()` replaces public callables of netepi at the names their
callers look up (a module attribute or a class attribute) with wrappers
that record one span per call: name, start, end, parent span and the job
it belongs to.  `uninstall()` puts the originals back, so untraced jobs
run the unmodified code.  Spans stay in memory until `write()`, and
`layer_metrics()` derives call counts, busy and self time from them.

Observers attach counts to a span from the call's arguments and result
(edges built, BFS levels, bytes written), so ratios are taken where the
work happens.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import statistics
from time import perf_counter

from netepi import branching, cli, household, netgen, simulate

MAJOR_CUTOFF = 0.05  # simulate.DEFAULT_CUTOFF, the split used by `simulate`


def _network_counts(args, kwargs, net):
    arrays = (net.household_index, net.household_sizes, net.edges_u,
              net.edges_v, net.edge_local, net.stub_q_u, net.stub_q_v)
    imp = net.imperfections
    return {"edges": net.n_edges,
            "bytes_computed": sum(a.nbytes for a in arrays),
            "imperfect": imp.self_loops + imp.parallel_edges}


def _epidemic_counts(args, kwargs, outcome):
    net = args[0]
    return {"generations": int(outcome.generations.size),
            "nodes_reached": outcome.final_size,
            "directed_edges_indexed": 2 * net.n_edges,
            "major": outcome.final_size >= math.ceil(MAJOR_CUTOFF * net.n)}


def _file_position(args, kwargs):
    return args[1].tell()


def _bytes_written(args, kwargs, result, start):
    return {"bytes": args[1].tell() - start}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


# (span name, owners whose attribute is replaced, attribute, observer, pre)
_TARGETS = [
    ("cli", [cli], "main", None, None),
    ("distributions.tables", [branching], "stub_degree_law", None, None),
    ("distributions.tables", [branching], "quantile_table", None, None),
    ("distributions.tables", [branching], "pairing_kernels", None, None),
    ("household.HouseholdEngine.init", [household.HouseholdEngine],
     "__init__", None, None),
    ("household.mixture_pgf_profile", [household.HouseholdEngine],
     "mixture_pgf_profile", None, None),
    ("branching.BranchingModel.init", [branching.BranchingModel],
     "__init__", None, None),
    ("branching.mean_matrix", [branching.BranchingModel], "mean_matrix",
     None, None),
    ("branching.r_star", [branching], "r_star", None, None),
    ("branching.extinction", [branching.BranchingModel],
     "forward_extinction", None, None),
    ("branching.extinction", [branching.BranchingModel],
     "backward_extinction", None, None),
    ("branching.analyze", [cli], "analyze", None, None),
    ("branching.tune_poisson", [cli], "tune_poisson", None, None),
    ("netprops.poisson_c_rho", [cli, branching], "poisson_c_rho", None, None),
    ("netgen.build_network", [cli, simulate, netgen], "build_network",
     _network_counts, None),
    ("netgen.rewire", [cli, simulate, netgen], "rewire", None, None),
    ("netgen.write_network", [cli], "write_network", _bytes_written,
     _file_position),
    ("netgen.read_network", [netgen], "read_network", _bytes_read, None),
    ("netprops.empirical_clustering", [cli], "empirical_clustering",
     None, None),
    ("netprops.empirical_degree_corr", [cli], "empirical_degree_corr",
     None, None),
    ("simulate.estimate", [cli], "estimate", None, None),
    ("simulate.run_epidemic", [simulate], "run_epidemic", _epidemic_counts,
     None),
]

CLI_COMMANDS = ("analyze", "figure", "generate", "simulate")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [id, parent, name, start, end, job, counts]
        self.job = None
        self._stack = []
        self._originals = []

    def install(self):
        for name, owners, attr, observe, pre in _TARGETS:
            for owner in owners:
                original = getattr(owner, attr)
                setattr(owner, attr,
                        self._wrapper(name, original, observe, pre))
                self._originals.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrapper(self, name, fn, observe, pre):
        tracer = self

        def traced(*args, **kwargs):
            span_name = _cli_name(args, kwargs) if name == "cli" else name
            if tracer._stack and tracer.spans[tracer._stack[-1]][2] == span_name:
                # read_network(path) calls read_network(file): one span
                return fn(*args, **kwargs)
            record = [len(tracer.spans),
                      tracer._stack[-1] if tracer._stack else -1,
                      span_name, 0.0, 0.0, tracer.job, None]
            tracer.spans.append(record)
            tracer._stack.append(record[0])
            before = pre(args, kwargs) if pre else None
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                record[6] = (observe(args, kwargs, result, before) if pre
                             else observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, header: dict):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-layer metrics, normalised per traced job where they are
        totals; values for layers the workload never calls are 0."""
        by_name: dict[str, list] = {}
        child_time = [0.0] * len(self.spans)
        under_solve = [False] * len(self.spans)
        for sid, parent, name, start, end, _, _ in self.spans:
            by_name.setdefault(name, []).append(sid)
            if parent >= 0:
                child_time[parent] += end - start
                under_solve[sid] = under_solve[parent]
            if name == "branching.extinction":
                under_solve[sid] = True

        def spans_of(name):
            return [self.spans[i] for i in by_name.get(name, [])]

        def durations(name):
            return [s[4] - s[3] for s in spans_of(name)]

        def calls(name):
            return len(by_name.get(name, [])) / n_jobs

        def busy(name):
            return sum(durations(name)) / n_jobs

        def self_time(name):
            return sum(s[4] - s[3] - child_time[s[0]]
                       for s in spans_of(name)) / n_jobs

        def mean_count(name, key):
            vals = [s[6][key] for s in spans_of(name)]
            return sum(vals) / len(vals) if vals else 0.0

        m = {}
        for name in ("distributions.tables", "household.HouseholdEngine.init",
                     "branching.r_star", "household.mixture_pgf_profile",
                     "branching.extinction", "branching.analyze",
                     "netprops.poisson_c_rho", "branching.tune_poisson",
                     "netgen.build_network", "simulate.run_epidemic"):
            m[f"{name}.calls"] = calls(name)
        for name in ("distributions.tables", "household.HouseholdEngine.init",
                     "branching.mean_matrix", "branching.r_star",
                     "household.mixture_pgf_profile", "branching.extinction",
                     "branching.analyze", "netprops.poisson_c_rho",
                     "branching.tune_poisson", "netgen.build_network",
                     "netgen.rewire", "simulate.run_epidemic",
                     "simulate.estimate", "netgen.write_network",
                     "netprops.empirical_clustering",
                     "netprops.empirical_degree_corr", "netgen.read_network"):
            m[f"{name}.busy_s"] = busy(name)
        m["branching.BranchingModel.init.calls"] = calls(
            "branching.BranchingModel.init")
        m["branching.BranchingModel.init.self_s"] = self_time(
            "branching.BranchingModel.init")

        solves = len(by_name.get("branching.extinction", []))
        evals = sum(under_solve[i]
                    for i in by_name.get("household.mixture_pgf_profile", []))
        m["branching.extinction.pgf_evals_per_solve"] = (
            evals / solves if solves else 0.0)

        for name in ("branching.analyze", "netgen.build_network",
                     "simulate.run_epidemic"):
            p50, tail, _ = latency_summary(durations(name))
            m[f"{name}.p50_ms"] = p50 * 1e3
            m[f"{name}.tail_ms"] = tail * 1e3

        m["netgen.build_network.edges"] = mean_count(
            "netgen.build_network", "edges")
        m["netgen.build_network.bytes_computed"] = mean_count(
            "netgen.build_network", "bytes_computed")
        builds = spans_of("netgen.build_network")
        edges = sum(s[6]["edges"] for s in builds)
        m["netgen.imperfection_frac"] = (
            sum(s[6]["imperfect"] for s in builds) / edges if edges else 0.0)
        for key in ("generations", "nodes_reached", "directed_edges_indexed"):
            m[f"simulate.run_epidemic.{key}"] = mean_count(
                "simulate.run_epidemic", key)
        m["simulate.major_frac"] = mean_count("simulate.run_epidemic", "major")
        m["netgen.write_network.bytes"] = mean_count(
            "netgen.write_network", "bytes")
        m["netgen.read_network.bytes"] = mean_count(
            "netgen.read_network", "bytes")
        for command in CLI_COMMANDS:
            m[f"cli.{command}.self_s"] = self_time(f"cli.{command}")
        return m

    def durations(self, name: str) -> list:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def top_level_seconds(self) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[1] < 0)


def latency_summary(values):
    """(median, tail, tail percentile): the tail is the highest percentile
    that still has at least ten samples above it; with ten or fewer
    samples there is none, and the median stands in for it."""
    if not values:
        return 0.0, 0.0, 50.0
    ordered = sorted(values)
    k = len(ordered)
    median = statistics.median(ordered)
    if k <= 10:
        return median, median, 50.0
    return median, ordered[k - 11], 100.0 * (k - 10) / k


def tail_summary(values) -> str:
    p50, tail, pct = latency_summary(values)
    return (f"p50 {p50 * 1e3:.3f} ms, p{pct:.1f} {tail * 1e3:.3f} ms "
            f"over {len(values)} calls")
