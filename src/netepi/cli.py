"""Experiment runner: config files, subcommands, CSV outputs.

Configs are YAML with sections `model`, `infection`, `simulation`,
`output`, `tune` and `figure`.  `_READS` lists the keys each command
reads.  Loading rejects a key that no command reads, and each command
rejects any section, key or `--seed`/`--threads` flag (which set
`simulation.master_seed` and `simulation.threads`) that it does not read,
so a typo cannot silently change an experiment.  `main` turns a package
error or a value outside its domain (`ValueError`) into `error: ...` and
exit status 2.  Every output file starts with a `# config:` comment
carrying the fully resolved configuration as sorted JSON; re-running with
the same resolved config reproduces the file bit for bit.

Subcommands:
  analyze    analytic network + epidemic quantities per r value
  generate   build one network, write it and its measured properties
  simulate   Monte Carlo estimate of outbreak probability and size
  figure     canned parameter sweeps (fig2, fig3, fig4, fig5)
  tune       pick (mu, r) hitting clustering/correlation targets
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from .branching import BranchingModel, ModelParams, analyze, tune_poisson
from .distributions import InfectionSpec, parse_distribution, poisson, poisson_plus
from .errors import ConfigError, NetepiError
from .netgen import build_network, rewire, write_network
from .netprops import (
    analytic_degree_corr,
    analytic_degree_dist,
    degree_corr_components,
    empirical_clustering,
    empirical_degree_corr,
    poisson_c_rho,
    rewired_clustering,
)
from .simulate import estimate

# each infection kind's fields in the argument order of its InfectionSpec
# constructor, with their defaults (None: required)
_INFECTION_FIELDS = {
    "constant": {"p_i": None},
    "exponential": {"rate": None, "mean": 1.0},
    "gamma": {"rate": None, "shape": None, "scale": 1.0},
}

_MODEL = {"household", "global_degree", "gamma", "mu", "n_q", "p_rw"}
_INFECTION = {"kind"}.union(*_INFECTION_FIELDS.values())
_SIMULATION = {"n", "n_sims", "cutoff", "master_seed", "threads"}

# the config keys each command reads, by section; every command reads
# `output`
_READS = {command: {"output": {"dir", "prefix"}, **sections}
          for command, sections in {
    "analyze": {"model": _MODEL | {"r", "r_grid"}, "infection": _INFECTION},
    "generate": {"model": _MODEL | {"r"}, "simulation": {"n", "master_seed"}},
    "simulate": {"model": _MODEL | {"r"}, "infection": _INFECTION,
                 "simulation": _SIMULATION},
    "tune": {"tune": {"gamma", "n_q", "c", "rho"}},
    "fig2": {"model": _MODEL | {"r_grid"}, "infection": _INFECTION,
             "simulation": _SIMULATION, "figure": {"r_grid"}},
    "fig3": {"figure": {"gamma", "n_q", "mu_grid", "r_grid", "p_i_factors"}},
    "fig4": {"model": _MODEL, "figure": {"n_q", "p_i_grid", "r_grid"}},
    "fig5": {"figure": {"gamma", "n_q", "p_i", "rho", "p_rw_grid"}},
}.items()}

# (ignored, given): a command ignores the first setting when the second
# (a key, or a whole section) is given
_OVERRIDDEN = {"analyze": [("model.r", "model.r_grid")],
               "fig2": [("model.r_grid", "figure.r_grid")],
               "fig4": [("figure.n_q", "model")]}

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")

# section -> the keys that some command reads there
_KNOWN = {section: set().union(*(r.get(section, ()) for r in _READS.values()))
          for reads in _READS.values() for section in reads}


# -- config loading ------------------------------------------------------


def _check_keys(section: str, mapping, allowed: set) -> dict:
    if mapping is None:
        return {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")
    return dict(mapping)


def load_config(path) -> dict:
    """Parse a YAML experiment config; a key that no command reads is a
    ConfigError."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    raw = _check_keys("top level", raw, set(_KNOWN))
    return {section: _check_keys(section, raw.get(section), keys)
            for section, keys in _KNOWN.items()}


def _given(cfg: dict, name: str) -> bool:
    section, _, key = name.partition(".")
    return key in cfg[section] if key else bool(cfg[section])


def _command_config(command: str, path=None, seed=None, threads=None) -> dict:
    """The config at `path` (none: empty) with the flags folded into
    `simulation`; a key or flag `command` does not read is a ConfigError."""
    cfg = load_config(path) if path else {section: {} for section in _KNOWN}
    reads = _READS[command]
    for section, mapping in cfg.items():
        unread = sorted(set(mapping) - reads.get(section, set()))
        if unread:
            raise ConfigError(f"{command} does not read "
                              + ", ".join(f"{section}.{k}" for k in unread))
    for ignored, given in _OVERRIDDEN.get(command, ()):
        if _given(cfg, ignored) and _given(cfg, given):
            raise ConfigError(f"{command} ignores {ignored} when {given} "
                              "is given")
    for flag, key, value in (("--seed", "master_seed", seed),
                             ("--threads", "threads", threads)):
        if value is not None:
            if key not in reads.get("simulation", ()):
                raise ConfigError(f"{command} does not read {flag}")
            cfg["simulation"] = {**cfg["simulation"], key: value}
    return cfg


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"{context} requires {key!r}")
    return section[key]


def resolve_model(model: dict) -> dict:
    """Canonical model block: either explicit distributions or the
    Poisson template (gamma, mu) -> H zero-truncated Poi(mu),
    G Poi(gamma - mu)."""
    has_dists = "household" in model or "global_degree" in model
    has_template = "gamma" in model or "mu" in model
    if has_dists and has_template:
        raise ConfigError(
            "model: give either household/global_degree or gamma/mu, not both")
    out = {
        "r": float(model.get("r", 0.0)),
        "n_q": int(model.get("n_q", 1)),
        "p_rw": float(model.get("p_rw", 0.0)),
    }
    if "r_grid" in model:
        out["r_grid"] = [float(x) for x in model["r_grid"]]
    if has_template:
        gamma = float(_require(model, "gamma", "template model"))
        mu = float(_require(model, "mu", "template model"))
        if not 0.0 <= mu <= gamma:
            raise ConfigError("template model needs 0 <= mu <= gamma")
        out["gamma"], out["mu"] = gamma, mu
    else:
        out["household"] = str(_require(model, "household", "model"))
        out["global_degree"] = str(_require(model, "global_degree", "model"))
    return out


def model_distributions(resolved: dict):
    if "gamma" in resolved:
        return (poisson_plus(resolved["mu"]),
                poisson(resolved["gamma"] - resolved["mu"]))
    return (parse_distribution(resolved["household"]),
            parse_distribution(resolved["global_degree"]))


def resolve_infection(infection: dict) -> dict:
    kind = infection.get("kind", "constant")
    if not isinstance(kind, str) or kind not in _INFECTION_FIELDS:
        raise ConfigError(f"unknown infection kind {kind!r}")
    fields = _INFECTION_FIELDS[kind]
    out = {"kind": kind}
    for key, default in fields.items():
        out[key] = float(_require(infection, key, f"{kind} infection")
                         if default is None else infection.get(key, default))
    extra = set(infection) - {"kind", *fields}
    if extra:
        raise ConfigError(
            f"{kind} infection does not take: {', '.join(sorted(extra))}")
    return out


def infection_spec(resolved: dict) -> InfectionSpec:
    kind = resolved["kind"]
    return getattr(InfectionSpec, kind)(
        *(resolved[key] for key in _INFECTION_FIELDS[kind]))


def resolve_simulation(sim: dict, context: str) -> dict:
    out = {
        "n": int(_require(sim, "n", context)),
        "n_sims": int(sim.get("n_sims", 1000)),
        "cutoff": float(sim.get("cutoff", 0.05)),
        "master_seed": int(sim.get("master_seed", 0)),
        "threads": int(sim.get("threads", 1)),
    }
    if out["threads"] < 1:
        raise ConfigError("simulation.threads must be >= 1")
    return out


# -- output helpers ------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "nan"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _config_header(command: str, resolved: dict) -> str:
    payload = {"command": command, **resolved}
    return "# config: " + json.dumps(payload, sort_keys=True,
                                     separators=(",", ":"))


def _write_csv(path: Path, header: str, columns, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return path


def _out_dir(cfg: dict, out_override) -> Path:
    d = Path(out_override) if out_override else Path(cfg["output"].get("dir", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _prefix(cfg: dict) -> str:
    p = cfg["output"].get("prefix", "")
    return f"{p}_" if p else ""


# -- subcommands ---------------------------------------------------------


def _analytic_row(h, g, r, n_q, p_rw, spec):
    rep = analyze(ModelParams(household=h, global_degree=g, r=r, n_q=n_q,
                              infection=spec, p_rw=p_rw))
    d = analytic_degree_dist(h, g)
    comp = degree_corr_components(h, g, r, n_q)
    c = rewired_clustering(h, g, p_rw)
    return [r, d.mean(), d.variance(), c, comp.rho, comp.p_global,
            rep.r_star, rep.p_major, rep.z]


def cmd_analyze(cfg: dict, out_override=None) -> Path:
    model = resolve_model(cfg["model"])
    infection = resolve_infection(cfg["infection"])
    h, g = model_distributions(model)
    spec = infection_spec(infection)
    r_values = model.get("r_grid", [model["r"]])
    rows = [_analytic_row(h, g, r, model["n_q"], model["p_rw"], spec)
            for r in r_values]
    resolved = {"model": model, "infection": infection}
    out = _out_dir(cfg, out_override)
    return _write_csv(
        out / f"{_prefix(cfg)}analyze.csv",
        _config_header("analyze", resolved),
        ["r", "mu_D", "var_D", "c", "rho", "p_G", "r_star", "p_maj", "z"],
        rows,
    )


def cmd_generate(cfg: dict, out_override=None):
    model = resolve_model(cfg["model"])
    h, g = model_distributions(model)
    n = int(_require(cfg["simulation"], "n", "generate"))
    seed = int(cfg["simulation"].get("master_seed", 0))
    resolved = {"model": model, "n": n, "seed": seed}
    header = _config_header("generate", resolved)

    params = ModelParams(household=h, global_degree=g, r=model["r"],
                         n_q=model["n_q"],
                         infection=InfectionSpec.constant(0.0),
                         p_rw=model["p_rw"])
    ss = np.random.SeedSequence(seed)
    s_build, s_rewire = ss.spawn(2)
    net = build_network(params.gen_spec(n), seed=s_build)
    if model["p_rw"] > 0.0:
        net = rewire(net, model["p_rw"], seed=s_rewire)

    out = _out_dir(cfg, out_override)
    net_path = out / f"{_prefix(cfg)}network.txt"
    with open(net_path, "w") as fh:
        fh.write(header + "\n")
        write_network(net, fh)

    deg = net.degrees()
    imp = net.imperfections
    row = [net.n, net.n_edges, imp.self_loops, imp.parallel_edges,
           imp.discarded_x0, imp.discarded_x1, imp.discarded_local,
           float(deg.mean()), float(deg.var()),
           empirical_clustering(net), empirical_degree_corr(net),
           rewired_clustering(h, g, model["p_rw"]),
           analytic_degree_corr(h, g, model["r"], model["n_q"])]
    props_path = _write_csv(
        out / f"{_prefix(cfg)}network_properties.csv", header,
        ["n", "n_edges", "self_loops", "parallel_edges", "discarded_x0",
         "discarded_x1", "discarded_local", "mu_D", "var_D", "c_empirical",
         "rho_empirical", "c_analytic", "rho_analytic"],
        [row],
    )
    return net_path, props_path


def cmd_simulate(cfg: dict, out_override=None):
    model = resolve_model(cfg["model"])
    infection = resolve_infection(cfg["infection"])
    sim = resolve_simulation(cfg["simulation"], "simulate")
    h, g = model_distributions(model)
    params = ModelParams(household=h, global_degree=g, r=model["r"],
                         n_q=model["n_q"], infection=infection_spec(infection),
                         p_rw=model["p_rw"])
    rep = estimate(params, n=sim["n"], n_sims=sim["n_sims"],
                   master_seed=sim["master_seed"], cutoff=sim["cutoff"],
                   threads=sim["threads"])
    resolved = {"model": model, "infection": infection, "simulation": sim}
    header = _config_header("simulate", resolved)
    out = _out_dir(cfg, out_override)
    pre = _prefix(cfg)

    runs_path = _write_csv(
        out / f"{pre}runs.csv", header,
        ["run", "seed", "final_size", "major"],
        [[k, int(rep.seeds[k]), int(rep.final_sizes[k]), bool(rep.major[k])]
         for k in range(rep.n_sims)],
    )
    if rep.has_major:
        z_hat, z_se = rep.z_hat, rep.z_se
        summary_header = header
    else:
        z_hat, z_se = float("nan"), float("nan")
        summary_header = header + "\n# no major outbreaks"
    summary_path = _write_csv(
        out / f"{pre}summary.csv", summary_header,
        ["n", "n_sims", "n_major", "cutoff_used", "p_hat", "p_se",
         "z_hat", "z_se"],
        [[rep.n, rep.n_sims, rep.n_major, rep.cutoff_used, rep.p_hat,
          rep.p_se, z_hat, z_se]],
    )
    hist = rep.histogram
    sizes = np.flatnonzero(hist)
    hist_path = _write_csv(
        out / f"{pre}histogram.csv", header,
        ["final_size", "count"],
        [[int(s), int(hist[s])] for s in sizes],
    )
    return runs_path, summary_path, hist_path


# -- canned figures ------------------------------------------------------

# fig2's and fig4's model when the config gives none
_DEFAULT_MODEL = {"household": "poisson_plus(2)",
                  "global_degree": "poisson(8)", "n_q": 10}

_BISECT_WIDTH = 1e-10


def _default_r_grid():
    return [round(x, 4) for x in np.linspace(-1.0, 1.0, 9)]


def _bisect(above, lo, hi):
    """Halve [lo, hi] until it is at most _BISECT_WIDTH wide, keeping
    `above` false at lo and true at hi (`above` is monotone)."""
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _critical_p_i(h, g, r, n_q):
    """Smallest transmission probability with threshold above one,
    by bisection (the threshold increases with p_i); the structure
    tables are built once and shared by every step."""
    structure = BranchingModel(ModelParams(
        household=h, global_degree=g, r=r, n_q=n_q,
        infection=InfectionSpec.constant(1.0)))

    def supercritical(p_i):
        model = structure.with_infection(InfectionSpec.constant(p_i))
        return model.r_star() > 1.0

    if not supercritical(1.0):
        raise ConfigError("no supercritical transmission probability exists")
    return _bisect(supercritical, 0.0, 1.0)[1]


def _mu_for_rho(gamma, rho_target, r, n_q):
    """mu with template correlation rho_target at fixed r (monotone)."""
    rho_lo = poisson_c_rho(gamma, 0.0, r, n_q)[1]
    rho_hi = poisson_c_rho(gamma, gamma, r, n_q)[1]
    if not rho_lo <= rho_target <= rho_hi:
        raise ConfigError(
            f"rho={rho_target} not attainable at r={r}: "
            f"range [{rho_lo:.6f}, {rho_hi:.6f}]")
    lo, hi = _bisect(
        lambda mu: poisson_c_rho(gamma, mu, r, n_q)[1] >= rho_target,
        0.0, gamma)
    return 0.5 * (lo + hi)


def _figure_fig2(cfg, out):
    model = resolve_model(cfg["model"] or _DEFAULT_MODEL)
    infection = resolve_infection(cfg["infection"] or {"p_i": 0.2})
    sim = resolve_simulation({"n": 10_000, **cfg["simulation"]}, "fig2")
    r_grid = [float(x) for x in cfg["figure"].get(
        "r_grid", model.get("r_grid", _default_r_grid()))]
    h, g = model_distributions(model)
    spec = infection_spec(infection)
    rows = []
    for r in r_grid:
        params = ModelParams(household=h, global_degree=g, r=r,
                             n_q=model["n_q"], infection=spec,
                             p_rw=model["p_rw"])
        rep = analyze(params)
        c = rewired_clustering(h, g, model["p_rw"])
        rho = analytic_degree_corr(h, g, r, model["n_q"])
        est = estimate(params, n=sim["n"], n_sims=sim["n_sims"],
                       master_seed=sim["master_seed"], cutoff=sim["cutoff"],
                       threads=sim["threads"])
        z_hat = est.z_hat if est.has_major else float("nan")
        z_se = est.z_se if est.has_major else float("nan")
        rows.append([r, c, rho, rep.r_star, rep.p_major, rep.z,
                     est.p_hat, est.p_se, z_hat, z_se, est.n_major])
    resolved = {"figure": {"name": "fig2", "r_grid": r_grid},
                "model": model, "infection": infection, "simulation": sim}
    return _write_csv(
        out / f"{_prefix(cfg)}fig2.csv", _config_header("figure", resolved),
        ["r", "c", "rho", "r_star", "p_maj", "z",
         "p_hat", "p_se", "z_hat", "z_se", "n_major"],
        rows,
    )


def _figure_fig3(cfg, out):
    fig = cfg["figure"]
    gamma = float(fig.get("gamma", 10.0))
    n_q = int(fig.get("n_q", 10))
    mu_grid = [float(x) for x in fig.get("mu_grid", [0.1, 2.0, 4.0, 6.0])]
    r_grid = [float(x) for x in fig.get("r_grid", _default_r_grid())]
    factors = [float(x) for x in fig.get("p_i_factors",
                                         [1.05, 1.5, 2.5, 4.0])]
    rows = []
    for mu in mu_grid:
        h, g = poisson_plus(mu), poisson(gamma - mu)
        # the flattest supercritical line: just above the critical p_i of
        # the hardest r on the grid
        p_base = max(_critical_p_i(h, g, r, n_q) for r in r_grid)
        for factor in factors:
            p_i = min(1.0, factor * p_base)
            spec = InfectionSpec.constant(p_i)
            for r in r_grid:
                rep = analyze(ModelParams(household=h, global_degree=g, r=r,
                                          n_q=n_q, infection=spec))
                c, rho = poisson_c_rho(gamma, mu, r, n_q)
                rows.append([mu, factor, p_i, r, c, rho,
                             rep.r_star, rep.p_major, rep.z])
    resolved = {"figure": {"name": "fig3", "gamma": gamma, "n_q": n_q,
                           "mu_grid": mu_grid, "r_grid": r_grid,
                           "p_i_factors": factors}}
    return _write_csv(
        out / f"{_prefix(cfg)}fig3.csv", _config_header("figure", resolved),
        ["mu", "p_i_factor", "p_i", "r", "c", "rho", "r_star", "p_maj", "z"],
        rows,
    )


def _figure_fig4(cfg, out):
    fig = cfg["figure"]
    p_i_grid = [float(x) for x in fig.get("p_i_grid",
                                          [0.102, 0.103, 0.104, 0.105])]
    r_grid = [float(x) for x in fig.get("r_grid", _default_r_grid())]
    model = resolve_model(cfg["model"]
                          or {**_DEFAULT_MODEL, "n_q": fig.get("n_q", 10)})
    h, g = model_distributions(model)
    rows = []
    for p_i in p_i_grid:
        spec = InfectionSpec.constant(p_i)
        for r in r_grid:
            rep = analyze(ModelParams(household=h, global_degree=g, r=r,
                                      n_q=model["n_q"], infection=spec,
                                      p_rw=model["p_rw"]))
            rows.append([p_i, r, rep.r_star, rep.p_major, rep.z])
    resolved = {"figure": {"name": "fig4", "p_i_grid": p_i_grid,
                           "r_grid": r_grid}, "model": model}
    return _write_csv(
        out / f"{_prefix(cfg)}fig4.csv", _config_header("figure", resolved),
        ["p_i", "r", "r_star", "p_maj", "z"],
        rows,
    )


def _figure_fig5(cfg, out):
    fig = cfg["figure"]
    gamma = float(fig.get("gamma", 10.0))
    n_q = int(fig.get("n_q", 10))
    p_i = float(fig.get("p_i", 0.15))
    rho_target = float(fig.get("rho", 0.2))
    p_rw_grid = [float(x) for x in fig.get("p_rw_grid",
                                           [0.0, 0.2, 0.4, 0.6, 0.8])]
    spec = InfectionSpec.constant(p_i)

    # base template: most negative correlation structure that still hits
    # rho_target; rewiring then dilutes clustering at constant rho
    mu_base = _mu_for_rho(gamma, rho_target, -1.0, n_q)
    c_base = poisson_c_rho(gamma, mu_base, -1.0, n_q)[0]

    rows = []
    for p_rw in p_rw_grid:
        c_target = (1.0 - p_rw) * c_base
        rep = analyze(ModelParams(household=poisson_plus(mu_base),
                                  global_degree=poisson(gamma - mu_base),
                                  r=-1.0, n_q=n_q, infection=spec, p_rw=p_rw))
        rows.append(["rewired", c_target, rho_target, mu_base, -1.0, p_rw,
                     rep.r_star, rep.p_major, rep.z])
        tuned = tune_poisson(gamma, c_target, rho_target, n_q)
        rep_u = analyze(ModelParams(household=poisson_plus(tuned.mu),
                                    global_degree=poisson(gamma - tuned.mu),
                                    r=tuned.r, n_q=n_q, infection=spec))
        rows.append(["unrewired", tuned.c, tuned.rho, tuned.mu, tuned.r, 0.0,
                     rep_u.r_star, rep_u.p_major, rep_u.z])
    resolved = {"figure": {"name": "fig5", "gamma": gamma, "n_q": n_q,
                           "p_i": p_i, "rho": rho_target,
                           "p_rw_grid": p_rw_grid,
                           "mu_base": mu_base, "c_base": c_base}}
    return _write_csv(
        out / f"{_prefix(cfg)}fig5.csv", _config_header("figure", resolved),
        ["branch", "c", "rho", "mu", "r", "p_rw", "r_star", "p_maj", "z"],
        rows,
    )


def cmd_figure(name: str, cfg: dict, out_override=None) -> Path:
    if name not in FIGURE_NAMES:
        raise ConfigError(
            f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
    make = {"fig2": _figure_fig2, "fig3": _figure_fig3,
            "fig4": _figure_fig4, "fig5": _figure_fig5}[name]
    return make(cfg, _out_dir(cfg, out_override))


def cmd_tune(cfg: dict, out_override=None) -> Path:
    tune = cfg["tune"]
    gamma = float(_require(tune, "gamma", "tune"))
    c_target = float(_require(tune, "c", "tune"))
    rho_target = float(_require(tune, "rho", "tune"))
    n_q = int(tune.get("n_q", 1))
    res = tune_poisson(gamma, c_target, rho_target, n_q)
    resolved = {"tune": {"gamma": gamma, "c": c_target, "rho": rho_target,
                         "n_q": n_q}}
    out = _out_dir(cfg, out_override)
    path = _write_csv(
        out / f"{_prefix(cfg)}tune.csv", _config_header("tune", resolved),
        ["gamma", "n_q", "c_target", "rho_target", "mu", "r", "c", "rho"],
        [[gamma, n_q, c_target, rho_target, res.mu, res.r, res.c, res.rho]],
    )
    print(f"mu={_fmt(res.mu)} r={_fmt(res.r)} "
          f"(c={_fmt(res.c)}, rho={_fmt(res.rho)})")
    return path


# -- entry point ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netepi",
        description="Clustered-network epidemic analytics and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="YAML experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="set simulation.master_seed "
                            "(generate, simulate, fig2)")
        p.add_argument("--threads", type=int, default=None,
                       help="set simulation.threads (simulate, fig2)")

    common(sub.add_parser("analyze", help="analytic quantities per r value"))
    common(sub.add_parser("generate", help="build and write one network"))
    common(sub.add_parser("simulate", help="Monte Carlo outbreak estimates"))
    fig = sub.add_parser("figure", help="canned parameter sweeps")
    fig.add_argument("name", choices=FIGURE_NAMES)
    common(fig, config_required=False)
    common(sub.add_parser("tune", help="hit clustering/correlation targets"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.name if args.command == "figure" else args.command
    try:
        cfg = _command_config(command, args.config, args.seed, args.threads)
        if args.command == "figure":
            cmd_figure(command, cfg, args.out)
        else:
            {"analyze": cmd_analyze, "generate": cmd_generate,
             "simulate": cmd_simulate, "tune": cmd_tune}[command](cfg, args.out)
    except (NetepiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
