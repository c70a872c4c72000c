"""Experiment runner: config files, subcommands, CSV outputs.

Configs are YAML with sections `model`, `infection`, `simulation`,
`output`, `tune` and `figure`; unknown keys anywhere are rejected so a
typo cannot silently change an experiment.  Every output file starts
with a `# config:` comment carrying the fully resolved configuration as
sorted JSON; re-running with the same resolved config reproduces the
file bit for bit.

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

_TOP_KEYS = {"model", "infection", "simulation", "output", "tune", "figure"}
_MODEL_KEYS = {"household", "global_degree", "gamma", "mu", "r", "r_grid",
               "n_q", "p_rw"}
_INFECTION_KEYS = {"kind", "p_i", "rate", "mean", "shape", "scale"}
_SIMULATION_KEYS = {"n", "n_sims", "cutoff", "master_seed", "threads"}
_OUTPUT_KEYS = {"dir", "prefix"}
_TUNE_KEYS = {"gamma", "n_q", "c", "rho"}
_FIGURE_KEYS = {"name", "r_grid", "mu_grid", "p_i_grid", "p_i_factors",
                "p_rw_grid", "rho", "gamma", "n_q", "p_i"}

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")


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
    """Parse and structurally validate a YAML experiment config."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    return {
        "model": _check_keys("model", raw.get("model"), _MODEL_KEYS),
        "infection": _check_keys("infection", raw.get("infection"),
                                 _INFECTION_KEYS),
        "simulation": _check_keys("simulation", raw.get("simulation"),
                                  _SIMULATION_KEYS),
        "output": _check_keys("output", raw.get("output"), _OUTPUT_KEYS),
        "tune": _check_keys("tune", raw.get("tune"), _TUNE_KEYS),
        "figure": _check_keys("figure", raw.get("figure"), _FIGURE_KEYS),
    }


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
    if kind == "constant":
        p_i = float(_require(infection, "p_i", "constant infection"))
        extra = set(infection) - {"kind", "p_i"}
        if extra:
            raise ConfigError(
                f"constant infection does not take: {', '.join(sorted(extra))}")
        return {"kind": "constant", "p_i": p_i}
    if kind == "exponential":
        out = {"kind": "exponential",
               "rate": float(_require(infection, "rate", "exponential infection")),
               "mean": float(infection.get("mean", 1.0))}
        extra = set(infection) - {"kind", "rate", "mean"}
    elif kind == "gamma":
        out = {"kind": "gamma",
               "rate": float(_require(infection, "rate", "gamma infection")),
               "shape": float(_require(infection, "shape", "gamma infection")),
               "scale": float(infection.get("scale", 1.0))}
        extra = set(infection) - {"kind", "rate", "shape", "scale"}
    else:
        raise ConfigError(f"unknown infection kind {kind!r}")
    if extra:
        raise ConfigError(
            f"{kind} infection does not take: {', '.join(sorted(extra))}")
    return out


def infection_spec(resolved: dict) -> InfectionSpec:
    if resolved["kind"] == "constant":
        return InfectionSpec.constant(resolved["p_i"])
    if resolved["kind"] == "exponential":
        return InfectionSpec.exponential(resolved["rate"], resolved["mean"])
    return InfectionSpec.gamma(resolved["rate"], resolved["shape"],
                               resolved["scale"])


def resolve_simulation(sim: dict, context: str, seed_override=None,
                       threads_override=None) -> dict:
    out = {
        "n": int(_require(sim, "n", context)),
        "n_sims": int(sim.get("n_sims", 1000)),
        "cutoff": float(sim.get("cutoff", 0.05)),
        "master_seed": int(sim.get("master_seed", 0)),
        "threads": int(sim.get("threads", 1)),
    }
    if seed_override is not None:
        out["master_seed"] = int(seed_override)
    if threads_override is not None:
        out["threads"] = int(threads_override)
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


def _model_params(n=None, **fields) -> ModelParams:
    """ModelParams from config values, and with n given the GenSpec of an
    n-node network too; a value either one rejects is a ConfigError."""
    try:
        params = ModelParams(**fields)
        if n is not None:
            params.gen_spec(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params


def _analytic_row(h, g, r, n_q, p_rw, spec):
    params = _model_params(household=h, global_degree=g, r=r, n_q=n_q,
                           infection=spec, p_rw=p_rw)
    rep = analyze(params)
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


def cmd_generate(cfg: dict, out_override=None, seed_override=None):
    model = resolve_model(cfg["model"])
    if "r_grid" in model:
        raise ConfigError("generate builds a single network; use r, not r_grid")
    h, g = model_distributions(model)
    n = int(_require(cfg["simulation"], "n", "generate"))
    seed = int(seed_override if seed_override is not None
               else cfg["simulation"].get("master_seed", 0))
    resolved = {"model": model, "n": n, "seed": seed}
    header = _config_header("generate", resolved)

    params = _model_params(n=n, household=h, global_degree=g, r=model["r"],
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


def cmd_simulate(cfg: dict, out_override=None, seed_override=None,
                 threads_override=None):
    model = resolve_model(cfg["model"])
    if "r_grid" in model:
        raise ConfigError("simulate runs a single point; use r, not r_grid")
    infection = resolve_infection(cfg["infection"])
    sim = resolve_simulation(cfg["simulation"], "simulate",
                             seed_override, threads_override)
    h, g = model_distributions(model)
    params = _model_params(n=sim["n"], household=h, global_degree=g,
                           r=model["r"], n_q=model["n_q"],
                           infection=infection_spec(infection),
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


def _default_r_grid():
    return [round(x, 4) for x in np.linspace(-1.0, 1.0, 9)]


def _critical_p_i(h, g, r, n_q, p_rw=0.0, tol=1e-10):
    """Smallest transmission probability with threshold above one,
    by bisection (the threshold increases with p_i); the structure
    tables are built once and shared by every step."""
    lo, hi = 0.0, 1.0
    params = _model_params(household=h, global_degree=g, r=r, n_q=n_q,
                           infection=InfectionSpec.constant(1.0), p_rw=p_rw)
    structure = BranchingModel(params)

    def supercritical(p_i):
        model = structure.with_infection(InfectionSpec.constant(p_i))
        return model.r_star() > 1.0

    if not supercritical(1.0):
        raise ConfigError("no supercritical transmission probability exists")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if supercritical(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _mu_for_rho(gamma, rho_target, r, n_q, tol=1e-10):
    """mu with template correlation rho_target at fixed r (monotone)."""
    lo, hi = 0.0, gamma
    rho_lo = poisson_c_rho(gamma, lo, r, n_q)[1]
    rho_hi = poisson_c_rho(gamma, hi, r, n_q)[1]
    if not rho_lo <= rho_target <= rho_hi:
        raise ConfigError(
            f"rho={rho_target} not attainable at r={r}: "
            f"range [{rho_lo:.6f}, {rho_hi:.6f}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if poisson_c_rho(gamma, mid, r, n_q)[1] < rho_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _figure_fig2(cfg, out, seed_override, threads_override):
    fig = cfg["figure"]
    model = resolve_model(cfg["model"]) if cfg["model"] else {
        "household": "poisson_plus(2)", "global_degree": "poisson(8)",
        "r": 0.0, "n_q": 10, "p_rw": 0.0}
    infection = (resolve_infection(cfg["infection"]) if cfg["infection"]
                 else {"kind": "constant", "p_i": 0.2})
    sim_cfg = dict(cfg["simulation"])
    sim_cfg.setdefault("n", 10_000)
    sim = resolve_simulation(sim_cfg, "fig2", seed_override, threads_override)
    r_grid = [float(x) for x in fig.get("r_grid",
                                        model.get("r_grid", _default_r_grid()))]
    h, g = model_distributions(model)
    spec = infection_spec(infection)
    rows = []
    for r in r_grid:
        params = _model_params(n=sim["n"], household=h, global_degree=g,
                               r=r, n_q=model["n_q"], infection=spec,
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
                params = _model_params(household=h, global_degree=g, r=r,
                                       n_q=n_q, infection=spec)
                rep = analyze(params)
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
    n_q = int(fig.get("n_q", 10))
    p_i_grid = [float(x) for x in fig.get("p_i_grid",
                                          [0.102, 0.103, 0.104, 0.105])]
    r_grid = [float(x) for x in fig.get("r_grid", _default_r_grid())]
    model = resolve_model(cfg["model"]) if cfg["model"] else {
        "household": "poisson_plus(2)", "global_degree": "poisson(8)",
        "r": 0.0, "n_q": n_q, "p_rw": 0.0}
    h, g = model_distributions(model)
    rows = []
    for p_i in p_i_grid:
        spec = InfectionSpec.constant(p_i)
        for r in r_grid:
            params = _model_params(household=h, global_degree=g, r=r,
                                   n_q=model["n_q"], infection=spec,
                                   p_rw=model["p_rw"])
            rep = analyze(params)
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
        rew = _model_params(household=poisson_plus(mu_base),
                            global_degree=poisson(gamma - mu_base), r=-1.0,
                            n_q=n_q, infection=spec, p_rw=p_rw)
        rep = analyze(rew)
        rows.append(["rewired", c_target, rho_target, mu_base, -1.0, p_rw,
                     rep.r_star, rep.p_major, rep.z])
        tuned = tune_poisson(gamma, c_target, rho_target, n_q)
        unrew = ModelParams(household=poisson_plus(tuned.mu),
                            global_degree=poisson(gamma - tuned.mu),
                            r=tuned.r, n_q=n_q, infection=spec)
        rep_u = analyze(unrew)
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


def cmd_figure(name: str, cfg: dict, out_override=None, seed_override=None,
               threads_override=None) -> Path:
    if name not in FIGURE_NAMES:
        raise ConfigError(
            f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
    out = _out_dir(cfg, out_override)
    if name == "fig2":
        return _figure_fig2(cfg, out, seed_override, threads_override)
    if name == "fig3":
        return _figure_fig3(cfg, out)
    if name == "fig4":
        return _figure_fig4(cfg, out)
    return _figure_fig5(cfg, out)


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
                       help="override simulation.master_seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override simulation.threads")

    common(sub.add_parser("analyze", help="analytic quantities per r value"))
    common(sub.add_parser("generate", help="build and write one network"))
    common(sub.add_parser("simulate", help="Monte Carlo outbreak estimates"))
    fig = sub.add_parser("figure", help="canned parameter sweeps")
    fig.add_argument("name", choices=FIGURE_NAMES)
    common(fig, config_required=False)
    common(sub.add_parser("tune", help="hit clustering/correlation targets"))
    return parser


_EMPTY_CONFIG = {key: {} for key in _TOP_KEYS}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else dict(_EMPTY_CONFIG)
        if args.command == "analyze":
            cmd_analyze(cfg, args.out)
        elif args.command == "generate":
            cmd_generate(cfg, args.out, args.seed)
        elif args.command == "simulate":
            cmd_simulate(cfg, args.out, args.seed, args.threads)
        elif args.command == "figure":
            cmd_figure(args.name, cfg, args.out, args.seed, args.threads)
        elif args.command == "tune":
            cmd_tune(cfg, args.out)
    except NetepiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
