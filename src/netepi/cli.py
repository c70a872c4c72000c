"""Experiment runner: config files, subcommands, CSV outputs.

Configs are YAML with sections `model`, `infection`, `simulation`,
`output`, `tune` and `figure`.  The table `_KEYS` gives each key its kind,
default and readers.  Loading rejects a key that no command reads; each
command rejects a key or `--seed`/`--threads` flag (which set
`simulation.master_seed` and `simulation.threads`) it does not read, and a
value of the wrong kind, naming the key.  `main` turns these, any package
error and a value outside its domain (`ValueError`) into `error: ...` and
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
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from .branching import (ModelParams, analyze, critical_p_i, mu_for_rho,
                        tune_poisson)
from .distributions import InfectionSpec, parse_distribution, poisson, poisson_plus
from .errors import ConfigError, Infeasible, NetepiError
from .netgen import GenSpec, build_network, rewire, write_network
from .netprops import (
    analytic_degree_corr,
    analytic_degree_dist,
    degree_corr_components,
    empirical_clustering,
    empirical_degree_corr,
    poisson_c_rho,
    rewired_clustering,
)
from .simulate import DEFAULT_CUTOFF, estimate

REQUIRED = object()  # a config table default: the key must be given

_GRID = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
_ALL = "analyze generate simulate tune fig2 fig3 fig4 fig5"

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")


# -- value kinds: each takes (section.key, value) and returns the typed
# value or raises a ConfigError naming the key ----------------------------


def _real(name: str, value) -> float:
    # PyYAML reads 1e-3 (no dot) as the string "1e-3", which float() takes
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite real, not {value!r}")
    return x


def _integer(lo: int):
    # integers >= lo; an integral float such as 10.0 counts
    def kind(name: str, value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, not {value!r}")
        if value < lo:
            raise ConfigError(f"{name} must be >= {lo}")
        return value
    return kind


def _reals(name: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, not {value!r}")
    if not value:
        raise ConfigError(f"{name} must not be empty")
    return [_real(f"{name}[{i}]", x) for i, x in enumerate(value)]


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be text, not {value!r}")
    return value


def _infection_kind(name: str, value) -> str:
    if value not in ("constant", "exponential", "gamma"):
        raise ConfigError(f"{name} must be constant, exponential or gamma, "
                          f"not {value!r}")
    return value


# The config table, section.key: (kind, default, the commands that read
# it).  A default of REQUIRED makes the key required, None leaves it out
# unless given, and a dict gives per-command defaults (REQUIRED for the
# commands it does not name).  The model takes household/global_degree or
# the template gamma/mu (H zero-truncated Poi(mu), G Poi(gamma - mu)); an
# infection of each kind takes the parameters of its InfectionSpec
# constructor.
_MODEL_READERS = "analyze generate simulate fig2 fig4"
_KEYS = {
    "model.household": (_text, REQUIRED, _MODEL_READERS),
    "model.global_degree": (_text, REQUIRED, _MODEL_READERS),
    "model.gamma": (_real, REQUIRED, _MODEL_READERS),
    "model.mu": (_real, REQUIRED, _MODEL_READERS),
    "model.r": (_real, 0.0, "analyze generate simulate"),
    "model.r_grid": (_reals, None, "analyze fig2"),
    "model.n_q": (_integer(1), 1, _MODEL_READERS),
    "model.p_rw": (_real, 0.0, _MODEL_READERS),
    "infection.kind": (_infection_kind, "constant", "analyze simulate fig2"),
    "infection.p_i": (_real, REQUIRED, "analyze simulate fig2"),
    "infection.rate": (_real, REQUIRED, "analyze simulate fig2"),
    "infection.mean": (_real, 1.0, "analyze simulate fig2"),
    "infection.shape": (_real, REQUIRED, "analyze simulate fig2"),
    "infection.scale": (_real, 1.0, "analyze simulate fig2"),
    "simulation.n": (_integer(1), {"fig2": 10_000}, "generate simulate fig2"),
    "simulation.n_sims": (_integer(1), 1000, "simulate fig2"),
    "simulation.cutoff": (_real, DEFAULT_CUTOFF, "simulate fig2"),
    "simulation.master_seed": (_integer(0), 0, "generate simulate fig2"),
    "simulation.threads": (_integer(1), 1, "simulate fig2"),
    "output.dir": (_text, ".", _ALL),
    "output.prefix": (_text, "", _ALL),
    "tune.gamma": (_real, REQUIRED, "tune"),
    "tune.n_q": (_integer(1), 1, "tune"),
    "tune.c": (_real, REQUIRED, "tune"),
    "tune.rho": (_real, REQUIRED, "tune"),
    "figure.r_grid": (_reals, _GRID, "fig2 fig3 fig4"),
    "figure.mu_grid": (_reals, [0.1, 2.0, 4.0, 6.0], "fig3"),
    "figure.p_i_factors": (_reals, [1.05, 1.5, 2.5, 4.0], "fig3"),
    "figure.p_i_grid": (_reals, [0.102, 0.103, 0.104, 0.105], "fig4"),
    "figure.p_rw_grid": (_reals, [0.0, 0.2, 0.4, 0.6, 0.8], "fig5"),
    "figure.gamma": (_real, 10.0, "fig3 fig5"),
    "figure.n_q": (_integer(1), 10, "fig3 fig4 fig5"),
    "figure.p_i": (_real, 0.15, "fig5"),
    "figure.rho": (_real, 0.2, "fig5"),
}


# (section, key, readers) of each row; then section -> its keys and
# command -> section -> the keys it reads there, in table order
_ROWS = [(*name.split("."), readers.split())
         for name, (_, _, readers) in _KEYS.items()]
_KNOWN = {s: [key for t, key, _ in _ROWS if t == s] for s, _, _ in _ROWS}
_READS = {c: {s: [key for t, key, readers in _ROWS if t == s and c in readers]
              for s in _KNOWN} for c in _ALL.split()}

# the model of fig2 and fig4 when the config has no model section
_DEFAULT_MODEL = {"household": "poisson_plus(2)",
                  "global_degree": "poisson(8)", "n_q": 10}

# (ignored, given): a command ignores the first setting when the second
# (a key, or a whole section) is given
_OVERRIDDEN = {"analyze": [("model.r", "model.r_grid")],
               "fig2": [("model.r_grid", "figure.r_grid")],
               "fig4": [("figure.n_q", "model")]}


# -- config loading ------------------------------------------------------


def _check_keys(section: str, mapping, allowed) -> dict:
    if mapping is None:
        return {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = sorted(set(mapping).difference(allowed))
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
    raw = _check_keys("top level", raw, _KNOWN)
    return {section: _check_keys(section, raw.get(section), keys)
            for section, keys in _KNOWN.items()}


def _given(cfg: dict, name: str) -> bool:
    section, _, key = name.partition(".")
    return key in cfg[section] if key else bool(cfg[section])


def _command_config(command: str, path=None, seed=None, threads=None) -> dict:
    """The config at `path` (none: empty) with the flags folded into
    `simulation`, resolved for `command`; a key or flag `command` does not
    read, or an ill-typed value, is a ConfigError."""
    cfg = load_config(path) if path else {section: {} for section in _KNOWN}
    reads = _READS[command]
    for section, mapping in cfg.items():
        unread = sorted(set(mapping).difference(reads.get(section, ())))
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
    return _typed(command, cfg)


def _resolve(section: str, given: dict, keys, command=None) -> dict:
    """The typed values of `keys` of `section`: each given value checked
    by its kind, each missing one its default for `command`."""
    out = {}
    for key in keys:
        name = f"{section}.{key}"
        kind, default, _ = _KEYS[name]
        if isinstance(default, dict):
            default = default.get(command, REQUIRED)
        if key in given:
            out[key] = kind(name, given[key])
        elif default is REQUIRED:
            raise ConfigError(f"{name} is required")
        elif default is not None:
            out[key] = kind(name, default)
    return out


def _typed(command: str, cfg: dict) -> dict:
    """Each section `command` reads, typed and with its defaults; the
    model and infection go through resolve_model and resolve_infection."""
    reads = _READS[command]
    typed = {section: _resolve(section, cfg[section], keys, command)
             for section, keys in reads.items()
             if keys and section not in ("model", "infection")}
    if command in ("fig2", "fig4"):
        # the model, and fig2's infection, when the config has none
        model = dict(_DEFAULT_MODEL)
        if command == "fig4":
            model["n_q"] = typed["figure"]["n_q"]
        cfg = {**cfg, "model": cfg["model"] or model,
               "infection": cfg["infection"] or {"p_i": 0.2}}
    for section, resolve in (("model", resolve_model),
                             ("infection", resolve_infection)):
        if reads[section]:
            typed[section] = resolve(cfg[section])
    return typed


def resolve_model(model: dict) -> dict:
    """Canonical model block: either explicit distributions or the
    Poisson template (gamma, mu)."""
    template = "gamma" in model or "mu" in model
    if template and ("household" in model or "global_degree" in model):
        raise ConfigError(
            "model: give either household/global_degree or gamma/mu, not both")
    other = ("household", "global_degree") if template else ("gamma", "mu")
    out = _resolve("model", model,
                   [key for key in _KNOWN["model"] if key not in other])
    if template and not 0.0 <= out["mu"] <= out["gamma"]:
        raise ConfigError("template model needs 0 <= mu <= gamma")
    return out


def model_distributions(resolved: dict):
    if "gamma" in resolved:
        return (poisson_plus(resolved["mu"]),
                poisson(resolved["gamma"] - resolved["mu"]))
    return (parse_distribution(resolved["household"]),
            parse_distribution(resolved["global_degree"]))


def resolve_infection(infection: dict) -> dict:
    kind = _resolve("infection", infection, ["kind"])["kind"]
    fields = list(inspect.signature(getattr(InfectionSpec, kind)).parameters)
    extra = set(infection) - {"kind", *fields}
    if extra:
        raise ConfigError(
            f"{kind} infection does not take: {', '.join(sorted(extra))}")
    return {"kind": kind, **_resolve("infection", infection, fields)}


def infection_spec(resolved: dict) -> InfectionSpec:
    fields = {key: value for key, value in resolved.items() if key != "kind"}
    return getattr(InfectionSpec, resolved["kind"])(**fields)


# -- output helpers ------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_, int, np.integer)):
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


def _output(cfg: dict, out_override):
    """The path of an output file: the prefix and the file name in the
    output directory (`out_override` if given), made on first use."""
    directory = Path(out_override or cfg["output"]["dir"])
    prefix = f"{cfg['output']['prefix']}_" if cfg["output"]["prefix"] else ""

    def path(name: str) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        return directory / f"{prefix}{name}"
    return path


def _write_csv(path: Path, header: str, columns, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return path


# -- subcommands ---------------------------------------------------------


def _analytic_row(p: ModelParams):
    h, g, r, n_q, p_rw = p.household, p.global_degree, p.r, p.n_q, p.p_rw
    rep = analyze(p)
    d = analytic_degree_dist(h, g)
    comp = degree_corr_components(h, g, r, n_q)
    c = rewired_clustering(h, g, p_rw)
    return [r, d.mean(), d.variance(), c, comp.rho, comp.p_global,
            rep.r_star, rep.p_major, rep.z]


def cmd_analyze(cfg: dict, out_override=None) -> Path:
    model, infection = cfg["model"], cfg["infection"]
    path = _output(cfg, out_override)
    h, g = model_distributions(model)
    spec = infection_spec(infection)
    rows = [_analytic_row(ModelParams(household=h, global_degree=g, r=r,
                                      n_q=model["n_q"], infection=spec,
                                      p_rw=model["p_rw"]))
            for r in model.get("r_grid", [model["r"]])]
    resolved = {"model": model, "infection": infection}
    return _write_csv(
        path("analyze.csv"), _config_header("analyze", resolved),
        ["r", "mu_D", "var_D", "c", "rho", "p_G", "r_star", "p_maj", "z"],
        rows,
    )


def cmd_generate(cfg: dict, out_override=None):
    model, sim = cfg["model"], cfg["simulation"]
    path = _output(cfg, out_override)
    h, g = model_distributions(model)
    header = _config_header("generate", {"model": model, "n": sim["n"],
                                         "seed": sim["master_seed"]})

    spec = GenSpec(n=sim["n"], household=h, global_degree=g, r=model["r"],
                   n_q=model["n_q"])
    # rewire checks p_rw only once the network is built
    c_analytic = rewired_clustering(h, g, model["p_rw"])
    s_build, s_rewire = np.random.SeedSequence(sim["master_seed"]).spawn(2)
    net = build_network(spec, seed=s_build)
    if model["p_rw"] > 0.0:
        net = rewire(net, model["p_rw"], seed=s_rewire)

    net_path = path("network.txt")
    with open(net_path, "w") as fh:
        fh.write(header + "\n")
        write_network(net, fh)

    deg = net.degrees()
    imp = net.imperfections
    row = [net.n, net.n_edges, imp.self_loops, imp.parallel_edges,
           imp.discarded_x0, imp.discarded_x1, imp.discarded_local,
           float(deg.mean()), float(deg.var()),
           empirical_clustering(net), empirical_degree_corr(net), c_analytic,
           analytic_degree_corr(h, g, model["r"], model["n_q"])]
    props_path = _write_csv(
        path("network_properties.csv"), header,
        ["n", "n_edges", "self_loops", "parallel_edges", "discarded_x0",
         "discarded_x1", "discarded_local", "mu_D", "var_D", "c_empirical",
         "rho_empirical", "c_analytic", "rho_analytic"],
        [row],
    )
    return net_path, props_path


def cmd_simulate(cfg: dict, out_override=None):
    model, infection, sim = cfg["model"], cfg["infection"], cfg["simulation"]
    path = _output(cfg, out_override)
    h, g = model_distributions(model)
    params = ModelParams(household=h, global_degree=g, r=model["r"],
                         n_q=model["n_q"], infection=infection_spec(infection),
                         p_rw=model["p_rw"])
    rep = estimate(params, n=sim["n"], n_sims=sim["n_sims"],
                   master_seed=sim["master_seed"], cutoff=sim["cutoff"],
                   threads=sim["threads"])
    resolved = {"model": model, "infection": infection, "simulation": sim}
    header = _config_header("simulate", resolved)

    runs_path = _write_csv(
        path("runs.csv"), header,
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
        path("summary.csv"), summary_header,
        ["n", "n_sims", "n_major", "cutoff_used", "p_hat", "p_se",
         "z_hat", "z_se"],
        [[rep.n, rep.n_sims, rep.n_major, rep.cutoff_used, rep.p_hat,
          rep.p_se, z_hat, z_se]],
    )
    hist = rep.histogram
    sizes = np.flatnonzero(hist)
    hist_path = _write_csv(
        path("histogram.csv"), header,
        ["final_size", "count"],
        [[int(s), int(hist[s])] for s in sizes],
    )
    return runs_path, summary_path, hist_path


# -- canned figures ------------------------------------------------------

# each figure takes the typed config and returns (resolved config, columns,
# rows)


def _figure_fig2(cfg):
    model, infection, sim = cfg["model"], cfg["infection"], cfg["simulation"]
    r_grid = model.get("r_grid", cfg["figure"]["r_grid"])
    h, g = model_distributions(model)
    spec = infection_spec(infection)
    c = rewired_clustering(h, g, model["p_rw"])
    rows = []
    for r in r_grid:
        params = ModelParams(household=h, global_degree=g, r=r,
                             n_q=model["n_q"], infection=spec,
                             p_rw=model["p_rw"])
        rep = analyze(params)
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
    return resolved, ["r", "c", "rho", "r_star", "p_maj", "z",
                      "p_hat", "p_se", "z_hat", "z_se", "n_major"], rows


def _figure_fig3(cfg):
    fig = cfg["figure"]
    gamma, n_q = fig["gamma"], fig["n_q"]
    rows = []
    for mu in fig["mu_grid"]:
        h, g = poisson_plus(mu), poisson(gamma - mu)
        # the flattest supercritical line: just above the critical p_i of
        # the hardest r on the grid
        try:
            p_base = critical_p_i(h, g, fig["r_grid"], n_q)
        except Infeasible as exc:
            raise ConfigError(f"fig3 at mu={mu}: {exc}") from None
        c_rho = [poisson_c_rho(gamma, mu, r, n_q) for r in fig["r_grid"]]
        for factor in fig["p_i_factors"]:
            p_i = min(1.0, factor * p_base)
            spec = InfectionSpec.constant(p_i)
            for r, (c, rho) in zip(fig["r_grid"], c_rho):
                rep = analyze(ModelParams(h, g, r, n_q, spec))
                rows.append([mu, factor, p_i, r, c, rho,
                             rep.r_star, rep.p_major, rep.z])
    return ({"figure": {"name": "fig3", **fig}},
            ["mu", "p_i_factor", "p_i", "r", "c", "rho", "r_star", "p_maj",
             "z"], rows)


def _figure_fig4(cfg):
    fig, model = cfg["figure"], cfg["model"]
    h, g = model_distributions(model)
    rows = []
    for p_i in fig["p_i_grid"]:
        spec = InfectionSpec.constant(p_i)
        for r in fig["r_grid"]:
            rep = analyze(ModelParams(h, g, r, model["n_q"], spec,
                                      model["p_rw"]))
            rows.append([p_i, r, rep.r_star, rep.p_major, rep.z])
    resolved = {"figure": {"name": "fig4", "p_i_grid": fig["p_i_grid"],
                           "r_grid": fig["r_grid"]}, "model": model}
    return resolved, ["p_i", "r", "r_star", "p_maj", "z"], rows


def _figure_fig5(cfg):
    fig = cfg["figure"]
    gamma, n_q, rho_target = fig["gamma"], fig["n_q"], fig["rho"]
    spec = InfectionSpec.constant(fig["p_i"])

    # base template: most negative correlation structure that still hits
    # rho_target; rewiring then dilutes clustering at constant rho
    mu_base = mu_for_rho(gamma, rho_target, n_q)
    c_base = poisson_c_rho(gamma, mu_base, -1.0, n_q)[0]

    h_base, g_base = poisson_plus(mu_base), poisson(gamma - mu_base)
    rows = []
    for p_rw in fig["p_rw_grid"]:
        c_target = (1.0 - p_rw) * c_base
        # rewiring reaches only the household laws, so the rewired rows
        # share one structure
        rep = analyze(ModelParams(h_base, g_base, -1.0, n_q, spec, p_rw))
        rows.append(["rewired", c_target, rho_target, mu_base, -1.0, p_rw,
                     rep.r_star, rep.p_major, rep.z])
        try:
            tuned = tune_poisson(gamma, c_target, rho_target, n_q)
        except Infeasible as exc:
            # the other rows still stand; this one has nothing to show
            print(f"warning: fig5 unrewired row at p_rw={p_rw} left nan: "
                  f"{exc}", file=sys.stderr)
            rows.append(["unrewired", *[math.nan] * 4, 0.0, *[math.nan] * 3])
            continue
        rep_u = analyze(ModelParams(household=poisson_plus(tuned.mu),
                                    global_degree=poisson(gamma - tuned.mu),
                                    r=tuned.r, n_q=n_q, infection=spec))
        rows.append(["unrewired", tuned.c, tuned.rho, tuned.mu, tuned.r, 0.0,
                     rep_u.r_star, rep_u.p_major, rep_u.z])
    resolved = {"figure": {"name": "fig5", **fig,
                           "mu_base": mu_base, "c_base": c_base}}
    return resolved, ["branch", "c", "rho", "mu", "r", "p_rw", "r_star",
                      "p_maj", "z"], rows


def cmd_figure(name: str, cfg: dict, out_override=None) -> Path:
    make = {"fig2": _figure_fig2, "fig3": _figure_fig3,
            "fig4": _figure_fig4, "fig5": _figure_fig5}[name]
    path = _output(cfg, out_override)
    resolved, columns, rows = make(cfg)
    return _write_csv(path(f"{name}.csv"),
                      _config_header("figure", resolved), columns, rows)


def cmd_tune(cfg: dict, out_override=None) -> Path:
    tune = cfg["tune"]
    path = _output(cfg, out_override)
    res = tune_poisson(tune["gamma"], tune["c"], tune["rho"], tune["n_q"])
    print(f"mu={_fmt(res.mu)} r={_fmt(res.r)} "
          f"(c={_fmt(res.c)}, rho={_fmt(res.rho)})")
    return _write_csv(
        path("tune.csv"), _config_header("tune", {"tune": tune}),
        ["gamma", "n_q", "c_target", "rho_target", "mu", "r", "c", "rho"],
        [[tune["gamma"], tune["n_q"], tune["c"], tune["rho"], res.mu, res.r,
          res.c, res.rho]],
    )


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
