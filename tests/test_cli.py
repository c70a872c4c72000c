"""End-to-end tests of the command line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from netepi.cli import (
    _KNOWN,
    load_config,
    main,
    resolve_infection,
    resolve_model,
)
from netepi.branching import (_BISECT_WIDTH, Structure, critical_p_i,
                              mu_for_rho, structure, tune_poisson)
from netepi.distributions import poisson, poisson_plus
from netepi.errors import ConfigError
from netepi.household import HouseholdEngine, household_engine
from netepi.netgen import read_network
from netepi.netprops import poisson_c_rho


def write_yaml(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def read_csv(path):
    """Return (comment_lines, columns, rows as list of string lists)."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line.split(","))
    return comments, rows[0], rows[1:]


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(row[i]) for row in rows]


# -- config validation ---------------------------------------------------


def test_unknown_keys_rejected(tmp_path):
    for payload in [
        {"modle": {}},
        {"model": {"gamma": 10, "mu": 2, "bogus": 1}},
        {"infection": {"kind": "constant", "p_i": 0.2, "rate": 1.0},
         "model": {"gamma": 10, "mu": 2}},
        {"simulation": {"n": 10, "walltime": 60}},
        {"tune": {"gamma": 10, "c": 0.1, "rho": 0.1, "mu": 3}},
    ]:
        path = write_yaml(tmp_path / "c.yaml", payload)
        with pytest.raises(ConfigError):
            cfg = load_config(path)
            resolve_model(cfg["model"])
            resolve_infection(cfg["infection"])


def test_model_template_and_grammar_are_exclusive(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml", {
        "model": {"gamma": 10, "mu": 2, "household": "poisson_plus(2)"}}))
    with pytest.raises(ConfigError):
        resolve_model(cfg["model"])
    with pytest.raises(ConfigError):
        resolve_model({})  # neither grammar nor template


def test_infection_kind_validation():
    with pytest.raises(ConfigError):
        resolve_infection({"kind": "weibull", "p_i": 0.2})
    with pytest.raises(ConfigError):
        resolve_infection({"kind": "constant"})  # p_i missing
    with pytest.raises(ConfigError):
        resolve_infection({"kind": "exponential"})  # rate missing
    out = resolve_infection({"kind": "gamma", "rate": 0.3, "shape": 2})
    assert out == {"kind": "gamma", "rate": 0.3, "shape": 2.0, "scale": 1.0}


def test_cli_error_exit_code(tmp_path, capsys):
    path = write_yaml(tmp_path / "c.yaml", {"model": {"oops": 1}})
    code = main(["analyze", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_rejected_model_parameters_exit_2_without_traceback(tmp_path, capsys):
    # values that pass config parsing but fail ModelParams / GenSpec
    # validation are config errors, not crashes
    model = {"gamma": 10, "mu": 2, "r": 0.5, "n_q": 40000}
    path = write_yaml(tmp_path / "c.yaml",
                      {"model": model, "simulation": {"n": 100}})
    code = main(["generate", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "error: n_q must lie in 1..32767" in capsys.readouterr().err

    template = {"gamma": 10, "mu": 2}
    constant = {"kind": "constant", "p_i": 0.2}
    sim = {"n": 100, "n_sims": 2}
    bad_runs = [
        ("analyze", {"model": {**template, "r": 1.5},
                     "infection": constant}, "r must"),
        ("simulate", {"model": {**template, "n_q": 40000},
                      "infection": constant, "simulation": sim}, "n_q must"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {"n": 0, "n_sims": 2}},
         "simulation.n must be >= 1"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {"n": 100, "n_sims": 0}},
         "simulation.n_sims must be >= 1"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {**sim, "cutoff": -1}},
         "cutoff must be positive"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {**sim, "threads": 0}},
         "simulation.threads must be >= 1"),
        ("simulate", {"model": template,
                      "infection": {"kind": "constant", "p_i": 1.5},
                      "simulation": sim},
         "transmission probability must lie in [0, 1]"),
        ("analyze", {"model": template,
                     "infection": {"kind": "constant", "p_i": "abc"}},
         "infection.p_i must be a finite real, not 'abc'"),
        ("analyze", {"model": {"household": "bogus(3)",
                               "global_degree": "poisson(8)"},
                     "infection": constant},
         "unknown distribution form 'bogus(3)'"),
        ("analyze", {"model": template,
                     "infection": {"kind": "gamma", "rate": 0.2,
                                   "shape": -2}},
         "gamma period needs shape >= 0"),
        ("analyze", {"model": template,
                     "infection": {"kind": "exponential", "rate": -1}},
         "contact rate must be >= 0"),
        # ill-typed values: each names its key instead of a traceback, a
        # silently truncated integer or a message without the key
        ("analyze", {"model": {**template, "r_grid": 5},
                     "infection": constant},
         "model.r_grid must be a list, not 5"),
        ("figure fig2", {"infection": {"p_i": [0.2]},
                         "simulation": {"n": 100, "n_sims": 2}},
         "infection.p_i must be a finite real, not [0.2]"),
        ("analyze", {"model": {**template, "n_q": 2.7},
                     "infection": constant},
         "model.n_q must be an integer, not 2.7"),
        ("tune", {"tune": {"gamma": 10, "n_q": 10.9, "c": 0.16, "rho": 0.3}},
         "tune.n_q must be an integer, not 10.9"),
        ("figure fig3", {"figure": {"n_q": 3.9, "mu_grid": [4.0],
                                    "r_grid": [0.0], "p_i_factors": [1.1]}},
         "figure.n_q must be an integer, not 3.9"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {**sim, "n_sims": 3.5}},
         "simulation.n_sims must be an integer, not 3.5"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {**sim, "n": "1e3"}},
         "simulation.n must be an integer, not '1e3'"),
        ("simulate", {"model": template, "infection": constant,
                      "simulation": {**sim, "cutoff": float("nan")}},
         "simulation.cutoff must be a finite real, not nan"),
        ("simulate --seed -1", {"model": template, "infection": constant,
                                "simulation": sim},
         "simulation.master_seed must be >= 0"),
        ("analyze", {"model": {**template, "p_rw": True},
                     "infection": constant},
         "model.p_rw must be a finite real, not True"),
        ("analyze", {"model": {"household": 3, "global_degree": "poisson(8)"},
                     "infection": constant},
         "model.household must be text, not 3"),
        # P(D = 1) underflows to 0, yet a size-1 household with one global
        # stub reaches degree 1
        ("analyze", {"model": {"household": "pmf([1:1e-200, 2:1])",
                               "global_degree": "pmf([1:1e-200, 3:1])",
                               "n_q": 2},
                     "infection": constant},
         "stub degree 1 "),
    ]
    for i, (command, cfg, message) in enumerate(bad_runs):
        path = write_yaml(tmp_path / "c.yaml", cfg)
        out = tmp_path / f"out{i}"
        argv = [*command.split(), "--config", path, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


_FIG3_SMALL = {"mu_grid": [4.0], "r_grid": [0.0], "p_i_factors": [1.1]}
_TEMPLATE = {"gamma": 10, "mu": 2, "n_q": 10}
_GRAMMAR = {"household": "poisson_plus(2)", "global_degree": "poisson(8)"}
_CONSTANT = {"kind": "constant", "p_i": 0.2}
_ANALYZE = {"model": {**_TEMPLATE, "r": 0.5}, "infection": _CONSTANT}
_GENERATE = {"model": {**_TEMPLATE, "r": 0.5}, "simulation": {"n": 200}}
_FIG4 = {"p_i_grid": [0.104], "r_grid": [0.0]}


@pytest.mark.parametrize("argv, cfg, named", [
    (["figure", "fig4"], {"figure": {**_FIG4, "mu_grid": [2.0]}},
     "figure.mu_grid"),
    (["figure", "fig4"], {"figure": {**_FIG4, "p_rw_grid": [0.2]}},
     "figure.p_rw_grid"),
    (["figure", "fig4"], {"figure": {**_FIG4, "gamma": 12}}, "figure.gamma"),
    (["figure", "fig5"], {"model": _TEMPLATE}, "model.gamma"),
    (["figure", "fig5"], {"infection": _CONSTANT}, "infection.p_i"),
    (["figure", "fig5"], {"simulation": {"n": 100}}, "simulation.n"),
    (["analyze"], {**_ANALYZE, "simulation": {"n": 100}}, "simulation.n"),
    (["generate"], {**_GENERATE, "infection": _CONSTANT}, "infection.p_i"),
    (["generate"], {**_GENERATE, "simulation": {"n": 200, "n_sims": 5}},
     "simulation.n_sims"),
    (["analyze", "--seed", "3"], _ANALYZE, "--seed"),
    (["analyze", "--threads", "2"], _ANALYZE, "--threads"),
    (["tune", "--seed", "3"], {"tune": {"gamma": 10, "c": 0.16, "rho": 0.3}},
     "--seed"),
    (["tune", "--threads", "2"],
     {"tune": {"gamma": 10, "c": 0.16, "rho": 0.3}}, "--threads"),
    (["figure", "fig3", "--seed", "3"], {"figure": _FIG3_SMALL}, "--seed"),
    (["figure", "fig3", "--threads", "2"], {"figure": _FIG3_SMALL},
     "--threads"),
    (["generate", "--threads", "2"], _GENERATE, "--threads"),
    (["analyze"], {**_ANALYZE, "model": {**_ANALYZE["model"],
                                         "r_grid": [0.0, 0.5]}}, "model.r"),
    (["figure", "fig2"], {"model": {**_GRAMMAR, "r": 0.5},
                          "figure": {"r_grid": [0.0]}}, "model.r"),
    (["figure", "fig2"], {"model": {**_GRAMMAR, "r_grid": [0.5]},
                          "figure": {"r_grid": [0.0]}}, "model.r_grid"),
    (["figure", "fig4"], {"model": {**_GRAMMAR, "r": 0.5}, "figure": _FIG4},
     "model.r"),
    (["figure", "fig4"], {"model": _GRAMMAR, "figure": {**_FIG4, "n_q": 5}},
     "figure.n_q"),
    (["figure", "fig4"], {"figure": {**_FIG4, "name": "fig4"}}, "name"),
])
def test_settings_a_command_does_not_read_exit_2(tmp_path, capsys, argv,
                                                 cfg, named):
    # each of these was accepted and silently dropped: a setting the
    # command does not read, or one it ignores because another is given
    path = write_yaml(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main([*argv, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg, key", [
    (["analyze"], {**_ANALYZE, "model": {**_TEMPLATE, "r_grid": []}},
     "model.r_grid"),
    (["figure", "fig3"], {"figure": {**_FIG3_SMALL, "r_grid": []}},
     "figure.r_grid"),
    (["figure", "fig3"], {"figure": {**_FIG3_SMALL, "mu_grid": []}},
     "figure.mu_grid"),
    (["figure", "fig3"], {"figure": {**_FIG3_SMALL, "p_i_factors": []}},
     "figure.p_i_factors"),
    (["figure", "fig4"], {"figure": {**_FIG4, "p_i_grid": []}},
     "figure.p_i_grid"),
    (["figure", "fig5"], {"figure": {"p_rw_grid": []}}, "figure.p_rw_grid"),
])
def test_empty_grid_exits_2_naming_its_key(tmp_path, capsys, argv, cfg, key):
    # an empty grid used to write a CSV with a header and no rows, or, for
    # fig3's r_grid, fail in max() with a message that named no key
    path = write_yaml(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main([*argv, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} must not be empty\n"
    assert not out.exists()


def test_analyze_rejects_too_many_blocks_without_traceback(tmp_path, capsys):
    # ModelParams bounds n_q as GenSpec does, so analyze rejects the
    # models simulate rejects, with the same message
    cfg = {"model": {"gamma": 10, "mu": 2, "r": 0.5, "n_q": 40000},
           "infection": {"kind": "constant", "p_i": 0.2}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: n_q must lie in 1..32767" in err
    assert "Traceback" not in err
    assert not (tmp_path / "analyze.csv").exists()


# (argv, config text, output file, its `# config:` line), each line as the
# parent of the typed config table wrote it: an int for a real key prints
# as a float, PyYAML's string "1e-3" parses as a real, an integral float
# for an integer key prints as an int, and defaults print in their own type
_HEADERS = [
    (["analyze"], "model: {gamma: 10, mu: 2, r: 0.5, n_q: 10}\n"
     "infection: {kind: constant, p_i: 0.2}\n", "analyze.csv",
     '{"command":"analyze","infection":{"kind":"constant","p_i":0.2},'
     '"model":{"gamma":10.0,"mu":2.0,"n_q":10,"p_rw":0.0,"r":0.5}}'),
    (["analyze"], "model: {household: poisson_plus(2), global_degree: "
     "poisson(8), r: 0.5, n_q: 10.0}\ninfection: {p_i: 1e-3}\n",
     "analyze.csv",
     '{"command":"analyze","infection":{"kind":"constant","p_i":0.001},'
     '"model":{"global_degree":"poisson(8)","household":"poisson_plus(2)",'
     '"n_q":10,"p_rw":0.0,"r":0.5}}'),
    (["analyze"], "model: {gamma: 10, mu: 2, r_grid: [-1, 0, 0.5], n_q: 10, "
     "p_rw: 0}\ninfection: {kind: gamma, rate: 1, shape: 2}\n", "analyze.csv",
     '{"command":"analyze","infection":{"kind":"gamma","rate":1.0,'
     '"scale":1.0,"shape":2.0},"model":{"gamma":10.0,"mu":2.0,"n_q":10,'
     '"p_rw":0.0,"r":0.0,"r_grid":[-1.0,0.0,0.5]}}'),
    (["analyze"], "model: {gamma: 10, mu: 2}\n"
     "infection: {kind: exponential, rate: 0.25}\n", "analyze.csv",
     '{"command":"analyze","infection":{"kind":"exponential","mean":1.0,'
     '"rate":0.25},"model":{"gamma":10.0,"mu":2.0,"n_q":1,"p_rw":0.0,'
     '"r":0.0}}'),
    (["generate"], "model: {gamma: 10, mu: 2, r: 0.5, n_q: 10}\n"
     "simulation: {n: 200}\n", "network_properties.csv",
     '{"command":"generate","model":{"gamma":10.0,"mu":2.0,"n_q":10,'
     '"p_rw":0.0,"r":0.5},"n":200,"seed":0}'),
    (["generate", "--seed", "7"], "model: {gamma: 10.0, mu: 2, n_q: 4.0}\n"
     "simulation: {n: 200.0, master_seed: 3}\n", "network.txt",
     '{"command":"generate","model":{"gamma":10.0,"mu":2.0,"n_q":4,'
     '"p_rw":0.0,"r":0.0},"n":200,"seed":7}'),
    (["simulate"], "model: {gamma: 10, mu: 2, r: 0.5, n_q: 10}\n"
     "infection: {p_i: 0.2}\nsimulation: {n: 300, n_sims: 4}\n",
     "summary.csv",
     '{"command":"simulate","infection":{"kind":"constant","p_i":0.2},'
     '"model":{"gamma":10.0,"mu":2.0,"n_q":10,"p_rw":0.0,"r":0.5},'
     '"simulation":{"cutoff":0.05,"master_seed":0,"n":300,"n_sims":4,'
     '"threads":1}}'),
    (["simulate", "--seed", "5", "--threads", "2"],
     "model: {gamma: 10, mu: 2}\ninfection: {p_i: 2e-1}\n"
     "simulation: {n: 300.0, n_sims: 3, cutoff: 20}\n", "runs.csv",
     '{"command":"simulate","infection":{"kind":"constant","p_i":0.2},'
     '"model":{"gamma":10.0,"mu":2.0,"n_q":1,"p_rw":0.0,"r":0.0},'
     '"simulation":{"cutoff":20.0,"master_seed":5,"n":300,"n_sims":3,'
     '"threads":2}}'),
    (["tune"], "tune: {gamma: 10, n_q: 10, c: 0.16, rho: 0.3}\n", "tune.csv",
     '{"command":"tune","tune":{"c":0.16,"gamma":10.0,"n_q":10,"rho":0.3}}'),
    (["tune"], "tune: {gamma: 10.0, n_q: 10.0, c: 0.16, rho: 3e-1}\n",
     "tune.csv",
     '{"command":"tune","tune":{"c":0.16,"gamma":10.0,"n_q":10,"rho":0.3}}'),
    (["figure", "fig2"], "simulation: {n: 200, n_sims: 3}\n", "fig2.csv",
     '{"command":"figure","figure":{"name":"fig2","r_grid":[-1.0,-0.75,-0.5,'
     '-0.25,0.0,0.25,0.5,0.75,1.0]},"infection":{"kind":"constant",'
     '"p_i":0.2},"model":{"global_degree":"poisson(8)",'
     '"household":"poisson_plus(2)","n_q":10,"p_rw":0.0,"r":0.0},'
     '"simulation":{"cutoff":0.05,"master_seed":0,"n":200,"n_sims":3,'
     '"threads":1}}'),
    (["figure", "fig2"], "model: {gamma: 10, mu: 2, r_grid: [0, 1], n_q: 3}\n"
     "infection: {kind: exponential, rate: 0.3, mean: 2}\n"
     "simulation: {n: 200, n_sims: 2, master_seed: 4}\n", "fig2.csv",
     '{"command":"figure","figure":{"name":"fig2","r_grid":[0.0,1.0]},'
     '"infection":{"kind":"exponential","mean":2.0,"rate":0.3},'
     '"model":{"gamma":10.0,"mu":2.0,"n_q":3,"p_rw":0.0,"r":0.0,'
     '"r_grid":[0.0,1.0]},"simulation":{"cutoff":0.05,"master_seed":4,'
     '"n":200,"n_sims":2,"threads":1}}'),
    (["figure", "fig3"], "figure: {mu_grid: [4], r_grid: [0], "
     "p_i_factors: [1.1]}\n", "fig3.csv",
     '{"command":"figure","figure":{"gamma":10.0,"mu_grid":[4.0],"n_q":10,'
     '"name":"fig3","p_i_factors":[1.1],"r_grid":[0.0]}}'),
    (["figure", "fig3"], "figure: {gamma: 12, n_q: 5.0, mu_grid: [4.0], "
     "r_grid: [-1, 1], p_i_factors: [2]}\n", "fig3.csv",
     '{"command":"figure","figure":{"gamma":12.0,"mu_grid":[4.0],"n_q":5,'
     '"name":"fig3","p_i_factors":[2.0],"r_grid":[-1.0,1.0]}}'),
    (["figure", "fig4"], "figure: {p_i_grid: [0.104], r_grid: [0]}\n",
     "fig4.csv",
     '{"command":"figure","figure":{"name":"fig4","p_i_grid":[0.104],'
     '"r_grid":[0.0]},"model":{"global_degree":"poisson(8)",'
     '"household":"poisson_plus(2)","n_q":10,"p_rw":0.0,"r":0.0}}'),
    (["figure", "fig4"], "figure: {p_i_grid: [0.2], r_grid: [0.5], n_q: 5}\n",
     "fig4.csv",
     '{"command":"figure","figure":{"name":"fig4","p_i_grid":[0.2],'
     '"r_grid":[0.5]},"model":{"global_degree":"poisson(8)",'
     '"household":"poisson_plus(2)","n_q":5,"p_rw":0.0,"r":0.0}}'),
    (["figure", "fig4"], "model: {gamma: 10, mu: 2, n_q: 2}\n"
     "figure: {p_i_grid: [0.3], r_grid: [1]}\n", "fig4.csv",
     '{"command":"figure","figure":{"name":"fig4","p_i_grid":[0.3],'
     '"r_grid":[1.0]},"model":{"gamma":10.0,"mu":2.0,"n_q":2,"p_rw":0.0,'
     '"r":0.0}}'),
    (["figure", "fig5"], "", "fig5.csv",
     '{"command":"figure","figure":{"c_base":0.4854725649334344,'
     '"gamma":10.0,"mu_base":6.967586131031567,"n_q":10,"name":"fig5",'
     '"p_i":0.15,"p_rw_grid":[0.0,0.2,0.4,0.6,0.8],"rho":0.2}}'),
]


@pytest.mark.parametrize("argv, text, name, header", _HEADERS)
def test_config_header_is_pinned(tmp_path, argv, text, name, header):
    # the resolved config keeps each value's Python type, so the header,
    # and with it every output file, stays byte for byte the same
    path = tmp_path / "c.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 0
    with open(out / name) as fh:
        assert fh.readline() == f"# config: {header}\n"


def test_readme_config_reference_lists_the_table_keys():
    # the README's config reference is a YAML block; its sections list
    # exactly the keys of the config table, in table order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    reference = readme.split("### Config reference", 1)[1]
    block = reference.split("```yaml\n", 1)[1].split("```", 1)[0]
    listed = yaml.safe_load(block)
    assert {section: list(keys) for section, keys in listed.items()} == _KNOWN


def test_unreadable_or_malformed_config_is_a_clean_error(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {gamma: 10\n  broken\n")
    code = main(["analyze", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "invalid YAML" in capsys.readouterr().err


# -- analyze -------------------------------------------------------------


ANALYZE_CFG = {
    "model": {"gamma": 10, "mu": 2, "r_grid": [-0.5, 0.0, 0.5], "n_q": 10},
    "infection": {"kind": "constant", "p_i": 0.2},
}


def test_analyze_outputs_and_template_row(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", ANALYZE_CFG)
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "analyze.csv")
    assert comments[0].startswith("# config: ")
    json.loads(comments[0][len("# config: "):])  # header is valid JSON
    assert header == ["r", "mu_D", "var_D", "c", "rho", "p_G",
                      "r_star", "p_maj", "z"]
    assert len(rows) == 3  # one row per grid point

    # the template with gamma=10, mu=2 has Poisson(10) degrees, c=0.04,
    # and rho=c at r=0
    mid = rows[1]
    assert float(mid[header.index("r")]) == 0.0
    assert math.isclose(float(mid[header.index("mu_D")]), 10.0, abs_tol=1e-9)
    assert math.isclose(float(mid[header.index("var_D")]), 10.0, abs_tol=1e-9)
    assert math.isclose(float(mid[header.index("c")]), 0.04, abs_tol=1e-12)
    assert math.isclose(float(mid[header.index("rho")]), 0.04, abs_tol=1e-10)
    assert math.isclose(float(mid[header.index("p_G")]), 0.8, abs_tol=1e-12)
    # constant infectious period: outbreak probability equals final size
    assert math.isclose(float(mid[header.index("p_maj")]),
                        float(mid[header.index("z")]), abs_tol=1e-10)


def test_analyze_zero_transmission_is_trivial(tmp_path):
    cfg = {"model": {"gamma": 10, "mu": 2, "r": 0.3, "n_q": 10},
           "infection": {"kind": "constant", "p_i": 0.0}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "analyze.csv")
    assert float(rows[0][header.index("r_star")]) == 0.0
    assert float(rows[0][header.index("p_maj")]) == 0.0
    assert float(rows[0][header.index("z")]) == 0.0


def test_analyze_general_period_has_no_p_maj(tmp_path):
    cfg = {"model": {"gamma": 10, "mu": 2, "r": 0.0, "n_q": 10},
           "infection": {"kind": "exponential", "rate": 0.25, "mean": 1.0}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "analyze.csv")
    assert math.isnan(float(rows[0][header.index("p_maj")]))
    assert 0.0 < float(rows[0][header.index("z")]) < 1.0


def test_analyze_rerun_is_byte_identical(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", ANALYZE_CFG)
    main(["analyze", "--config", path, "--out", str(tmp_path / "a")])
    main(["analyze", "--config", path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "analyze.csv").read_bytes() == \
        (tmp_path / "b" / "analyze.csv").read_bytes()


# -- generate ------------------------------------------------------------


GENERATE_CFG = {
    "model": {"household": "poisson_plus(2)", "global_degree": "poisson(8)",
              "r": 0.5, "n_q": 10, "p_rw": 0.25},
    "simulation": {"n": 1500, "master_seed": 42},
}


def test_generate_writes_network_and_properties(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", GENERATE_CFG)
    assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 0
    net = read_network(str(tmp_path / "network.txt"))
    assert net.n == 1500
    _, header, rows = read_csv(tmp_path / "network_properties.csv")
    row = dict(zip(header, rows[0]))
    assert int(row["n"]) == 1500
    assert int(row["n_edges"]) == net.n_edges
    deg = net.degrees()
    assert math.isclose(float(row["mu_D"]), deg.mean(), rel_tol=1e-9)
    assert math.isclose(float(row["c_analytic"]), 0.75 * 0.04,
                        abs_tol=1e-12)
    assert abs(float(row["rho_empirical"]) - float(row["rho_analytic"])) < 0.1


@pytest.mark.parametrize("p_rw", [-0.1, 1.5])
def test_generate_rejects_p_rw_before_building(monkeypatch, tmp_path,
                                               capsys, p_rw):
    # a negative p_rw would skip rewiring and one above 1 would fail only
    # in rewire, after the build; both fail before any network is built
    def unreachable(*args, **kwargs):
        raise AssertionError("network built")

    monkeypatch.setattr("netepi.cli.build_network", unreachable)
    cfg = {**GENERATE_CFG, "model": {**GENERATE_CFG["model"], "p_rw": p_rw}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 2
    assert "error: p_rw must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "network.txt").exists()


def test_generate_deterministic_and_seed_flag(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", GENERATE_CFG)
    main(["generate", "--config", path, "--out", str(tmp_path / "a")])
    main(["generate", "--config", path, "--out", str(tmp_path / "b")])
    main(["generate", "--config", path, "--out", str(tmp_path / "c"),
          "--seed", "43"])
    a = (tmp_path / "a" / "network.txt").read_bytes()
    assert a == (tmp_path / "b" / "network.txt").read_bytes()
    assert a != (tmp_path / "c" / "network.txt").read_bytes()


# -- simulate ------------------------------------------------------------


SIMULATE_CFG = {
    "model": {"gamma": 10, "mu": 2, "r": 0.0, "n_q": 10},
    "infection": {"kind": "constant", "p_i": 0.2},
    "simulation": {"n": 800, "n_sims": 150, "master_seed": 11},
    "output": {"prefix": "demo"},
}


def test_simulate_outputs(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", SIMULATE_CFG)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0

    _, rh, rrows = read_csv(tmp_path / "demo_runs.csv")
    assert rh == ["run", "seed", "final_size", "major"]
    assert len(rrows) == 150
    sizes = column(rh, rrows, "final_size", int)
    major = column(rh, rrows, "major", int)

    _, sh, srows = read_csv(tmp_path / "demo_summary.csv")
    summary = dict(zip(sh, srows[0]))
    assert int(summary["n"]) == 800
    assert int(summary["n_sims"]) == 150
    assert int(summary["n_major"]) == sum(major)
    assert int(summary["cutoff_used"]) == 40  # ceil(0.05 * 800)
    assert math.isclose(float(summary["p_hat"]), sum(major) / 150,
                        abs_tol=1e-12)
    zs = [s for s, m in zip(sizes, major) if m]
    assert math.isclose(float(summary["z_hat"]), np.mean(zs) / 800,
                        rel_tol=1e-9)

    _, hh, hrows = read_csv(tmp_path / "demo_histogram.csv")
    assert hh == ["final_size", "count"]
    counts = dict(zip(column(hh, hrows, "final_size", int),
                      column(hh, hrows, "count", int)))
    assert sum(counts.values()) == 150
    assert all(v > 0 for v in counts.values())
    for s in sizes:
        assert counts[s] >= 1


def test_simulate_threads_match_serial(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", SIMULATE_CFG)
    main(["simulate", "--config", path, "--out", str(tmp_path / "serial")])
    main(["simulate", "--config", path, "--out", str(tmp_path / "par"),
          "--threads", "3"])
    a = (tmp_path / "serial" / "demo_runs.csv").read_bytes()
    b = (tmp_path / "par" / "demo_runs.csv").read_bytes()
    # config echo differs (threads), data does not
    strip = lambda raw: b"\n".join(
        ln for ln in raw.split(b"\n") if not ln.startswith(b"#"))
    assert strip(a) == strip(b)


def test_simulate_no_major_outbreaks_flagged(tmp_path):
    cfg = {"model": {"gamma": 4, "mu": 1, "r": 0.0, "n_q": 1},
           "infection": {"kind": "constant", "p_i": 0.02},
           "simulation": {"n": 500, "n_sims": 40, "master_seed": 3}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    comments, sh, srows = read_csv(tmp_path / "summary.csv")
    summary = dict(zip(sh, srows[0]))
    assert int(summary["n_major"]) == 0
    assert math.isnan(float(summary["z_hat"]))
    assert any("no major outbreaks" in c for c in comments)


# -- tune ----------------------------------------------------------------


def test_tune_roundtrip(tmp_path, capsys):
    cfg = {"tune": {"gamma": 10, "n_q": 10, "c": 0.16, "rho": 0.30}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
    assert "mu=" in capsys.readouterr().out
    _, header, rows = read_csv(tmp_path / "tune.csv")
    row = dict(zip(header, rows[0]))
    assert math.isclose(float(row["mu"]), 4.0, abs_tol=1e-9)
    assert math.isclose(float(row["c"]), 0.16, abs_tol=1e-8)
    assert math.isclose(float(row["rho"]), 0.30, abs_tol=1e-6)


def test_tune_infeasible_exits_with_bounds(tmp_path, capsys):
    cfg = {"tune": {"gamma": 10, "n_q": 10, "c": 0.16, "rho": 0.99}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "0.99" in err and "range" in err


# -- figures -------------------------------------------------------------


def test_fig2_schema_and_consistency(tmp_path):
    cfg = {"figure": {"r_grid": [-1.0, 1.0]},
           "simulation": {"n": 900, "n_sims": 80, "master_seed": 5}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["figure", "fig2", "--config", path,
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fig2.csv")
    assert header == ["r", "c", "rho", "r_star", "p_maj", "z",
                      "p_hat", "p_se", "z_hat", "z_se", "n_major"]
    assert len(rows) == 2
    for row in rows:
        d = dict(zip(header, row))
        assert math.isclose(float(d["c"]), 0.04, abs_tol=1e-12)
        # crude agreement at small n: three standard errors plus finite
        # size slack
        assert abs(float(d["p_hat"]) - float(d["p_maj"])) < \
            3 * float(d["p_se"]) + 0.05


def test_fig3_spread_shrinks_with_transmissibility(tmp_path):
    cfg = {"figure": {"mu_grid": [4.0], "r_grid": [-1.0, 0.0, 1.0],
                      "p_i_factors": [1.1, 3.0]}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["figure", "fig3", "--config", path,
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fig3.csv")
    assert header == ["mu", "p_i_factor", "p_i", "r", "c", "rho",
                      "r_star", "p_maj", "z"]
    assert len(rows) == 6
    by_factor = {}
    for row in rows:
        d = dict(zip(header, row))
        by_factor.setdefault(float(d["p_i_factor"]), []).append(
            float(d["p_maj"]))
    spread = {f: max(v) - min(v) for f, v in by_factor.items()}
    # correlation structure matters near threshold, washes out at high
    # transmissibility
    assert spread[1.1] > spread[3.0]
    assert all(v > 0 for v in by_factor[3.0])


# fig3's default critical transmission probabilities per mu over the
# default r grid (gamma = 10, n_q = 10), as the bisection returned them
# when it rebuilt the model at every step; sharing the structure tables
# must not move a bit of them
_FIG3_CRITICAL_P_I = {
    0.1: [0.10269627772504464, 0.10404660989297554, 0.10325124161317945,
          0.10193394887028262, 0.10000101174227893, 0.09698268416104838,
          0.0914815483847633, 0.07956123951589689, 0.06358349474612623],
    2.0: [0.1050037401728332, 0.10450083849718794, 0.10357504821149632,
          0.10228239599382505, 0.10051451722392812, 0.09794109110953286,
          0.09382048365660012, 0.0863827689900063, 0.07423070212826133],
    4.0: [0.10801031847950071, 0.10717758868122473, 0.10606906318571419,
          0.10463627177523449, 0.1027783807949163, 0.10014682722976431,
          0.0962503146729432, 0.09025368082802743, 0.08171330206096172],
    6.0: [0.11581814149394631, 0.11467594851274043, 0.11323536920826882,
          0.11142825352726504, 0.1091578125488013, 0.10584082984132692,
          0.10111926688114181, 0.09468040347564965, 0.08706300455378368],
}


def test_fig3_default_critical_p_i_pinned_bitwise():
    r_grid = [round(x, 4) for x in np.linspace(-1.0, 1.0, 9)]
    for mu, expected in _FIG3_CRITICAL_P_I.items():
        h, g = poisson_plus(mu), poisson(10.0 - mu)
        got = [critical_p_i(h, g, r, 10) for r in r_grid]
        assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_grid_critical_p_i_is_the_largest_per_r_value_bitwise():
    # one bisection over the grid returns, bit for bit, the largest of the
    # per-r critical values pinned above, on fig3's default grid and on
    # the benchmark's (mu = 2, five r)
    r_grid = [round(x, 4) for x in np.linspace(-1.0, 1.0, 9)]
    for mu, expected in _FIG3_CRITICAL_P_I.items():
        h, g = poisson_plus(mu), poisson(10.0 - mu)
        assert (critical_p_i(h, g, r_grid, 10).hex()
                == max(expected).hex()), mu
    bench = [-1.0, -0.5, 0.0, 0.5, 1.0]
    got = critical_p_i(poisson_plus(2.0), poisson(8.0), bench, 10)
    assert got.hex() == max(_FIG3_CRITICAL_P_I[2.0][::2]).hex()


_R5 = [-1.0, -0.5, 0.0, 0.5, 1.0]
# a bisection step per halving of [0, 1] down to _BISECT_WIDTH
_STEPS = math.ceil(-math.log2(_BISECT_WIDTH))


def _count_builds(monkeypatch):
    """{class: builds} of structure records and household engines from
    now on, with both memos emptied, as an earlier test may have left a
    record or an engine in them."""
    built = {Structure: 0, HouseholdEngine: 0}
    for cls in built:
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    structure.cache_clear()
    household_engine.cache_clear()
    return built


@pytest.mark.parametrize("argv, cfg, structures, engines", [
    # one structure per r; one engine at p_i = 1 for the feasibility
    # checks, one per bisection step and one per factor
    (["figure", "fig3"],
     {"figure": {"mu_grid": [2.0], "r_grid": _R5,
                 "p_i_factors": [1.05, 1.5, 2.5, 4.0]}},
     5, 1 + _STEPS + 4),
    # one structure per r and one engine per p_i
    (["figure", "fig4"], {"figure": {"p_i_grid": [0.103, 0.104],
                                     "r_grid": _R5}}, 5, 2),
    # one structure and engine for the five rewired rows, and one
    # structure each for the five unrewired rows, whose (mu, r) differ; the
    # p_rw = 0 row is tuned to the rewired rows' mu, so it shares their
    # engine
    (["figure", "fig5"], {}, 6, 5),
    # one structure per r and one engine
    (["figure", "fig2"], {"figure": {"r_grid": [-1.0, 0.0, 1.0]},
                          "simulation": {"n": 200, "n_sims": 3}}, 3, 1),
    # one structure per r and one engine
    (["analyze"], {"model": {"household": "poisson_plus(2)",
                             "global_degree": "poisson(8)", "r_grid": _R5,
                             "n_q": 10, "p_rw": 0.3},
                   "infection": {"kind": "gamma", "rate": 0.15,
                                 "shape": 2.0, "scale": 0.5}}, 5, 1),
], ids=["fig3", "fig4", "fig5", "fig2", "analyze"])
def test_commands_build_one_model_and_engine_per_shared_key(
        monkeypatch, tmp_path, argv, cfg, structures, engines):
    # each row builds its own model; the models of a shared (H, G, r, n_q)
    # share one structure record, and those of a shared infection one engine
    built = _count_builds(monkeypatch)
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main([*argv, "--config", path, "--out", str(tmp_path)]) == 0
    assert built == {Structure: structures, HouseholdEngine: engines}


def test_fig4_after_fig3_builds_no_structure(monkeypatch, tmp_path):
    # fig3 at mu = 2 and fig4's default model are one law, so with one
    # r grid fig4 finds every structure it needs in the memo
    built = _count_builds(monkeypatch)
    fig3 = write_yaml(tmp_path / "fig3.yaml", {"figure": {
        "mu_grid": [2.0], "r_grid": _R5,
        "p_i_factors": [1.05, 1.5, 2.5, 4.0]}})
    fig4 = write_yaml(tmp_path / "fig4.yaml", {"figure": {
        "p_i_grid": [0.103, 0.104], "r_grid": _R5}})
    assert main(["figure", "fig3", "--config", fig3,
                 "--out", str(tmp_path)]) == 0
    assert built[Structure] == 5
    assert main(["figure", "fig4", "--config", fig4,
                 "--out", str(tmp_path)]) == 0
    assert built[Structure] == 5


# fig5's inversions at its defaults (gamma = 10, n_q = 10, rho = 0.2): the
# base template's mu, then the tuned (mu, r) at each p_rw of the grid
_FIG5_MU_BASE = "0x1.bdecee6136000p+2"
_FIG5_TUNED = [
    ("0x1.bdecee6136000p+2", "-0x1.ffffff0000000p-1"),
    ("0x1.8ed910332310ep+2", "-0x1.0fe70e0000000p-1"),
    ("0x1.59699422c8769p+2", "-0x1.af6e840000000p-3"),
    ("0x1.1a072ec16d81ep+2", "0x1.6654c00000000p-7"),
    ("0x1.8ed910332310dp+1", "0x1.423e040000000p-3"),
]


def test_fig5_default_inversions_pinned_bitwise():
    mu_base = mu_for_rho(10.0, 0.2, 10)
    assert mu_base.hex() == _FIG5_MU_BASE
    c_base = poisson_c_rho(10.0, mu_base, -1.0, 10)[0]
    got = []
    for p_rw in [0.0, 0.2, 0.4, 0.6, 0.8]:
        tuned = tune_poisson(10.0, (1.0 - p_rw) * c_base, 0.2, 10)
        got.append((tuned.mu.hex(), tuned.r.hex()))
    assert got == _FIG5_TUNED


@pytest.mark.parametrize("rho", [-0.8, 0.3])
def test_fig5_accepts_a_target_at_the_envelope_edge(tmp_path, rho):
    # at p_rw = 0 the unrewired branch tunes to the r = -1 base template,
    # whose rho misses the target by rounding
    path = write_yaml(tmp_path / "c.yaml", {"figure": {"rho": rho}})
    assert main(["figure", "fig5", "--config", path,
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fig5.csv")
    first = dict(zip(header, rows[1]))
    assert first["branch"] == "unrewired"
    assert float(first["rho"]) == pytest.approx(rho, abs=1e-8)


def test_fig5_writes_the_rows_it_can_tune(tmp_path, capsys):
    # at rho = 0.7413 the unrewired branch cannot reach the target once
    # rewiring has diluted c at p_rw = 0.6 and 0.8; those two rows get
    # nan cells and a warning naming p_rw and the range, the rest stand
    path = write_yaml(tmp_path / "c.yaml", {"figure": {"rho": 0.7413}})
    assert main(["figure", "fig5", "--config", path,
                 "--out", str(tmp_path / "all")]) == 0
    err = capsys.readouterr().err
    assert err.count("warning: fig5 unrewired row") == 2
    assert "p_rw=0.6" in err and "p_rw=0.8" in err
    assert "attainable range [-0.069347, 0.734407]" in err
    _, header, rows = read_csv(tmp_path / "all" / "fig5.csv")
    assert len(rows) == 10
    for row in rows[6::2]:
        assert row[0] == "rewired" and "nan" not in row
    for row in rows[7::2]:
        assert row == ["unrewired", *["nan"] * 4, "0", *["nan"] * 3]
    # the other rows are those of a grid that stops before p_rw = 0.6
    path = write_yaml(tmp_path / "d.yaml",
                      {"figure": {"rho": 0.7413, "p_rw_grid": [0.0, 0.2, 0.4]}})
    assert main(["figure", "fig5", "--config", path,
                 "--out", str(tmp_path / "part")]) == 0
    assert capsys.readouterr().err == ""
    _, _, part = read_csv(tmp_path / "part" / "fig5.csv")
    assert rows[:6] == part


def test_fig3_subcritical_grid_point_is_named(tmp_path, capsys):
    cfg = {"figure": {"gamma": 1.0, "mu_grid": [0.5], "r_grid": [-1.0, 0.0],
                      "n_q": 2}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["figure", "fig3", "--config", path,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no supercritical transmission probability" in err
    assert "mu=0.5" in err and "r=-1.0" in err
    assert not (tmp_path / "fig3.csv").exists()


def test_fig4_rows(tmp_path):
    cfg = {"figure": {"p_i_grid": [0.102, 0.105], "r_grid": [-1.0, 1.0]}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["figure", "fig4", "--config", path,
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fig4.csv")
    assert header == ["p_i", "r", "r_star", "p_maj", "z"]
    assert len(rows) == 4
    d = [dict(zip(header, row)) for row in rows]
    # at fixed r the threshold grows with p_i
    assert float(d[2]["r_star"]) > float(d[0]["r_star"])


def test_fig5_branches_differ_at_matched_targets(tmp_path):
    cfg = {"figure": {"p_rw_grid": [0.0, 0.4, 0.8]}}
    path = write_yaml(tmp_path / "c.yaml", cfg)
    assert main(["figure", "fig5", "--config", path,
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fig5.csv")
    assert header == ["branch", "c", "rho", "mu", "r", "p_rw",
                      "r_star", "p_maj", "z"]
    assert len(rows) == 6
    rewired, unrewired = {}, {}
    for row in rows:
        d = dict(zip(header, row))
        target = (d["branch"], round(float(d["c"]), 9))
        (rewired if d["branch"] == "rewired" else unrewired)[
            round(float(d["c"]), 9)] = float(d["p_maj"])
    assert rewired.keys() == unrewired.keys()
    # matched (c, rho) but different wiring: outcomes must differ once
    # rewiring is actually happening
    diffs = [abs(rewired[c] - unrewired[c]) for c in rewired
             if c != max(rewired)]
    assert all(d > 1e-3 for d in diffs)
    # both branches: smaller clustering, larger outbreak probability
    for series in (rewired, unrewired):
        cs = sorted(series)
        vals = [series[c] for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_module_entry_point_runs_without_import_warning():
    # `python -m netepi.cli` must not find netepi.cli already imported by
    # the package, which makes runpy warn on every run
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "netepi.cli",
         "--help"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
