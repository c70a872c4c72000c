"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math

import numpy as np
import pytest

from netepi.branching import ModelParams, analyze, tune_poisson
from netepi.distributions import InfectionSpec, poisson, poisson_plus
from netepi.errors import Infeasible
from netepi.household import HouseholdEngine
from netepi.netgen import build_network
from netepi.netprops import (
    analytic_degree_corr,
    empirical_clustering,
    empirical_degree_corr,
    poisson_c_rho,
)
from netepi.simulate import estimate

from oracles import (
    branching_total_progeny_mc,
    household_mean_by_alpha,
    household_pmfs_by_enumeration,
)

pytestmark = pytest.mark.acceptance

GAMMA = 10.0


def report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def template_params(mu, r, p_i, n_q=10, p_rw=0.0, gamma=GAMMA):
    return ModelParams(
        household=poisson_plus(mu),
        global_degree=poisson(gamma - mu),
        r=r,
        n_q=n_q,
        infection=InfectionSpec.constant(p_i),
        p_rw=p_rw,
    )


def test_criterion_01_poisson_closed_forms():
    worst_c, worst_rho = 0.0, 0.0
    for mu, c_expect in [(2.0, 0.04), (4.0, 0.16), (6.0, 0.36)]:
        c, rho = poisson_c_rho(GAMMA, mu, 0.0, 10)
        worst_c = max(worst_c, abs(c - c_expect))
        worst_rho = max(worst_rho, abs(rho - c))
    ok = worst_c <= 1e-12 and worst_rho <= 1e-10
    report(1, "Poisson closed forms",
           ok, f"max |c err| = {worst_c:.2e} (tol 1e-12), "
               f"max |rho - c| at r=0 = {worst_rho:.2e} (tol 1e-10)")


def test_criterion_02_upper_envelope():
    worst = 0.0
    for mu in range(1, 10):
        c, rho = poisson_c_rho(GAMMA, float(mu), 1.0, 1000)
        envelope = 1.0 + c - math.sqrt(c)
        worst = max(worst, abs(rho - envelope))
    report(2, "correlation envelope at r=1",
           worst < 0.01, f"max |rho - (1+c-sqrt(c))| = {worst:.5f} (tol 0.01)")


def test_criterion_03_generator_consistency():
    oks, details = [], []
    for k, r in enumerate((-0.8, 0.0, 0.8)):
        params = template_params(mu=2.0, r=r, p_i=0.0)
        net = build_network(params.gen_spec(200_000), seed=900 + k)
        c_emp = empirical_clustering(net)
        rho_emp = empirical_degree_corr(net)
        rho_ana = analytic_degree_corr(params.household, params.global_degree,
                                       r, params.n_q)
        imp = net.imperfections
        frac = (imp.self_loops + imp.parallel_edges) / net.n_edges
        oks.append(abs(c_emp - 0.04) < 0.005
                   and abs(rho_emp - rho_ana) < 0.01
                   and frac < 0.01)
        details.append(f"r={r}: |c-0.04|={abs(c_emp - 0.04):.4f}, "
                       f"|rho err|={abs(rho_emp - rho_ana):.4f}, "
                       f"imperfect={frac:.5f}")
    report(3, "generated networks match analytics",
           all(oks), "; ".join(details))


def test_criterion_04_household_oracle():
    worst_pmf = 0.0
    for p in (0.2, 0.5, 0.9):
        engine = HouseholdEngine(InfectionSpec.constant(p), max_size=8)
        for h in (2, 3, 4):
            t_exact, m_exact = household_pmfs_by_enumeration(h, p)
            worst_pmf = max(
                worst_pmf,
                # T and M coincide in law for a constant period
                np.abs(engine.susceptibility_pmf(h) - t_exact).max(),
                np.abs(engine.susceptibility_pmf(h) - m_exact).max(),
            )
    worst_mean = 0.0
    specs = [InfectionSpec.constant(p) for p in (0.2, 0.5, 0.9)]
    specs += [InfectionSpec.exponential(rate=0.3),
              InfectionSpec.gamma(rate=0.3, shape=2.0)]
    for spec in specs:
        engine = HouseholdEngine(spec, max_size=8)
        for h in range(2, 9):
            # E[T] by the forward recursion, an independent route
            worst_mean = max(worst_mean,
                             abs(household_mean_by_alpha(spec, h)
                                 - engine.susceptibility_mean(h)))
    ok = worst_pmf <= 1e-9 and worst_mean <= 1e-12
    report(4, "household law vs enumeration",
           ok, f"max pmf err = {worst_pmf:.2e} (tol 1e-9), "
               f"max |E[M]-E[T]| = {worst_mean:.2e} (tol 1e-12)")


def test_criterion_05_rewired_mean():
    oks, details = [], []
    for h, p, seed in [(3, 0.3, 51), (4, 0.3, 52), (5, 0.25, 53)]:
        engine = HouseholdEngine(InfectionSpec.constant(p), max_size=8)
        exact = engine.rewired_final_size_mean(h)
        mc, se = branching_total_progeny_mc(h, p, n_runs=1_000_000, seed=seed)
        oks.append(abs(mc - exact) <= 2.0 * se)
        details.append(f"h={h}: |{mc:.4f}-{exact:.4f}| vs 2se={2 * se:.4f}")
    engine_half = HouseholdEngine(InfectionSpec.constant(0.5), max_size=8)
    diverges = math.isinf(engine_half.rewired_final_size_mean(4))
    oks.append(diverges)
    details.append(f"mean(h=4, p_i=0.5) = inf: {diverges}")
    report(5, "rewired local mean vs branching simulation",
           all(oks), "; ".join(details))


def test_criterion_06_p_maj_equals_z():
    grid = list(itertools.product(
        (1.0, 4.0, 7.0),            # mu
        (0.12, 0.3),                # p_i
        (-0.8, -0.2, 0.5),          # r
        (0.0, 0.35, 0.8),           # p_rw
    ))
    assert len(grid) == 54
    worst = 0.0
    for mu, p_i, r, p_rw in grid:
        rep = analyze(template_params(mu=mu, r=r, p_i=p_i, p_rw=p_rw))
        worst = max(worst, abs(rep.p_major - rep.z))
    report(6, "p_maj equals z for constant period",
           worst < 1e-8, f"max |p_maj - z| = {worst:.2e} over "
                         f"{len(grid)} points (tol 1e-8)")


def test_criterion_07_simulation_matches_analytics():
    # Outbreak probability must land within 2 SE at 4 of the 5 points,
    # final size within 3 SE at 4 of 5.  The wider band and the allowed
    # miss absorb a small systematic offset between analytic and
    # simulated final sizes at extreme positive correlation: sorting
    # stubs with random tie-breaks sends a boundary-degree node's
    # remaining stubs to blocks by the degree-conditional law, while
    # the analytic process types them all by the incoming block.  The
    # offset is about +0.003 at r=1 and does not shrink with n.
    p_hits, z_hits, details = [], [], []
    for k, r in enumerate((-1.0, -0.5, 0.0, 0.5, 1.0)):
        params = template_params(mu=2.0, r=r, p_i=0.2)
        rep = analyze(params)
        est = estimate(params, n=10_000, n_sims=1000,
                       master_seed=7000 + k, threads=4)
        p_err = abs(est.p_hat - rep.p_major)
        z_err = abs(est.z_hat - rep.z)
        p_hits.append(p_err <= 2.0 * est.p_se)
        z_hits.append(z_err <= 3.0 * est.z_se)
        details.append(f"r={r}: p err {p_err:.4f} vs 2se {2 * est.p_se:.4f}, "
                       f"z err {z_err:.5f} vs 3se {3 * est.z_se:.5f}")
    ok = sum(p_hits) >= 4 and sum(z_hits) >= 4
    report(7, "finite network simulations track analytics",
           ok, f"p within 2 SE at {sum(p_hits)}/5, "
               f"z within 3 SE at {sum(z_hits)}/5; " + "; ".join(details))


def _increasing_extended(values):
    """Strict increase, except that two infinities in a row tie."""
    for a, b in zip(values, values[1:]):
        if math.isinf(a) and math.isinf(b):
            continue
        if not a < b:
            return False
    return True


def test_criterion_08_monotone_in_rewiring():
    reports = []
    for p_rw in (0.0, 0.25, 0.5, 0.75, 1.0):
        params = ModelParams(household=poisson_plus(4.0),
                             global_degree=poisson(6.0), r=0.3, n_q=10,
                             infection=InfectionSpec.constant(0.2),
                             p_rw=p_rw)
        reports.append(analyze(params))
    r_stars = [rep.r_star for rep in reports]
    p_majs = [rep.p_major for rep in reports]
    zs = [rep.z for rep in reports]
    ok = (_increasing_extended(r_stars)
          and all(a < b for a, b in zip(p_majs, p_majs[1:]))
          and all(a < b for a, b in zip(zs, zs[1:])))
    report(8, "rewiring increases threshold, p_maj and z",
           ok, f"r_star={['%.4g' % v for v in r_stars]}, "
               f"p_maj={['%.6f' % v for v in p_majs]}")


def test_criterion_09_tuning_round_trip():
    res = tune_poisson(GAMMA, 0.16, 0.30, 10)
    c_back, rho_back = poisson_c_rho(GAMMA, res.mu, res.r, 10)
    ok = abs(c_back - 0.16) <= 1e-6 and abs(rho_back - 0.30) <= 1e-6
    bounds_ok = []
    for bad_rho in (0.99, -0.9):
        try:
            tune_poisson(GAMMA, 0.16, bad_rho, 10)
            bounds_ok.append(False)
        except Infeasible as exc:
            bounds_ok.append(exc.lo < exc.hi and "range" in str(exc))
    report(9, "tuning hits feasible targets and rejects others",
           ok and all(bounds_ok),
           f"|c err|={abs(c_back - 0.16):.2e}, "
           f"|rho err|={abs(rho_back - 0.30):.2e} (tol 1e-6); "
           f"infeasible rejected with bounds: {all(bounds_ok)}")


def test_criterion_10_clustering_hurts_epidemics_both_ways():
    n_q, p_i = 10, 0.15
    mu_base = 6.9676
    c_base, rho_base = poisson_c_rho(GAMMA, mu_base, -1.0, n_q)
    anchor_ok = abs(c_base - 0.4855) < 5e-4 and abs(rho_base - 0.2) < 5e-4

    p_rw_grid = (0.0, 0.25, 0.5, 0.75)
    rewired, unrewired, identity_ok, differ = [], [], True, []
    for p_rw in p_rw_grid:
        c_target = (1.0 - p_rw) * c_base
        rep_rw = analyze(template_params(mu=mu_base, r=-1.0, p_i=p_i,
                                         n_q=n_q, p_rw=p_rw))
        tuned = tune_poisson(GAMMA, c_target, rho_base, n_q)
        rep_un = analyze(template_params(mu=tuned.mu, r=tuned.r, p_i=p_i,
                                         n_q=n_q))
        rewired.append((c_target, rep_rw.p_major))
        unrewired.append((c_target, rep_un.p_major))
        identity_ok &= (abs(rep_rw.p_major - rep_rw.z) < 1e-8
                        and abs(rep_un.p_major - rep_un.z) < 1e-8)
        if p_rw > 0.0:
            differ.append(abs(rep_rw.p_major - rep_un.p_major) > 1e-3)

    def decreasing_in_c(series):
        ordered = sorted(series)  # ascending c
        return all(a[1] > b[1] for a, b in zip(ordered, ordered[1:]))

    ok = (anchor_ok and identity_ok and all(differ)
          and decreasing_in_c(rewired) and decreasing_in_c(unrewired))
    report(10, "outbreaks grow as clustering is removed, wiring matters",
           ok, f"anchor c={c_base:.4f}, rho={rho_base:.4f}; "
               f"rewired p_maj={['%.4f' % v for _, v in rewired]}, "
               f"unrewired p_maj={['%.4f' % v for _, v in unrewired]}; "
               f"branches differ: {all(differ)}")
