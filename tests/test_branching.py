"""Tests for the multitype branching analytics.

The load-bearing checks compare the analytic extinction probabilities
and outbreak probability against a generative Monte Carlo simulation of
the typed process (tests/oracles.py), which shares only the quantile
table with the implementation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from netepi.branching import (
    AnalyticReport,
    BranchingModel,
    ModelParams,
    TuneResult,
    analyze,
    r_star,
    tune_poisson,
)
from netepi.distributions import (
    InfectionSpec,
    from_pmf,
    negative_binomial,
    point,
    poisson,
    poisson_plus,
)
from netepi.errors import (
    ConstantPeriodRequired,
    Infeasible,
    InvalidTarget,
    NonConvergence,
    ReducibleMatrixWarning,
    ZeroMean,
)
from netepi.netprops import poisson_c_rho

from oracles import (
    MultitypeForwardMC,
    household_mean_by_alpha,
    reference_monotone_extinction,
)


def params(h, g, r=0.0, n_q=1, p_i=0.2, p_rw=0.0, infection=None):
    inf = infection if infection is not None else InfectionSpec.constant(p_i)
    return ModelParams(household=h, global_degree=g, r=r, n_q=n_q,
                       infection=inf, p_rw=p_rw)


# -- mean matrix and threshold ------------------------------------------


def test_single_member_households_classical_threshold():
    # without households the process is the classical configuration-model
    # branching process with mean p_i E[G(G-1)]/E[G] = p_i * mu for Poisson
    pm = params(point(1), poisson(10.0), p_i=0.1)
    assert abs(BranchingModel(pm).r_star() - 1.0) <= 1e-9


def test_threshold_matches_moment_assembly_single_type():
    h = poisson_plus(2.0)
    g = poisson(8.0)
    p_i = 0.15
    pm = params(h, g, p_i=p_i)
    mu_g = g.mean()
    spare = np.dot(g.support * (g.support - 1), g.probs) / mu_g
    infection = InfectionSpec.constant(p_i)
    pi_tilde = h.support * h.probs / h.mean()
    local = sum(w * household_mean_by_alpha(infection, int(hh))
                for hh, w in zip(h.support, pi_tilde))
    expect = p_i * (spare + mu_g * local)
    got = BranchingModel(pm).r_star()
    assert got == pytest.approx(expect, abs=1e-10)


def test_uncorrelated_blocks_collapse_to_single_type():
    h = poisson_plus(2.0)
    g = poisson(6.0)
    one = analyze(params(h, g, r=0.0, n_q=1, p_i=0.22))
    many = analyze(params(h, g, r=0.0, n_q=7, p_i=0.22))
    assert many.r_star == pytest.approx(one.r_star, abs=1e-10)
    assert many.p_major == pytest.approx(one.p_major, abs=1e-10)
    assert many.z == pytest.approx(one.z, abs=1e-10)
    m = BranchingModel(params(h, g, r=0.0, n_q=7, p_i=0.22)).mean_matrix().entries
    # without labelling the target block is uniform: columns all equal
    assert np.allclose(m, m[:, :1], atol=1e-15)


def test_mean_matrix_structure():
    pm = params(poisson_plus(2.0), poisson(6.0), r=-0.8, n_q=6, p_i=0.3)
    m = BranchingModel(pm).mean_matrix()
    assert m.entries.shape == (6, 6)
    assert not m.has_infinite
    assert np.all(m.entries >= 0.0)
    assert not np.any(np.isnan(m.entries))


def test_infinite_local_growth_infinite_threshold():
    # fully rewired size-4 cliques become trees; p_i >= 1/(h-2) makes the
    # local process supercritical, so one global case can seed infinitely
    # many global cases in a single step
    pm = params(point(4), poisson(4.0), r=0.3, n_q=4, p_i=0.6, p_rw=1.0)
    m = BranchingModel(pm).mean_matrix()
    assert m.has_infinite
    assert not np.any(np.isnan(m.entries))
    assert r_star(m) == math.inf
    rep = analyze(pm)
    assert rep.r_star == math.inf
    assert 0.0 < rep.p_major < 1.0
    assert 0.0 < rep.z < 1.0
    assert rep.p_major == pytest.approx(rep.z, abs=1e-9)


_JACOBIAN_LAWS = [
    (poisson_plus(2.0), poisson(8.0)),
    (point(3), poisson(5.0)),
    (from_pmf({1: 0.3, 2: 0.3, 4: 0.4}), point(4)),
    (poisson_plus(1.0), negative_binomial(2.0, 0.4)),
    (from_pmf({2: 0.5, 4: 0.5}), poisson(3.0)),
    (point(1), poisson(6.0)),
    (poisson_plus(3.5), from_pmf({1: 0.5, 5: 0.5})),
    (point(5), point(2)),
]
_JACOBIAN_INFECTIONS = (
    [InfectionSpec.constant(p) for p in (0.0, 0.05, 0.2, 0.6)]
    + [InfectionSpec.gamma(0.3, 2.0), InfectionSpec.exponential(0.25)])


@pytest.mark.parametrize("h, g", _JACOBIAN_LAWS)
def test_mean_matrix_is_the_offspring_pgf_jacobian_at_one(h, g):
    # M_ij = dF_i/ds_j at s = 1: the mean matrix's own tables must agree
    # with the PGF path wherever the means are finite
    for r in (-1.0, -0.75, -0.5, 0.0, 0.3, 0.5, 1.0):
        for n_q in (1, 6, 10):
            for p_rw in (0.0, 0.3, 1.0):
                base = BranchingModel(params(h, g, r=r, n_q=n_q, p_rw=p_rw))
                for inf in _JACOBIAN_INFECTIONS:
                    model = base.with_infection(inf)
                    assert model.q_ih is base.q_ih
                    assert model.a_i is base.a_i
                    assert model.w_hj is base.w_hj
                    m = model.mean_matrix()
                    # every size of these laws is reached, so a rewired
                    # household beyond 1/(h-2) makes the means infinite
                    supercritical = p_rw > 0.0 and any(
                        k >= 3 and inf.p_i >= 1.0 / (k - 2)
                        for k in h.support.tolist())
                    assert m.has_infinite == supercritical
                    if supercritical:
                        assert np.all(np.isinf(m.entries))
                        assert model.r_star() == math.inf
                        continue
                    _, jac = model._offspring_pgf(np.ones(n_q), jacobian=True)
                    np.testing.assert_allclose(m.entries, jac, rtol=1e-13,
                                               atol=0.0)


def test_underflowed_stub_degree_is_named():
    # P(D = 1) = 1e-200 * 1e-200 / (mu_H mu_G) underflows to 0, so the
    # stub-degree law drops degree 1, which a size-1 household whose member
    # has one global stub still reaches
    pm = params(from_pmf({1: 1e-200, 2: 1.0}), from_pmf({1: 1e-200, 3: 1.0}),
                n_q=2)
    with pytest.raises(ValueError, match="^stub degree 1 "):
        BranchingModel(pm)


def test_partly_rewired_mixture_with_infinite_branch():
    pm = params(from_pmf({2: 0.5, 4: 0.5}), poisson(3.0), r=0.0, n_q=3,
                p_i=0.6, p_rw=0.5)
    m = BranchingModel(pm).mean_matrix()
    assert m.has_infinite
    assert not np.any(np.isnan(m.entries))
    rep = analyze(pm)
    assert rep.r_star == math.inf
    assert 0.0 < rep.z < 1.0


def test_diagonal_kernel_warns_reducible_and_matches_max_block():
    pm = params(point(1), poisson(8.0), r=1.0, n_q=4, p_i=0.1)
    model = BranchingModel(pm)
    with pytest.warns(ReducibleMatrixWarning):
        got = model.r_star()
    table = model.table
    block_mean = table.d_given_q.T @ table.degrees.astype(float)
    assert got == pytest.approx(0.1 * float(np.max(block_mean - 1.0)), abs=1e-9)


def test_no_global_edges_rejected():
    with pytest.raises(ZeroMean):
        BranchingModel(params(point(3), point(0), p_i=0.5))


def test_params_validation():
    inf = InfectionSpec.constant(0.2)
    with pytest.raises(ValueError):
        ModelParams(from_pmf({0: 0.5, 2: 0.5}), poisson(5.0), 0.0, 1, inf)
    with pytest.raises(ValueError):
        ModelParams(point(2), poisson(5.0), 1.5, 1, inf)
    with pytest.raises(ValueError):
        ModelParams(point(2), poisson(5.0), 0.0, 0, inf)
    with pytest.raises(ValueError):
        ModelParams(point(2), poisson(5.0), 0.0, 1, inf, p_rw=-0.1)


def test_params_bound_blocks_like_the_generator():
    # analyze and simulate accept the same models: n_q is bounded by the
    # generator's int16 block labels, with GenSpec's message
    inf = InfectionSpec.constant(0.2)
    assert ModelParams(point(2), poisson(5.0), 0.0, 32767, inf).n_q == 32767
    with pytest.raises(ValueError, match=r"^n_q must lie in 1\.\.32767$"):
        ModelParams(point(2), poisson(5.0), 0.0, 32768, inf)
    with pytest.raises(ValueError, match=r"^n_q must lie in 1\.\.32767$"):
        ModelParams(point(2), poisson(5.0), 0.0, 0, inf)


# -- extinction probabilities and outbreak sizes ------------------------


def test_below_threshold_everything_trivial():
    pm = params(poisson_plus(1.0), poisson(3.0), r=0.4, n_q=5, p_i=0.05)
    rep = analyze(pm)
    assert rep.r_star < 1.0
    assert rep.p_major == 0.0
    assert rep.z == 0.0
    assert np.all(rep.sigma == 1.0)
    assert np.all(rep.xi == 1.0)


def test_fixed_point_residual_invariant():
    for r, p_rw in [(-0.9, 0.0), (0.0, 0.3), (0.7, 0.0), (0.5, 1.0)]:
        pm = params(poisson_plus(2.0), poisson(7.0), r=r, n_q=8,
                    p_i=0.25, p_rw=p_rw)
        model = BranchingModel(pm)
        if model.r_star() <= 1.0:
            continue
        s = model._solve_extinction()
        assert np.all((0.0 <= s) & (s <= 1.0))
        res = np.max(np.abs(model._offspring_pgf(s) - s))
        assert res <= 1e-10


def test_constant_period_outbreak_prob_equals_final_size():
    h = poisson_plus(2.0)
    g = poisson(6.0)
    for r in (-0.7, 0.0, 0.6):
        for p_rw in (0.0, 0.3):
            pm = params(h, g, r=r, n_q=6, p_i=0.3, p_rw=p_rw)
            rep = analyze(pm)
            assert rep.r_star > 1.0
            assert rep.p_major == rep.z
            assert np.array_equal(rep.sigma, rep.xi)


def test_wide_households_at_small_transmission_stay_solvable():
    # households up to size 21 at p_i = 0.02, where alternating
    # inclusion-exclusion sums for the household pmf can lose precision;
    # the susceptibility-set pmf serving both directions must stay exact
    rep = analyze(params(poisson_plus(2.0), poisson(60.0), p_i=0.02))
    assert rep.r_star > 1.0
    assert rep.p_major == rep.z
    assert rep.z == pytest.approx(0.360326, abs=1e-6)


def test_wider_households_at_smaller_transmission_stay_solvable():
    # households up to size 25 at p_i = 0.015, where the inclusion-exclusion
    # pmf once came out negative (-2.1e-9) and analyze raised
    rep = analyze(params(poisson_plus(3.0), poisson(80.0), p_i=0.015))
    assert math.isfinite(rep.r_star) and rep.r_star > 1.0
    assert 0.0 <= rep.p_major <= 1.0
    assert rep.p_major == rep.z
    assert rep.z == pytest.approx(0.365868, abs=1e-6)


def test_final_size_at_rounding_level_is_not_negative():
    # p_i just above 1/19: rewired households of size 21 are locally
    # supercritical, so R* = inf, but they are so rare that z is ~1e-16
    # and 1 - G(xi) came out as -2.2e-16
    for r in (-1.0, 0.0, 1.0):
        rep = analyze(params(poisson_plus(2.0), poisson(8.0), r=r, n_q=10,
                             p_i=0.0527, p_rw=0.3))
        assert rep.r_star == math.inf
        assert 0.0 <= rep.z < 1e-14
        assert rep.p_major == rep.z


def test_rewiring_strictly_raises_all_outputs():
    h = from_pmf({1: 0.3, 2: 0.4, 3: 0.3})
    g = poisson(6.0)
    reports = [analyze(params(h, g, r=0.3, n_q=5, p_i=0.2, p_rw=p))
               for p in (0.0, 0.5, 1.0)]
    for lo, hi in zip(reports, reports[1:]):
        assert hi.r_star > lo.r_star + 1e-9
        assert hi.p_major > lo.p_major + 1e-9
        assert hi.z > lo.z + 1e-9


def test_threshold_crossing_matches_outbreak_onset():
    h = poisson_plus(2.0)
    g = poisson(6.0)

    def rs(p_i):
        return BranchingModel(params(h, g, r=-0.5, n_q=6, p_i=p_i)).r_star()

    lo, hi = 0.01, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rs(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    crit = 0.5 * (lo + hi)
    below = analyze(params(h, g, r=-0.5, n_q=6, p_i=crit * 0.999))
    above = analyze(params(h, g, r=-0.5, n_q=6, p_i=crit * 1.001))
    assert below.r_star < 1.0 and below.p_major == 0.0 and below.z == 0.0
    assert above.r_star > 1.0 and above.p_major > 0.0 and above.z > 0.0


def test_general_period_gives_z_but_no_forward_quantities():
    inf = InfectionSpec.exponential(rate=1.0, mean=0.35)
    pm = params(poisson_plus(2.0), poisson(7.0), r=0.4, n_q=6, infection=inf)
    model = BranchingModel(pm)
    assert model.r_star() > 1.0
    with pytest.raises(ConstantPeriodRequired):
        model.p_major()
    with pytest.raises(ConstantPeriodRequired):
        model.forward_extinction()
    rep = analyze(pm)
    assert rep.p_major is None and rep.sigma is None
    assert 0.0 < rep.z < 1.0
    xi = rep.xi
    res = np.max(np.abs(model._offspring_pgf(xi) - xi))
    assert res <= 1e-10


@pytest.mark.parametrize("r,p_rw", [(-1.0, 0.0), (0.4, 0.5)])
def test_offspring_pgf_matches_per_type_loop(r, p_rw):
    # reference: the offspring PGF assembled one type at a time
    model = BranchingModel(params(poisson_plus(2.0), poisson(6.0), r=r,
                                  n_q=5, p_i=0.25, p_rw=p_rw))
    s = np.linspace(0.1, 0.9, 5)
    g_type, f1, _ = model._stub_pgfs(s)
    local = model.households.mixture_pgf_profile(model.h_vals, f1, p_rw)
    ref = [model.table.d_given_q[:, i]
           @ ((model.size_given_degree * g_type[i] ** model.exponents)
              @ local)
           for i in range(5)]
    assert model._offspring_pgf(s) == pytest.approx(ref, rel=0.0, abs=1e-14)

def test_analyze_reads_the_model_methods():
    pm = params(poisson_plus(2.0), poisson(6.0), r=0.5, n_q=4, p_i=0.3)
    model = BranchingModel(pm)
    rep = analyze(pm)
    assert rep.r_star == model.r_star()
    assert rep.p_major == model.p_major()
    assert rep.z == model.z_final_size()
    assert np.array_equal(rep.sigma, model.forward_extinction())
    assert np.array_equal(rep.xi, model.backward_extinction())
    # one extinction vector per model serves both directions
    assert model.forward_extinction() is model.forward_extinction()
    assert model.backward_extinction() is model.backward_extinction()
    assert model.forward_extinction() is model.backward_extinction()


_FIG4_H, _FIG4_G = poisson_plus(2.0), poisson(8.0)
_FIG4_R = [round(x, 4) for x in np.linspace(-1.0, 1.0, 9)]


def fig4_model(p_i, r):
    return BranchingModel(params(_FIG4_H, _FIG4_G, r=r, n_q=10, p_i=p_i))


def test_newton_matches_monotone_reference_near_threshold():
    # fig4's default grid: R* from 1.005 up; the original loop stops
    # ~2e-11 short of the root at R* = 1.005
    solved = 0
    for p_i in (0.102, 0.103, 0.104, 0.105):
        for r in _FIG4_R:
            model = fig4_model(p_i, r)
            if model.r_star() <= 1.0:
                continue
            xi = model.backward_extinction()
            ref = reference_monotone_extinction(model)
            assert np.max(np.abs(xi - ref)) <= 3e-11
            assert np.all(xi >= ref)      # the monotone iterates lie below
            solved += 1
    assert solved == 26


@pytest.mark.parametrize("p_rw", [0.0, 0.3, 0.8])
def test_newton_matches_monotone_reference_above_threshold(p_rw):
    # the original 1e-13 step rule itself leaves up to ~1.3e-13 here
    # (rho(J) ~ 0.57 at R* = 1.54), so the reference runs to 1e-15
    models = [BranchingModel(params(h, g, r=r, n_q=6, p_rw=p_rw,
                                    infection=inf))
              for h, g in ((_FIG4_H, _FIG4_G),
                           (from_pmf(_GOLDEN_H), poisson(5.0)))
              for r in (-1.0, -0.5, 0.0, 0.5, 1.0)
              for inf in (InfectionSpec.constant(0.2), _GOLDEN_GAMMA)]
    for model in models:
        assert model.r_star() >= 1.5
        xi = model.backward_extinction()
        ref = reference_monotone_extinction(model, tol=1e-15, max_iter=20_000)
        assert np.max(np.abs(xi - ref)) <= 1e-13


@pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("p_rw", [0.0, 0.3, 0.8])
def test_offspring_jacobian_matches_central_differences(r, p_rw):
    model = BranchingModel(params(poisson_plus(2.0), poisson(6.0), r=r,
                                  n_q=5, p_i=0.25, p_rw=p_rw))
    s = np.linspace(0.1, 0.9, 5)
    value, jac = model._offspring_pgf(s, jacobian=True)
    assert np.array_equal(value, model._offspring_pgf(s))
    step = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = step
        diff = (model._offspring_pgf(s + e) - model._offspring_pgf(s - e))
        assert jac[:, j] == pytest.approx(diff / (2 * step), rel=0.0,
                                          abs=1e-8)


def test_newton_near_threshold_is_fast_and_reports_its_stats():
    model = fig4_model(0.104, -0.5)
    assert 1.0 < model.r_star() < 1.01
    assert model.extinction_stats is None
    xi = model.backward_extinction()
    stats = model.extinction_stats
    assert 1 <= stats.iterations <= 20
    assert stats.pgf_evals == stats.iterations + 1
    assert stats.residual == pytest.approx(
        np.max(np.abs(model._offspring_pgf(xi) - xi)), rel=0.0, abs=1e-15)
    assert stats.residual <= 1e-10
    with pytest.raises(AttributeError):
        model.extinction_stats = None
    # below threshold nothing is solved
    below = fig4_model(0.102, -1.0)
    assert below.r_star() < 1.0
    below.backward_extinction()
    assert below.extinction_stats is None


def test_extinction_newton_cap_raises_with_iterates(monkeypatch):
    import netepi.branching as br

    monkeypatch.setattr(br, "_NEWTON_MAX_ITER", 3)
    model = fig4_model(0.104, -0.5)
    with pytest.raises(NonConvergence) as info:
        model.backward_extinction()
    history = info.value.history
    assert len(history) == 4 and np.all(history[0] == 0.0)
    # the Newton iterates rise monotonically towards the root
    assert all(np.all(b >= a) for a, b in zip(history, history[1:]))


def test_extinction_singular_newton_system_raises(monkeypatch):
    model = BranchingModel(params(poisson_plus(2.0), poisson(6.0), r=0.5,
                                  n_q=4, p_i=0.3))
    original = model._offspring_pgf

    def flat(s, jacobian=False):
        value = original(s)
        return (value, np.eye(4)) if jacobian else value

    monkeypatch.setattr(model, "_offspring_pgf", flat)
    with pytest.raises(NonConvergence, match="singular") as info:
        model.backward_extinction()
    assert len(info.value.history) == 1


def test_with_infection_shares_structure_and_matches_a_fresh_build():
    base = BranchingModel(params(poisson_plus(2.0), poisson(6.0), r=-0.5,
                                 n_q=6, p_i=0.3, p_rw=0.3))
    base.backward_extinction()
    for inf in (InfectionSpec.constant(0.15), _GOLDEN_GAMMA):
        model = base.with_infection(inf)
        fresh = BranchingModel(params(poisson_plus(2.0), poisson(6.0),
                                      r=-0.5, n_q=6, p_rw=0.3, infection=inf))
        assert model.params.infection is inf
        assert model.params.household is base.params.household
        assert model.params.p_rw == 0.3 and model.params.r == -0.5
        assert model.table is base.table and model.kernels is base.kernels
        assert model.households is not base.households
        assert model.extinction_stats is None
        assert model.r_star() == fresh.r_star()
        assert model.z_final_size() == fresh.z_final_size()
        assert np.array_equal(model.backward_extinction(),
                              fresh.backward_extinction())
    # the source model keeps its own infection and memos
    assert base.params.infection.p_i == 0.3
    assert base.r_star() == BranchingModel(base.params).r_star()


def test_constant_period_analyze_solves_extinction_once(monkeypatch):
    solves = []
    original = BranchingModel._solve_extinction

    def counted(self):
        solves.append(self)
        return original(self)

    monkeypatch.setattr(BranchingModel, "_solve_extinction", counted)
    rep = analyze(params(poisson_plus(2.0), poisson(6.0), r=0.5, n_q=4,
                         p_i=0.3, p_rw=0.3))
    assert rep.r_star > 1.0
    assert len(solves) == 1


@settings(max_examples=25, deadline=None)
@given(
    w1=st.floats(0.05, 1.0), w2=st.floats(0.05, 1.0), w3=st.floats(0.05, 1.0),
    gmu=st.floats(1.0, 6.0),
    r=st.floats(-1.0, 1.0),
    p_lo=st.floats(0.02, 0.4),
)
def test_threshold_monotone_in_transmission(w1, w2, w3, gmu, r, p_lo):
    tot = w1 + w2 + w3
    h = from_pmf({1: w1 / tot, 2: w2 / tot, 3: w3 / tot})
    g = poisson(gmu)
    lo, hi = (_r_star_warning_iff_reducible(
        BranchingModel(params(h, g, r=r, n_q=4, p_i=p)))
        for p in (p_lo, min(1.0, p_lo * 2)))
    assert lo >= 0.0
    assert hi >= lo - 1e-12


def _r_star_warning_iff_reducible(model):
    """model.r_star(), checking that it warns of a reducible mean matrix
    exactly when the matrix has more than one strong component (with few
    global stubs, as at gmu = 1, the lowest block can have no offspring,
    which leaves a zero row or column)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ReducibleMatrixWarning)
        value = model.r_star()
    warned = any(issubclass(w.category, ReducibleMatrixWarning)
                 for w in caught)
    components, _ = connected_components(model.mean_matrix().entries > 0,
                                         connection="strong")
    assert warned == (components > 1)
    return value


# -- Monte Carlo oracle comparisons -------------------------------------


def _mc_setup(pm):
    model = BranchingModel(pm)
    mc = MultitypeForwardMC(
        pm.household.support, pm.household.probs,
        pm.global_degree.support, pm.global_degree.probs,
        model.d_vals, model.table.d_given_q, model.table.q_given_d,
        pm.r, pm.n_q, pm.infection.p_i, cap=200,
    )
    return model, mc


@pytest.mark.slow
def test_typed_extinction_matches_generative_simulation():
    pm = params(poisson_plus(2.0), poisson(8.0), r=0.5, n_q=10, p_i=0.2)
    model, mc = _mc_setup(pm)
    sigma = model.forward_extinction()
    n = 50_000
    for seed, q_type in ((11, 0), (12, 4), (13, 9)):
        frac = mc.extinction_fraction(n, seed=seed, root_type=q_type)
        se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / n)
        assert abs(frac - sigma[q_type]) <= 3.0 * se, (
            f"type {q_type}: analytic {sigma[q_type]:.4f} vs mc {frac:.4f}"
        )


@pytest.mark.slow
def test_outbreak_probability_matches_generative_simulation():
    pm = params(poisson_plus(2.0), poisson(8.0), r=-0.6, n_q=10, p_i=0.2)
    model, mc = _mc_setup(pm)
    pm_analytic = model.p_major()
    n = 150_000
    frac = mc.extinction_fraction(n, seed=77, root_type=None)
    surv = 1.0 - frac
    se = math.sqrt(max(surv * (1.0 - surv), 1e-12) / n)
    assert abs(surv - pm_analytic) <= 3.0 * se, (
        f"analytic {pm_analytic:.4f} vs mc {surv:.4f}"
    )


# -- tuning ---------------------------------------------------------------


def test_tune_poisson_hits_both_targets():
    res = tune_poisson(10.0, 0.25, 0.05, n_q=10)
    assert res.mu == pytest.approx(5.0, abs=1e-12)
    c, rho = poisson_c_rho(10.0, res.mu, res.r, 10)
    assert c == pytest.approx(0.25, abs=1e-12)
    assert rho == pytest.approx(0.05, abs=1e-8)
    neg = tune_poisson(10.0, 0.25, -0.08, n_q=10)
    assert neg.r < 0.0
    _, rho_neg = poisson_c_rho(10.0, neg.mu, neg.r, 10)
    assert rho_neg == pytest.approx(-0.08, abs=1e-8)


def test_tune_poisson_infeasible_reports_envelope():
    with pytest.raises(Infeasible) as exc:
        tune_poisson(10.0, 0.25, 0.95, n_q=10)
    assert exc.value.lo < exc.value.hi < 0.95
    _, rho_max = poisson_c_rho(10.0, 5.0, 1.0, 10)
    assert exc.value.hi == pytest.approx(rho_max, abs=1e-12)


def test_tune_poisson_stall_raises(monkeypatch):
    import netepi.branching as br

    # rho reaches the target only at the ends of [-1, 1], so the bisection
    # runs out of steps with rho = 0.5 wherever it lands
    def stalled(gamma, mu, r, n_q):
        return 0.04, r if abs(r) == 1.0 else 0.5

    monkeypatch.setattr(br, "poisson_c_rho", stalled)
    with pytest.raises(NonConvergence, match="stalled"):
        tune_poisson(10.0, 0.04, 0.0, 10)


def test_tune_poisson_invalid_targets():
    with pytest.raises(InvalidTarget):
        tune_poisson(10.0, 1.2, 0.0, n_q=10)
    with pytest.raises(InvalidTarget):
        tune_poisson(10.0, -0.1, 0.0, n_q=10)
    with pytest.raises(InvalidTarget):
        tune_poisson(0.0, 0.25, 0.0, n_q=10)


def test_analyze_report_shape():
    pm = params(poisson_plus(2.0), poisson(6.0), r=0.3, n_q=5, p_i=0.3)
    rep = analyze(pm)
    assert isinstance(rep, AnalyticReport)
    assert rep.sigma.shape == (5,)
    assert rep.xi.shape == (5,)
    assert not rep.has_infinite
    assert 0.0 < rep.p_major < 1.0


# values returned by the seed implementation (scalar household PGFs and
# the per-type offspring loop); any refactor of the PGF path keeps them
_GOLDEN_H = {1: 0.2, 2: 0.3, 3: 0.3, 5: 0.2}
_GOLDEN_GAMMA = InfectionSpec.gamma(rate=0.4, shape=2.0, scale=0.5)


@pytest.mark.parametrize("r,p_rw,infection,expected", [
    (-1.0, 0.0, None,
     (1.544249913194448, 0.5459258775562441, 0.5459258775562441)),
    (-1.0, 0.3, None,
     (1.611937994758664, 0.5516714750824665, 0.5516714750824665)),
    (0.5, 0.0, None,
     (1.8251047846661819, 0.5381496879213035, 0.5381496879213035)),
    (0.5, 0.3, None,
     (1.9237675301359984, 0.5419366749787919, 0.5419366749787919)),
    (0.5, 0.3, _GOLDEN_GAMMA, (5.964839588447636, None, 0.8357217131724608)),
])
def test_analyze_golden_values(r, p_rw, infection, expected):
    pm = params(from_pmf(_GOLDEN_H), poisson(5.0), r=r, n_q=6, p_i=0.2,
                p_rw=p_rw, infection=infection)
    rep = analyze(pm)
    r_star_, p_maj, z = expected
    assert rep.r_star == pytest.approx(r_star_, rel=1e-12, abs=0.0)
    if p_maj is None:
        assert rep.p_major is None
    else:
        assert rep.p_major == pytest.approx(p_maj, rel=1e-12, abs=0.0)
    assert rep.z == pytest.approx(z, rel=1e-12, abs=0.0)


def test_analyze_golden_values_infinite_threshold():
    # rewired households of size >= 7 have supercritical local epidemics
    pm = params(poisson_plus(2.0), poisson(8.0), r=-1.0, n_q=10, p_i=0.2,
                p_rw=0.3)
    rep = analyze(pm)
    assert rep.r_star == math.inf
    assert rep.p_major == pytest.approx(0.8077238310076938, rel=1e-12, abs=0.0)
    assert rep.z == pytest.approx(0.8077238310076938, rel=1e-12, abs=0.0)

