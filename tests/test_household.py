import math

import numpy as np
import pytest

from netepi.distributions import InfectionSpec
from netepi.errors import NonConvergence
from netepi.household import (HouseholdEngine, _subtree_fixed_point,
                              household_engine)

from oracles import (
    branching_total_progeny_mc,
    general_period_household_mean_mc,
    household_mean_by_alpha,
    household_pmf_chain_binomial,
    household_pmfs_by_enumeration,
    household_pmfs_general_by_enumeration,
)


def engine(p_i=0.5, max_size=12):
    return HouseholdEngine(InfectionSpec.constant(p_i), max_size)


def local_mean(eng, h, p_rw=0.0):
    """The mean local progeny of one household size: E[M] at p_rw = 0, the
    rewired tree's mean at p_rw = 1."""
    return float(eng.mixture_means(np.array([h]), p_rw)[0])


def local_pgf(eng, h, s, p_rw=0.0):
    """The local-progeny PGF of one household size at one argument."""
    return float(eng.mixture_pgf_profile(np.array([h]), np.array([s]), p_rw)[0])


@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_final_size_pmf_matches_enumeration(h, p):
    # a constant period makes the final size T and the susceptibility set
    # M equal in law, so M's pmf must match the enumerated law of T
    out_pmf, _ = household_pmfs_by_enumeration(h, p)
    eng = engine(p)
    assert eng.susceptibility_pmf(h) == pytest.approx(out_pmf, abs=1e-12)
    assert local_mean(eng, h) == pytest.approx(
        float(np.dot(np.arange(h), out_pmf)), abs=1e-12
    )


@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_susceptibility_pmf_matches_enumeration(h, p):
    _, in_pmf = household_pmfs_by_enumeration(h, p)
    assert engine(p).susceptibility_pmf(h) == pytest.approx(in_pmf, abs=1e-12)


@pytest.mark.parametrize("h", [5, 6])
@pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
def test_final_size_pmf_matches_chain_binomial(h, p):
    # second independent oracle, cheap enough for larger h
    cb = household_pmf_chain_binomial(h, p)
    assert engine(p).susceptibility_pmf(h) == pytest.approx(cb, abs=1e-14)


def test_large_household_small_p_matches_chain_binomial():
    # large h at small p is where alternating inclusion-exclusion sums
    # lose precision; the susceptibility pmf serving both directions must
    # still match the forward oracle
    cb = household_pmf_chain_binomial(18, 0.02)
    assert engine(0.02, max_size=18).susceptibility_pmf(18) == pytest.approx(
        cb, abs=1e-14)


def test_wide_household_smaller_p_pmf_is_exact():
    # h = 25 at p = 0.015, where the inclusion-exclusion coefficients
    # once gave P(M = k) = -2.1e-9
    pmf = engine(0.015, max_size=25).susceptibility_pmf(25)
    assert abs(math.fsum(pmf) - 1.0) <= 1e-14
    assert pmf.min() >= 0.0
    assert pmf == pytest.approx(household_pmf_chain_binomial(25, 0.015),
                                abs=1e-14)


@pytest.mark.parametrize("spec", [
    InfectionSpec.exponential(rate=0.7, mean=1.0),
    InfectionSpec.gamma(rate=0.9, shape=2.0, scale=0.5),
], ids=["exponential", "gamma"])
def test_general_period_pmf_matches_enumeration(spec):
    # for a non-constant period T and M differ in law; M's pmf and
    # E[T] = E[M] are pinned by enumerating every node's out-set
    eng = HouseholdEngine(spec, 4)
    for h in range(1, 5):
        out_pmf, in_pmf = household_pmfs_general_by_enumeration(
            h, spec.phi_multiple)
        assert eng.susceptibility_pmf(h) == pytest.approx(in_pmf, abs=1e-13)
        assert local_mean(eng, h) == pytest.approx(
            float(np.dot(np.arange(h), out_pmf)), abs=1e-13)


def test_k3_frozen_values():
    # fixed by both oracles: sizes 1,2,3 have probs 1/4, 1/4, 1/2
    eng = engine(0.5)
    assert eng.susceptibility_pmf(3) == pytest.approx([0.25, 0.25, 0.5], abs=1e-14)
    assert local_mean(eng, 3) == pytest.approx(1.25, abs=1e-14)


def test_pair_household_closed_forms():
    eng = engine(0.3)
    assert local_mean(eng, 2) == pytest.approx(0.3, abs=1e-15)
    assert local_pgf(eng, 2, 0.7) == pytest.approx(0.7 + 0.3 * 0.7, abs=1e-15)
    assert local_mean(eng, 1) == 0.0
    assert eng.susceptibility_pmf(1) == pytest.approx([1.0])


def test_pgf_is_polynomial_of_pmf_and_handles_zero():
    eng = engine(0.4)
    for h in (1, 2, 5, 9):
        pmf = eng.susceptibility_pmf(h)
        for s in (0.0, 0.3, 1.0):
            assert local_pgf(eng, h, s) == pytest.approx(
                float(np.dot(pmf, s ** np.arange(h))), abs=1e-12
            )
        # s = 0 is P(no secondary infections) = (1-p)^(h-1)
        assert local_pgf(eng, h, 0.0) == pytest.approx(0.6 ** (h - 1), abs=1e-12)
        assert local_pgf(eng, h, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_derivative_matches_mean():
    eng = engine(0.37)
    for h in (3, 6, 10):
        step = 1e-6
        deriv = (local_pgf(eng, h, 1.0 + step) - local_pgf(eng, h, 1.0 - step)) / (
            2 * step
        )
        # the forward recursion for E[T] = E[M] is independent of the table
        assert deriv == pytest.approx(
            household_mean_by_alpha(eng.infection, h), abs=1e-6)


def test_extreme_transmission_probabilities():
    all_or_none = engine(1.0)
    assert all_or_none.susceptibility_pmf(5) == pytest.approx([0, 0, 0, 0, 1.0])
    nothing = engine(0.0)
    assert nothing.susceptibility_pmf(5) == pytest.approx([1.0, 0, 0, 0, 0])
    assert local_mean(nothing, 5, 1.0) == 0.0


def test_mean_and_susceptibility_agree_for_general_periods():
    # E[M] = E[T] holds for any infectious period; the forward recursion
    # for E[T] is an independent route
    for spec in (
        InfectionSpec.constant(0.2),
        InfectionSpec.exponential(rate=0.7, mean=1.0),
        InfectionSpec.gamma(rate=0.9, shape=2.0, scale=0.5),
    ):
        eng = HouseholdEngine(spec, 8)
        for h in range(1, 9):
            assert local_mean(eng, h) == pytest.approx(
                household_mean_by_alpha(spec, h), abs=1e-12
            )


@pytest.mark.parametrize("build", [
    lambda: InfectionSpec.gamma(0.15, 2.0, 0.5),
    lambda: InfectionSpec.exponential(0.3, mean=1.5),
], ids=["gamma", "exponential"])
def test_equal_general_specs_share_one_engine(build):
    # the memo is keyed by the period law's value, not by the spec object
    one, two = build(), build()
    assert one is not two and one == two
    assert household_engine(one, 5) is household_engine(two, 5)
    assert household_engine(one, 5) is not household_engine(one, 6)
    other = InfectionSpec.gamma(0.15, 2.0, 0.25)
    assert household_engine(other, 5) is not household_engine(one, 5)


def test_general_period_mean_against_monte_carlo():
    spec = InfectionSpec.exponential(rate=0.8, mean=1.0)
    eng = HouseholdEngine(spec, 5)
    mc = general_period_household_mean_mc(
        4, 0.8, spec.sample_periods, n_runs=200_000, seed=17
    )
    # binomial-ish SE of the MC mean is ~0.003
    # E[T] = E[M] for any period
    assert local_mean(eng, 4) == pytest.approx(mc, abs=0.01)


def test_susceptibility_pmf_general_period_sums_to_one():
    spec = InfectionSpec.exponential(rate=1.3, mean=1.0)
    eng = HouseholdEngine(spec, 10)
    for h in range(1, 11):
        pmf = eng.susceptibility_pmf(h)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0.0)


def test_local_pgf_available_for_general_periods():
    # the constant-period rule lives in BranchingModel; the household PGF
    # of M serves the backward process for any period
    eng = HouseholdEngine(InfectionSpec.exponential(rate=1.0, mean=1.0), 6)
    for p_rw in (0.0, 1.0):
        assert local_pgf(eng, 3, 0.5, p_rw) > 0.0


def test_rewired_mean_formula_and_divergence():
    eng = engine(0.5)
    assert local_mean(eng, 2, 1.0) == pytest.approx(0.5)
    assert local_mean(eng, 3, 1.0) == pytest.approx(0.5 * 2 / 0.5)
    assert local_mean(eng, 4, 1.0) == math.inf  # p_i = 1/(h-2) exactly
    assert local_mean(engine(0.51), 4, 1.0) == math.inf
    assert local_mean(engine(0.49), 4, 1.0) == pytest.approx(
        3 * 0.49 / (1 - 2 * 0.49)
    )


@pytest.mark.parametrize("h,p", [(3, 0.3), (4, 0.2), (5, 0.15)])
def test_rewired_mean_matches_branching_simulation(h, p):
    mean, se = branching_total_progeny_mc(h, p, n_runs=1_000_000, seed=29)
    eng = engine(p, max_size=6)
    assert abs(local_mean(eng, h, 1.0) - mean) < 2 * se


def test_rewired_pgf_frozen_points():
    # h=4, p=0.6 at s=1: subtree survival solves x=(0.4+0.6x)^2, smallest
    # root 4/9, so the PGF value is (0.4 + 0.6*4/9)^3 = (2/3)^3
    eng = engine(0.6, max_size=5)
    assert local_pgf(eng, 4, 1.0, p_rw=1.0) == pytest.approx(8 / 27, abs=1e-10)
    # exactly critical offspring (h=4, p=0.5): a.s. finite progeny, PGF
    # value 1 at s=1 though the mean diverges
    crit = engine(0.5, max_size=5)
    val = local_pgf(crit, 4, 1.0, p_rw=1.0)
    assert 0.999 <= val <= 1.0
    assert local_mean(crit, 4, 1.0) == math.inf


@pytest.mark.parametrize("h", [3, 4, 5, 7, 12, 30])
def test_subtree_fixed_point_exactly_critical(h):
    # p = 1/(h-2) at s = 1: the least root x = 1 is double, where plain
    # iteration creeps up like 1/k and Newton stalls near 1 - 1e-8
    p = 1.0 / (h - 2)
    s = np.array([1.0, 1.0 - 1e-9, 0.5])
    x, dx = _subtree_fixed_point(s, np.full(3, h), p)
    assert abs(x[0] - 1.0) <= 1e-12
    assert dx[0] == math.inf
    assert 0.0 <= x[2] <= x[1] < 1.0
    base = 1.0 - p + p * x[1:]
    assert x[1:] == pytest.approx(s[1:] * base ** (h - 2), rel=0.0, abs=1e-15)


def test_subtree_fixed_point_raises_at_its_cap(monkeypatch):
    import netepi.household as hh

    monkeypatch.setattr(hh, "_FIXED_POINT_MAX_ITER", 2)
    with pytest.raises(NonConvergence) as info:
        _subtree_fixed_point(np.array([0.9]), np.array([6]), 0.3)
    assert len(info.value.history) == 2
    # within the cap the same point converges
    monkeypatch.setattr(hh, "_FIXED_POINT_MAX_ITER", 100)
    x, _ = _subtree_fixed_point(np.array([0.9]), np.array([6]), 0.3)
    assert x[0] == pytest.approx(0.9 * (0.7 + 0.3 * x[0]) ** 4, abs=1e-15)


@pytest.mark.parametrize("p_rw", [0.0, 0.4, 1.0])
def test_mixture_pgf_derivative_matches_central_differences(p_rw):
    spec = InfectionSpec.gamma(rate=0.5, shape=2.0, scale=0.5)
    for eng in (engine(0.35, max_size=9), HouseholdEngine(spec, 9)):
        sizes = np.array([1, 2, 3, 5, 9])
        args = np.array([0.2, 0.9, 0.5, 0.7, 0.99])
        vals, ders = eng.mixture_pgf_profile(sizes, args, p_rw,
                                             derivative=True)
        assert np.array_equal(vals, eng.mixture_pgf_profile(sizes, args,
                                                            p_rw))
        step = 1e-6
        diff = (eng.mixture_pgf_profile(sizes, args + step, p_rw)
                - eng.mixture_pgf_profile(sizes, args - step, p_rw))
        assert ders == pytest.approx(diff / (2 * step), rel=0.0, abs=1e-8)


def test_rewired_pgf_agrees_with_branching_extinction():
    # at s=1 the PGF gives the extinction probability of the local line
    from oracles import branching_extinction_mc

    h, p = 5, 0.45
    eng = engine(p, max_size=6)
    analytic = local_pgf(eng, h, 1.0, p_rw=1.0)

    def offspring(rng, alive):
        return rng.binomial(alive * (h - 2), p)

    # root has h-1 trials, others h-2: simulate the root step explicitly
    rng = np.random.default_rng(3)
    n_runs = 60_000
    extinct = 0
    for _ in range(n_runs):
        alive = int(rng.binomial(h - 1, p))
        while 0 < alive < 5000:
            alive = int(offspring(rng, alive))
        extinct += alive == 0
    freq = extinct / n_runs
    se = math.sqrt(freq * (1 - freq) / n_runs)
    assert abs(analytic - freq) < 3 * se


def test_rewired_pgf_monotone_and_proper_when_subcritical():
    eng = engine(0.3, max_size=8)
    vals = eng.mixture_pgf_profile(np.full(11, 5), np.linspace(0, 1, 11), 1.0)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_mixture_means_by_size():
    eng = engine(0.3, max_size=9)
    sizes = np.arange(1, 10)
    assert np.array_equal(eng.mixture_means(sizes, 0.0),
                          [local_mean(eng, h) for h in sizes])
    # p_i = 0.3 >= 1/(h-2) from h = 6 on: the rewired branch diverges
    mixed = eng.mixture_means(sizes, 0.25)
    for h, value in zip(sizes, mixed):
        rew = local_mean(eng, int(h), 1.0)
        assert math.isinf(value) == (h >= 6) == math.isinf(rew)
        if h < 6:
            assert value == 0.75 * local_mean(eng, h) + 0.25 * rew
    with pytest.raises(ValueError):
        eng.mixture_means([10], 0.25)
    with pytest.raises(ValueError):
        eng.mixture_means(sizes, -0.1)


def test_mixture_combines_convexly():
    eng = engine(0.4, max_size=8)
    h, s = 5, 0.6
    intact = local_pgf(eng, h, s)
    rew = local_pgf(eng, h, s, p_rw=1.0)
    for p_rw in (0.0, 0.3, 1.0):
        assert local_pgf(eng, h, s, p_rw) == pytest.approx(
            (1 - p_rw) * intact + p_rw * rew, abs=1e-14
        )
    assert eng.mixture_means([h], 0.3)[0] == pytest.approx(
        0.7 * local_mean(eng, h) + 0.3 * local_mean(eng, h, 1.0)
    )
    assert engine(0.6, 8).mixture_means([5], 0.1)[0] == math.inf
    with pytest.raises(ValueError):
        local_pgf(eng, h, s, 1.4)


def test_mixture_backward_uses_susceptibility_law():
    spec = InfectionSpec.exponential(rate=1.1, mean=1.0)
    eng = HouseholdEngine(spec, 6)
    h, s, p_rw = 4, 0.5, 0.6
    intact = float(np.dot(eng.susceptibility_pmf(h), s ** np.arange(h)))
    expected = (1 - p_rw) * intact + p_rw * local_pgf(eng, h, s, 1.0)
    assert local_pgf(eng, h, s, p_rw) == pytest.approx(
        expected, abs=1e-14
    )


def _rewired_pgf_by_iteration(h, p, s):
    # the subtree extinction fixed point x = s (1 - p + p x)^(h-2), iterated
    # from 0; households of one or two have no subtree beyond the root
    x = 0.0
    for _ in range(100_000):
        nxt = s * (1.0 - p + p * x) ** max(h - 2, 0)
        if abs(nxt - x) < 1e-15:
            break
        x = nxt
    return (1.0 - p + p * nxt) ** (h - 1)


def test_mixture_pgf_profile_matches_scalar_calls():
    p = 0.35
    eng = engine(p, max_size=9)
    sizes = np.array([1, 2, 3, 5, 9])
    args = np.array([0.2, 0.9, 0.5, 0.7, 0.99])
    rewired = [_rewired_pgf_by_iteration(int(h), p, s) for h, s in zip(sizes, args)]
    # the closed forms the general formula must reproduce for h = 1 and 2
    assert rewired[0] == 1.0
    assert rewired[1] == pytest.approx(1.0 - p + p * args[1], abs=1e-15)
    intact = [float(eng.susceptibility_pmf(int(h)) @ s ** np.arange(h))
              for h, s in zip(sizes, args)]
    for p_rw in (0.0, 0.4, 1.0):
        ref = (1 - p_rw) * np.array(intact) + p_rw * np.array(rewired)
        vec = eng.mixture_pgf_profile(sizes, args, p_rw)
        assert vec == pytest.approx(ref, abs=1e-12)
        # a different size list on the same engine gets its own pmf rows
        rev = eng.mixture_pgf_profile(sizes[::-1], args[::-1], p_rw)
        assert rev == pytest.approx(ref[::-1], abs=1e-12)
    assert eng.mixture_pgf_profile(sizes[:2], args[:2], 0.0) == (
        pytest.approx(intact[:2], abs=1e-12))


def test_size_bounds_are_enforced():
    eng = engine(0.5, max_size=4)
    with pytest.raises(ValueError):
        local_mean(eng, 5)
    with pytest.raises(ValueError):
        eng.susceptibility_pmf(0)
    # the PGF path gathers pmf rows from one table, where size 0 would
    # read a zero row and -1 the last one
    for bad in (0, -1, 5):
        with pytest.raises(ValueError):
            eng.mixture_pgf_profile(np.array([2, bad]), np.array([0.5, 0.5]),
                                    0.0)
    with pytest.raises(ValueError):
        HouseholdEngine(InfectionSpec.constant(0.5), 0)


def test_pmf_table_is_read_only():
    # the returned pmf is a view of the table behind the means and the
    # PGF path, so writing into it must fail rather than corrupt them
    eng = engine(0.4, max_size=5)
    pmf = eng.susceptibility_pmf(4)
    with pytest.raises(ValueError):
        pmf[0] = 1.0
    assert local_pgf(eng, 4, 0.0) == pytest.approx(pmf[0], abs=0.0)


def test_large_household_moderate_p_stays_stable():
    eng = engine(0.3, max_size=30)
    pmf = eng.susceptibility_pmf(30)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(pmf >= 0.0)
    # both the pmf and the mean against routes that do not use the table
    assert pmf == pytest.approx(household_pmf_chain_binomial(30, 0.3),
                                abs=1e-14)
    assert local_mean(eng, 30) == pytest.approx(
        household_mean_by_alpha(InfectionSpec.constant(0.3), 30), abs=1e-12
    )
