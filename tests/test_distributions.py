import dataclasses
import hashlib
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netepi import distributions as dd
from netepi import netgen as ng
from netepi import netprops
from netepi.branching import ModelParams, mu_for_rho, tune_poisson
from netepi.errors import EmptyDistribution, NoEdges, ZeroMean
from netepi.household import household_engine


def pmf_dict(d):
    return dict(zip(d.support.tolist(), d.probs.tolist()))


def prob(d, k):
    """P(X = k), 0.0 off the support."""
    return pmf_dict(d).get(k, 0.0)


def test_poisson_plus_mean_matches_direct_summation():
    # oracle: sum the zero-truncated series directly, far past truncation
    mu = 2.0
    norm = 1.0 - math.exp(-mu)
    expected = math.fsum(
        k * math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1)) for k in range(1, 200)
    ) / norm
    d = dd.poisson_plus(mu)
    assert d.mean() == pytest.approx(expected, abs=1e-10)
    assert d.mean() == pytest.approx(mu / norm, abs=1e-10)
    assert d.min_support() == 1


def test_poisson_plus_zero_mean_degenerates_to_one():
    d = dd.poisson_plus(0.0)
    assert pmf_dict(d) == {1: 1.0}


def test_poisson_truncation_keeps_mass_and_moments():
    d = dd.poisson(8.0)
    assert d.probs.sum() + d.tail_mass_bound == pytest.approx(1.0, abs=1e-12)
    assert d.tail_mass_bound <= 1e-11
    assert d.mean() == pytest.approx(8.0, abs=1e-9)
    assert d.variance() == pytest.approx(8.0, abs=1e-8)
    third = np.dot(d.support * (d.support - 1) * (d.support - 2), d.probs)
    assert third == pytest.approx(8.0**3, rel=1e-9)


def same_bits(got, want):
    want = np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# poisson, poisson_plus and negative_binomial evaluate private
# scipy.special kernels instead of importing scipy.stats; scipy.stats is
# the reference they must match bit for bit, so a scipy upgrade that
# moves or renames a kernel fails here rather than shifting a table
POISSON_MEANS = [*np.geomspace(1e-3, 300.0, 400).tolist(), 1e4]


def test_poisson_tables_match_scipy_stats_bitwise():
    for mu in [1e-9, *POISSON_MEANS]:
        hi = int(stats.poisson.isf(dd.DEFAULT_TAIL_EPS, mu)) + 1
        d = dd.poisson(mu)
        assert same_bits(d.support, np.arange(hi + 1)), mu
        assert same_bits(d.probs, stats.poisson.pmf(np.arange(hi + 1), mu)), mu


def test_poisson_plus_tables_match_scipy_stats_bitwise():
    for mu in POISSON_MEANS:
        hi = max(1, int(stats.poisson.isf(dd.DEFAULT_TAIL_EPS, mu)) + 1)
        d = dd.poisson_plus(mu)
        support = np.arange(1, hi + 1)
        want = stats.poisson.pmf(support, mu) / -math.expm1(-mu)
        assert same_bits(d.support, support), mu
        assert same_bits(d.probs, want), mu


@pytest.mark.parametrize("mu", [1e-9, 1e-10, 1e-11, 1e-12])
def test_poisson_plus_sums_to_one_at_tiny_means(mu):
    # 1 - exp(-mu) cancels here: 1e-9 once failed the sum check and 1e-10
    # summed to 0.99999992
    assert abs(dd.poisson_plus(mu).probs.sum() - 1.0) <= 3e-15


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 1.7, 2.0, 4.5, 10.0, 37.5])
def test_negative_binomial_tables_match_scipy_stats_bitwise(r):
    for p in [1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6, 1 - 1e-12]:
        hi = max(1, int(stats.nbinom.isf(dd.DEFAULT_TAIL_EPS, r, p)) + 1)
        d = dd.negative_binomial(r, p)
        assert same_bits(d.support, np.arange(hi + 1)), p
        assert same_bits(d.probs, stats.nbinom.pmf(np.arange(hi + 1), r, p)), p


@pytest.mark.parametrize("call, message", [
    (lambda: dd.poisson(math.nan), "poisson mean must be finite, got nan"),
    (lambda: dd.poisson(math.inf), "poisson mean must be finite, got inf"),
    (lambda: dd.poisson_plus(math.nan),
     "poisson_plus mean must be finite, got nan"),
    (lambda: dd.poisson_plus(math.inf),
     "poisson_plus mean must be finite, got inf"),
    (lambda: dd.negative_binomial(math.nan, 0.5),
     "negative_binomial r must be finite, got nan"),
    (lambda: dd.negative_binomial(math.inf, 0.5),
     "negative_binomial r must be finite, got inf"),
    # the range checks keep their messages
    (lambda: dd.poisson(-math.inf), "poisson mean must be >= 0"),
    (lambda: dd.negative_binomial(2.0, math.nan),
     "negative_binomial needs r > 0 and p in (0, 1]"),
])
def test_non_finite_parameters_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("text, message", [
    ("poisson(1e400)", "poisson mean must be finite, got inf"),
    ("poisson(nan)", "poisson mean must be finite, got nan"),
    ("poisson_plus(inf)", "poisson_plus mean must be finite, got inf"),
    ("negative_binomial(nan, 0.5)",
     "negative_binomial r must be finite, got nan"),
    ("negative_binomial(1e400, 0.5)",
     "negative_binomial r must be finite, got inf"),
    ("point(inf)", "point mass needs an integer, got inf"),
    ("point_mass(nan)", "point mass needs an integer, got nan"),
])
def test_parse_distribution_names_non_finite_parameters(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dd.parse_distribution(text)


def test_size_bias_two_point():
    d = dd.from_pmf({1: 0.5, 2: 0.5})
    sb = dd.size_bias(d)
    assert prob(sb, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert prob(sb, 2) == pytest.approx(2 / 3, abs=1e-12)


def test_size_bias_drops_zero_and_needs_positive_mean():
    d = dd.from_pmf({0: 0.5, 3: 0.5})
    sb = dd.size_bias(d)
    assert pmf_dict(sb) == {3: 1.0}
    with pytest.raises(ZeroMean):
        dd.size_bias(dd.point(0))


def test_edge_bias_two_point():
    d = dd.from_pmf({2: 0.5, 4: 0.5})
    eb = dd.edge_bias(d)
    assert prob(eb, 2) == pytest.approx(2 / 14, abs=1e-12)
    assert prob(eb, 4) == pytest.approx(12 / 14, abs=1e-12)


def test_edge_bias_requires_mass_at_two_or_more():
    with pytest.raises(NoEdges):
        dd.edge_bias(dd.point(1))


def test_poisson_biases_are_shifted_poissons():
    # size-biased Poi+(mu) is 1 + Poi(mu); edge-biased is 2 + Poi(mu)
    mu = 2.0
    h = dd.poisson_plus(mu)
    ht = dd.size_bias(h)
    hh = dd.edge_bias(h)
    ref = dd.poisson(mu)
    # renormalization over the truncated support shifts mass by ~tail
    for k in range(1, 15):
        assert prob(ht, k) == pytest.approx(prob(ref, k - 1), abs=1e-10)
    for k in range(2, 15):
        assert prob(hh, k) == pytest.approx(prob(ref, k - 2), abs=1e-10)


def test_stub_degree_law_point_masses():
    d = dd.stub_degree_law(dd.point(2), dd.point(1))
    assert pmf_dict(d) == {2: 1.0}


def test_stub_degree_law_poisson_template():
    # H ~ Poi+(mu), G ~ Poi(gamma - mu) gives stub degree 1 + Poi(gamma)
    gamma, mu = 10.0, 4.0
    d = dd.stub_degree_law(dd.poisson_plus(mu), dd.poisson(gamma - mu))
    ref = dd.poisson(gamma)
    assert d.min_support() == 1
    for k in range(1, 30):
        assert prob(d, k) == pytest.approx(prob(ref, k - 1), abs=1e-10)
    with pytest.raises(ZeroMean):
        dd.stub_degree_law(dd.point(2), dd.point(0))


def test_quantile_table_two_point_split():
    d = dd.from_pmf({1: 0.5, 2: 0.5})
    t = dd.quantile_table(d, 2)
    assert t.joint == pytest.approx(np.array([[0.5, 0.0], [0.0, 0.5]]), abs=1e-12)
    assert t.quantile_means == pytest.approx([1.0, 2.0], abs=1e-12)


def test_quantile_table_straddling_block():
    # P(D=1)=0.3, P(D=2)=0.7, n_q=2: degree 2 straddles the block edge
    d = dd.from_pmf({1: 0.3, 2: 0.7})
    t = dd.quantile_table(d, 2)
    assert t.joint == pytest.approx(np.array([[0.3, 0.0], [0.2, 0.5]]), abs=1e-12)
    # block 1 holds mass {1: 0.3, 2: 0.2}, so its mean degree is 1.4
    assert t.quantile_means == pytest.approx([1.4, 2.0], abs=1e-12)


@pytest.mark.parametrize("n_q", [1, 2, 3, 7, 10, 1000])
def test_quantile_table_invariants(n_q):
    d = dd.stub_degree_law(dd.poisson_plus(2.0), dd.poisson(8.0))
    t = dd.quantile_table(d, n_q)
    assert np.all(t.joint >= 0.0)
    assert t.joint.sum(axis=1) == pytest.approx(d.probs, abs=1e-12)
    assert t.joint.sum(axis=0) == pytest.approx(np.full(n_q, 1 / n_q), abs=1e-10)
    assert np.all(np.diff(t.quantile_means) >= -1e-12)


def test_quantile_table_pins_a_vanished_row():
    # degree 3's mass rounds away in the cumulative sums, so its joint row
    # is empty; its conditional is pinned to the block of its cdf position
    d = dd.DiscreteDist([1, 2, 3], [0.5, 0.5, 1e-20])
    t = dd.quantile_table(d, 4)
    assert np.all(t.joint[2] == 0.0)
    assert np.array_equal(t.q_given_d[2], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(t.q_given_d.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_quantile_table_matches_sorted_stub_simulation():
    # oracle: draw many stub degrees, sort with a uniform tie-break, cut
    # into near-equal blocks (larger blocks first), tally (degree, block)
    rng = np.random.default_rng(42)
    d = dd.from_pmf({1: 0.25, 2: 0.35, 3: 0.2, 5: 0.2})
    n_q, n_stubs = 3, 1_000_000
    degrees = d.sample(rng, n_stubs)
    order = np.lexsort((rng.random(n_stubs), degrees))
    base, rem = divmod(n_stubs, n_q)
    sizes = [base + 1] * rem + [base] * (n_q - rem)
    blocks = np.repeat(np.arange(n_q), sizes)
    counts = np.zeros((d.support.size, n_q))
    for idx, deg in enumerate(d.support):
        counts[idx] = np.bincount(blocks[degrees[order] == deg], minlength=n_q)
    emp = counts / n_stubs
    t = dd.quantile_table(d, n_q)
    assert np.abs(emp - t.joint).sum() < 0.01


def test_block_dispersion_shape():
    d = dd.stub_degree_law(dd.poisson_plus(4.0), dd.poisson(6.0))
    t = dd.quantile_table(d, 10)
    assert t.block_dispersion(0.0) == 0.0
    assert t.block_dispersion(1.0) <= d.variance() + 1e-12
    assert t.block_dispersion(0.5) == pytest.approx(0.5 * t.block_dispersion(1.0))
    assert t.block_dispersion(-0.5) == pytest.approx(0.5 * t.block_dispersion(-1.0))
    grid = np.linspace(-1, 1, 21)
    vals = [t.block_dispersion(r) for r in grid]
    assert np.all(np.diff(vals) >= -1e-12)
    assert t.block_dispersion(-1.0) <= 0.0 <= t.block_dispersion(1.0)


def test_pairing_kernels_orientation():
    d = dd.from_pmf({1: 0.5, 2: 0.5})
    t = dd.quantile_table(d, 2)
    pos = dd.pairing_kernels(t, 0.8)
    neg = dd.pairing_kernels(t, -0.8)
    assert pos.quantile_kernel == pytest.approx(np.eye(2))
    assert neg.quantile_kernel == pytest.approx(np.eye(2)[::-1])
    # degree 1 lies fully in block 1, degree 2 in block 2
    assert pos.degree_kernel == pytest.approx(np.eye(2), abs=1e-12)
    assert neg.degree_kernel == pytest.approx(np.eye(2)[::-1], abs=1e-12)


def test_parse_distribution_grammar():
    assert dd.parse_distribution("poisson(8)").mean() == pytest.approx(8.0, abs=1e-9)
    assert dd.parse_distribution("poisson_plus(2.0)").min_support() == 1
    assert pmf_dict(dd.parse_distribution("point(3)")) == {3: 1.0}
    assert pmf_dict(dd.parse_distribution("point_mass(3)")) == {3: 1.0}
    assert dd.parse_distribution("geometric(0.25)").mean() == pytest.approx(3.0, abs=1e-9)
    assert dd.parse_distribution("negative_binomial(2, 0.5)").mean() == pytest.approx(
        2.0, abs=1e-9
    )
    got = dd.parse_distribution("pmf([1:0.5, 2:0.25, 4:0.25])")
    assert pmf_dict(got) == {1: 0.5, 2: 0.25, 4: 0.25}


@pytest.mark.parametrize(
    "bad",
    ["uniform(3)", "poisson", "poisson()", "pmf([1:0.5])", "pmf(1:1.0)", "point(2.5)",
     "pmf([1:0.5, 2:0.5, 1:0.5])"],
)
def test_parse_distribution_rejects(bad):
    with pytest.raises(ValueError):
        dd.parse_distribution(bad)


@pytest.mark.parametrize("text, value", [
    ("pmf([1:0.5, 2:0.5, 1:0.5])", 1),
    ("pmf([01:0.5, 1:0.5])", 1),
    ("pmf([3:0.25, 2:0.5, 3:0.25])", 3),
])
def test_parse_distribution_rejects_a_repeated_pmf_value(text, value):
    # a later entry used to overwrite an earlier one, so the first text
    # parsed as {1: 0.5, 2: 0.5} and the second as {1: 0.5}, which failed
    # only on its sum
    with pytest.raises(ValueError, match=f"^pmf value {value} is repeated"):
        dd.parse_distribution(text)


def test_from_pmf_validation():
    with pytest.raises(EmptyDistribution):
        dd.from_pmf({})
    with pytest.raises(ValueError):
        dd.from_pmf({1: 0.5, 2: 0.6})
    with pytest.raises(ValueError):
        dd.from_pmf({-1: 1.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_discrete_dist_rejects_non_finite_probabilities(bad):
    # a comparison with NaN is False, so a check written as "reject if
    # out of range" would let a NaN through
    with pytest.raises(ValueError, match="must lie in"):
        dd.DiscreteDist(np.array([1, 2]), np.array([bad, 0.5]))
    with pytest.raises(ValueError, match="must lie in"):
        dd.DiscreteDist(np.array([1]), np.array([1.0]), tail_mass_bound=bad)


def test_sampling_matches_pmf():
    rng = np.random.default_rng(7)
    d = dd.from_pmf({0: 0.2, 1: 0.5, 4: 0.3})
    draws = d.sample(rng, 200_000)
    for k, p in pmf_dict(d).items():
        assert np.mean(draws == k) == pytest.approx(p, abs=0.005)


def test_infection_spec_constant():
    spec = dd.InfectionSpec.constant(0.2)
    assert spec.is_constant
    assert spec.p_i == 0.2
    assert spec.phi_multiple(3) == pytest.approx(0.8**3, abs=1e-15)


def test_infection_spec_exponential():
    spec = dd.InfectionSpec.exponential(rate=1.0, mean=1.0)
    assert not spec.is_constant
    assert spec.p_i == pytest.approx(0.5, abs=1e-12)
    assert spec.phi_multiple(2) == pytest.approx(1 / 3, abs=1e-12)


def test_infection_spec_gamma():
    spec = dd.InfectionSpec.gamma(rate=1.0, shape=2.0, scale=0.5)
    assert spec.p_i == pytest.approx(1 - 1.5**-2, abs=1e-12)
    rng = np.random.default_rng(5)
    draws = spec.sample_periods(rng, 100_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


# Bit patterns of the general laws' transforms phi(k * rate), k = 0, 1,
# 2, 7, and of their first period draws at seed 2024, with a digest of
# 1000 draws, as recorded while the transform and the sampler were
# stored callables: the spec must evaluate the same float expressions
# and make the same RNG calls.
_PERIOD_PINS = [
    pytest.param(
        dd.InfectionSpec.exponential(rate=0.3, mean=1.5),
        "0x1.3dcb08d3dcb08p-2",
        ["0x1.0000000000000p+0", "0x1.611a7b9611a7cp-1",
         "0x1.0d79435e50d79p-1", "0x1.ed7e75346f093p-3"],
        ["0x1.479ed4e5ff4d6p+0", "0x1.5fdc779db865ap-3",
         "0x1.03e9e33129c18p-2", "0x1.f19132f5e1017p+0",
         "0x1.bf99acd682354p+1"],
        "48e9c6bfedb4aea6827d03b6be8b7f1289b3a931086a9ace98e72fd723cd1df7",
        id="exponential"),
    pytest.param(
        dd.InfectionSpec.gamma(rate=0.6, shape=4.0, scale=0.25),
        "0x1.b68651332f2bep-2",
        ["0x1.0000000000000p+0", "0x1.24bcd766686a1p-1",
         "0x1.6687e6b00e7c0p-2", "0x1.cfd8c34e68fdcp-5"],
        ["0x1.80af2bd50a48ap+0", "0x1.951dfb7109438p+0",
         "0x1.98124112a7a6dp-2", "0x1.64d8391afc666p+0",
         "0x1.0ae31eea91fefp+1"],
        "7d5fa384c4ef12878c8bf31103094c65b262a1485766a33026a3f5c23a8750bd",
        id="gamma"),
]


@pytest.mark.parametrize("spec, p_i, phis, draws, digest", _PERIOD_PINS)
def test_general_period_transform_and_draws_pinned_bitwise(spec, p_i, phis,
                                                           draws, digest):
    assert spec.p_i.hex() == p_i
    assert [spec.phi_multiple(k).hex() for k in (0, 1, 2, 7)] == phis
    first = spec.sample_periods(np.random.default_rng(2024), 5)
    assert [float(x).hex() for x in first] == draws
    many = spec.sample_periods(np.random.default_rng(2024), 1000)
    assert hashlib.sha256(many.tobytes()).hexdigest() == digest


def test_infection_specs_are_values():
    gamma = dd.InfectionSpec.gamma(rate=0.15, shape=2.0, scale=0.5)
    # a worker process gets its spec by pickle
    back = pickle.loads(pickle.dumps(gamma))
    assert back == gamma and hash(back) == hash(gamma)
    assert back.phi_multiple(3) == gamma.phi_multiple(3)
    assert gamma == dd.InfectionSpec.gamma(0.15, 2, 0.5)
    assert gamma != dd.InfectionSpec.gamma(0.15, 2.0, 0.25)
    assert gamma != dd.InfectionSpec.exponential(0.15, 1.0)
    for spec in (gamma, dd.InfectionSpec.exponential(0.3, 1.5),
                 dd.InfectionSpec.constant(0.2)):
        assert all(isinstance(getattr(spec, f.name), (str, float))
                   for f in dataclasses.fields(spec))
    constant = dd.InfectionSpec.constant(0.2)
    with pytest.raises(ValueError):
        constant.phi(1.0)
    with pytest.raises(ValueError):
        constant.sample_periods(np.random.default_rng(0), 3)


def test_discrete_dists_compare_and_hash_by_value():
    assert dd.poisson(2.0) == dd.poisson(2.0)
    assert hash(dd.poisson(2.0)) == hash(dd.poisson(2.0))
    assert dd.poisson(2.0) != dd.poisson(2.5)
    assert dd.poisson(2.0) != dd.poisson_plus(2.0)
    pmf = dd.from_pmf({1: 0.25, 3: 0.75})
    assert pmf == dd.DiscreteDist(np.array([1, 3]), np.array([0.25, 0.75]))
    # the same table with another tail bound is another law
    assert pmf != dd.DiscreteDist(np.array([1, 3]), np.array([0.25, 0.75]),
                                  1e-12)
    assert pmf != dd.from_pmf({1: 0.25, 2: 0.75})
    assert len({dd.point(3), dd.point(3), dd.point(4)}) == 2
    assert dd.point(3) != "point(3)"


def test_infection_spec_validation():
    with pytest.raises(ValueError):
        dd.InfectionSpec.constant(1.5)
    with pytest.raises(ValueError):
        dd.InfectionSpec(kind="general", p_i=0.5)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=8,
    )
)
def test_size_bias_mean_is_second_moment_ratio(weights):
    total = sum(weights.values())
    pmf = {k: v / total for k, v in weights.items()}
    d = dd.from_pmf(pmf)
    if d.mean() <= 0:
        return
    sb = dd.size_bias(d)
    second = float(np.dot(d.support.astype(float) ** 2, d.probs))
    assert sb.mean() == pytest.approx(second / d.mean(), rel=1e-9)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60)
def test_quantile_table_partition_property(weights, n_q):
    total = sum(weights.values())
    d = dd.from_pmf({k: v / total for k, v in weights.items()})
    t = dd.quantile_table(d, n_q)
    assert np.all(t.joint >= 0)
    assert t.joint.sum(axis=1) == pytest.approx(d.probs, abs=1e-12)
    assert t.joint.sum(axis=0) == pytest.approx(np.full(n_q, 1 / n_q), abs=1e-10)
    assert np.all(np.diff(t.quantile_means) >= -1e-9)


# -- the one check of each model parameter's domain -----------------------

_H, _G = dd.poisson_plus(2.0), dd.poisson(8.0)
_CONSTANT = dd.InfectionSpec.constant(0.2)


def _params(r=0.5, n_q=4, p_rw=0.0):
    return ModelParams(_H, _G, r, n_q, _CONSTANT, p_rw)


def _rewire(p_rw):
    return ng.rewire(ng.build_network(ng.GenSpec(60, _H, _G), 1), p_rw, 1)


def _engine():
    return household_engine(_CONSTANT, 6)


# every public entry that takes r, n_q or p_rw, called with that one value
_ENTRIES = {
    "r": {
        "check_structure": lambda r: ng.check_structure(_H, r, 4),
        "GenSpec": lambda r: ng.GenSpec(60, _H, _G, r, 4),
        "ModelParams": lambda r: _params(r=r),
        "degree_corr_components":
            lambda r: netprops.degree_corr_components(_H, _G, r, 4),
        "poisson_c_rho": lambda r: netprops.poisson_c_rho(10.0, 2.0, r, 4),
        "block_dispersion":
            lambda r: netprops.poisson_stub_table(10.0, 4).block_dispersion(r),
        "pairing_kernels": lambda r: dd.pairing_kernels(
            netprops.poisson_stub_table(10.0, 4), r),
        "template_c_rho": lambda r: netprops.template_c_rho(
            netprops.poisson_stub_table(10.0, 4), 10.0, 2.0, r),
    },
    "n_q": {
        "check_structure": lambda n_q: ng.check_structure(_H, 0.5, n_q),
        "GenSpec": lambda n_q: ng.GenSpec(60, _H, _G, 0.5, n_q),
        "ModelParams": lambda n_q: _params(n_q=n_q),
        "degree_corr_components":
            lambda n_q: netprops.degree_corr_components(_H, _G, 0.5, n_q),
        "poisson_c_rho":
            lambda n_q: netprops.poisson_c_rho(10.0, 2.0, 0.5, n_q),
        "quantile_table": lambda n_q: dd.quantile_table(_H, n_q),
        "tune_poisson": lambda n_q: tune_poisson(10.0, 0.04, 0.2, n_q),
        "mu_for_rho": lambda n_q: mu_for_rho(10.0, 0.2, n_q),
    },
    "p_rw": {
        "ModelParams": lambda p_rw: _params(p_rw=p_rw),
        "rewire": _rewire,
        "mixture_means":
            lambda p_rw: _engine().mixture_means(np.array([2, 3]), p_rw),
        "mixture_pgf_profile": lambda p_rw: _engine().mixture_pgf_profile(
            np.array([2, 3]), np.array([0.5, 0.5]), p_rw),
        "rewired_clustering":
            lambda p_rw: netprops.rewired_clustering(_H, _G, p_rw),
    },
}

_OUT_OF_DOMAIN = {
    "r": [(True, TypeError, "r must be a real number, not True"),
          (math.nan, ValueError, "r must lie in [-1, 1]"),
          (1.5, ValueError, "r must lie in [-1, 1]"),
          (-1.5, ValueError, "r must lie in [-1, 1]")],
    "n_q": [(True, TypeError, "n_q must be an integer, not True"),
            (math.nan, TypeError, "n_q must be an integer, not nan"),
            (2.5, TypeError, "n_q must be an integer, not 2.5"),
            (0, ValueError, "n_q must lie in 1..32767"),
            (40000, ValueError, "n_q must lie in 1..32767")],
    "p_rw": [(True, TypeError, "p_rw must be a real number, not True"),
             (math.nan, ValueError, "p_rw must lie in [0, 1]"),
             (-0.1, ValueError, "p_rw must lie in [0, 1]"),
             (1.5, ValueError, "p_rw must lie in [0, 1]")],
}


@pytest.mark.parametrize("field, entry, value, error, message", [
    pytest.param(field, entry, value, error, message,
                 id=f"{entry}-{field}={value!r}")
    for field, entries in _ENTRIES.items()
    for entry in entries
    for value, error, message in _OUT_OF_DOMAIN[field]
])
def test_every_entry_rejects_a_parameter_outside_its_domain_alike(
        field, entry, value, error, message):
    # bools once ran as 1 (rewire, rewired_clustering, mixture_means) and a
    # fractional n_q failed as a numpy IndexError; one check per parameter
    # gives every entry the same error
    with pytest.raises(error) as info:
        _ENTRIES[field][entry](value)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value", [("r", -1.0), ("r", 1.0),
                                          ("n_q", 4), ("n_q", np.int16(4)),
                                          ("p_rw", 0.0), ("p_rw", 1.0)])
def test_every_entry_takes_a_parameter_inside_its_domain(field, value):
    for call in _ENTRIES[field].values():
        call(value)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: dd.InfectionSpec.constant(True), id="constant-p_i"),
    pytest.param(lambda: dd.InfectionSpec("constant", True), id="init-p_i"),
    pytest.param(lambda: dd.InfectionSpec("constant", 0.2, rate=True),
                 id="constant-rate"),
    pytest.param(lambda: dd.InfectionSpec.exponential(True), id="exp-rate"),
    pytest.param(lambda: dd.InfectionSpec("exponential", True, 0.5, mean=1.0),
                 id="exp-p_i"),
    pytest.param(lambda: dd.InfectionSpec.gamma(True, 2.0), id="gamma-rate"),
    pytest.param(lambda: dd.InfectionSpec("gamma", True, 0.5, shape=2.0,
                                          scale=1.0), id="gamma-p_i"),
])
def test_infection_spec_rejects_a_bool_probability_or_rate(build):
    # InfectionSpec.constant(True) once ran as p_i = 1.0
    with pytest.raises(TypeError, match="must be a real number, not True"):
        build()
