import io
import math

import numpy as np
import pytest

from netepi import distributions as dd
from netepi import netgen as ng
from netepi import netprops as nprops
from netepi.errors import DegenerateNetwork, NoTriplets, ZeroVariance
from oracles import clustering_by_triples


def prob(d, k):
    """P(X = k), 0.0 off the support."""
    return dict(zip(d.support.tolist(), d.probs.tolist())).get(k, 0.0)


def read_net(text):
    return ng.read_network(io.StringIO(text))


def test_analytic_degree_dist_poisson_template():
    # H ~ Poi+(mu), G ~ Poi(gamma-mu): total degree is Poi(gamma)
    d = nprops.analytic_degree_dist(dd.poisson_plus(4.0), dd.poisson(6.0))
    ref = dd.poisson(10.0)
    for k in range(0, 35):
        assert prob(d, k) == pytest.approx(prob(ref, k), abs=1e-10)


def test_analytic_degree_dist_point_masses():
    d = nprops.analytic_degree_dist(dd.point(3), dd.point(2))
    assert dict(zip(d.support.tolist(), d.probs.tolist())) == {4: 1.0}


@pytest.mark.parametrize("mu", [2.0, 4.0, 6.0])
def test_clustering_poisson_template_closed_form(mu):
    gamma = 10.0
    c = nprops.analytic_clustering(dd.poisson_plus(mu), dd.poisson(gamma - mu))
    assert c == pytest.approx((mu / gamma) ** 2, abs=1e-10)


def test_clustering_hand_cases():
    # pure triangles
    assert nprops.analytic_clustering(dd.point(3), dd.point(0)) == pytest.approx(1.0)
    # household pairs only: no closed triples
    assert nprops.analytic_clustering(dd.point(2), dd.point(1)) == 0.0
    # mixed: closed = 0.5*3*2*1 = 3; paths = 0.5*1*1*0 + 0.5*3*3*2 = 9
    c = nprops.analytic_clustering(dd.from_pmf({1: 0.5, 3: 0.5}), dd.point(1))
    assert c == pytest.approx(1 / 3, abs=1e-12)


def test_clustering_no_paths_raises():
    with pytest.raises(NoTriplets):
        nprops.analytic_clustering(dd.point(1), dd.point(1))


def test_rewired_clustering_scales_linearly():
    h, g = dd.poisson_plus(2.0), dd.poisson(8.0)
    c0 = nprops.analytic_clustering(h, g)
    assert nprops.rewired_clustering(h, g, 0.0) == pytest.approx(c0)
    assert nprops.rewired_clustering(h, g, 0.25) == pytest.approx(0.75 * c0, abs=1e-14)
    assert nprops.rewired_clustering(h, g, 1.0) == 0.0
    with pytest.raises(ValueError):
        nprops.rewired_clustering(h, g, 1.2)


def test_poisson_c_rho_matches_general_pipeline():
    gamma = 10.0
    for mu in (2.0, 4.0, 6.9676):
        for r in (-1.0, -0.37, 0.0, 0.64, 1.0):
            for n_q in (1, 10):
                c_fast, rho_fast = nprops.poisson_c_rho(gamma, mu, r, n_q)
                h = dd.poisson_plus(mu)
                g = dd.poisson(gamma - mu)
                c_gen = nprops.analytic_clustering(h, g)
                rho_gen = nprops.analytic_degree_corr(h, g, r, n_q)
                assert c_fast == pytest.approx(c_gen, abs=1e-10)
                assert rho_fast == pytest.approx(rho_gen, abs=1e-10)


def test_rho_equals_c_at_zero_correlation():
    for mu in (2.0, 4.0, 6.0):
        c, rho = nprops.poisson_c_rho(10.0, mu, 0.0, 10)
        assert rho == pytest.approx(c, abs=1e-12)


def test_rho_monotone_in_r_and_bounded_by_envelope():
    gamma, mu, n_q = 10.0, 4.0, 10
    grid = np.linspace(-1, 1, 21)
    rhos = [nprops.poisson_c_rho(gamma, mu, r, n_q)[1] for r in grid]
    assert np.all(np.diff(rhos) >= -1e-12)
    c = (mu / gamma) ** 2
    # the n_q -> infinity, r = 1 ceiling
    assert rhos[-1] <= 1 + c - math.sqrt(c) + 1e-9


def test_rho_envelope_approached_at_large_n_q():
    gamma, mu = 10.0, 4.0
    c, rho = nprops.poisson_c_rho(gamma, mu, 1.0, 1000)
    assert abs(rho - (1 + c - math.sqrt(c))) < 0.01


def test_published_base_point():
    # r=-1, mu=6.9676 at gamma=10, n_q=10 sits on rho=0.2, c=0.4855
    c, rho = nprops.poisson_c_rho(10.0, 6.9676, -1.0, 10)
    assert c == pytest.approx(0.4855, abs=5e-4)
    assert rho == pytest.approx(0.2, abs=5e-4)


def test_degree_corr_households_only():
    # no global edges: both endpoint degrees equal the household degree
    rho = nprops.analytic_degree_corr(dd.from_pmf({2: 0.5, 3: 0.5}), dd.point(0),
                                      0.0, 1)
    assert rho == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroVariance):
        nprops.analytic_degree_corr(dd.point(3), dd.point(0), 0.0, 1)


def test_degree_corr_no_households():
    # H == 1: rho reduces to dispersion / var of the stub degree law
    g = dd.poisson(10.0)
    comp = nprops.degree_corr_components(dd.point(1), g, 1.0, 10)
    assert comp.p_global == pytest.approx(1.0)
    d_tilde = dd.stub_degree_law(dd.point(1), g)
    assert comp.rho == pytest.approx(
        comp.block_dispersion / d_tilde.variance(), abs=1e-12
    )


def test_degree_corr_components_consistency():
    comp = nprops.degree_corr_components(dd.poisson_plus(2.0), dd.poisson(8.0),
                                         0.6, 10)
    assert comp.covariance == pytest.approx(
        comp.expected_conditional_cov + comp.cov_of_conditional_means, abs=1e-14
    )
    assert 0.0 < comp.p_global < 1.0
    assert comp.variance > 0.0
    assert -1.0 <= comp.rho <= 1.0


def test_empirical_clustering_k4_minus_edge():
    net = read_net(
        "#n 4\n#households 1,1,1,1\n"
        "0 1 global\n0 2 global\n0 3 global\n1 2 global\n1 3 global\n"
    )
    assert nprops.empirical_clustering(net) == pytest.approx(0.75, abs=1e-12)


def test_empirical_clustering_collapses_parallels_and_loops():
    net = read_net(
        "#n 3\n#households 1,1,1\n"
        "0 1 global\n0 1 global\n1 2 global\n0 2 global\n2 2 global\n"
    )
    assert nprops.empirical_clustering(net) == pytest.approx(1.0, abs=1e-12)


def test_empirical_clustering_requires_paths():
    net = read_net("#n 2\n#households 1,1\n0 1 global\n")
    with pytest.raises(NoTriplets):
        nprops.empirical_clustering(net)


def test_empirical_clustering_matches_brute_force_triples():
    # random multigraphs with self-loops and parallel edges, sparse to
    # dense; the triangle and path counts are exact integers, so the
    # coefficient must agree to the last bit
    rng = np.random.default_rng(2024)
    no_paths = 0
    for _ in range(40):
        n = int(rng.integers(1, 61))
        m = int(rng.uniform(0.0, 0.6) * n * (n - 1) / 2)
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        again = rng.integers(0, max(m, 1), m // 3) if m else np.empty(0, int)
        loops = rng.integers(0, n, int(rng.integers(0, 4)))
        u = np.concatenate([u, v[again], loops])
        v = np.concatenate([v, u[again], loops])
        net = ng.Network(n, np.ones(n, dtype=np.int64), u, v,
                         np.zeros(u.size, dtype=bool),
                         np.zeros(u.size, dtype=np.int16),
                         np.zeros(u.size, dtype=np.int16))
        closed, paths = clustering_by_triples(n, u, v)
        if paths == 0:
            no_paths += 1
            with pytest.raises(NoTriplets):
                nprops.empirical_clustering(net)
        else:
            assert nprops.empirical_clustering(net) == closed / paths
    assert no_paths < 10


def test_empirical_degree_corr_star_is_minus_one():
    net = read_net("#n 4\n#households 1,1,1,1\n0 1 global\n0 2 global\n0 3 global\n")
    assert nprops.empirical_degree_corr(net) == pytest.approx(-1.0, abs=1e-12)


def test_empirical_degree_corr_excludes_loops_but_keeps_their_degree():
    net = read_net("#n 3\n#households 1,1,1\n0 1 global\n1 2 global\n2 2 global\n")
    # stub degrees 1, 2, 3 (the loop adds 2); ordered pairs from the two
    # non-loop edges only
    x = np.array([1.0, 2.0, 2.0, 3.0])
    y = np.array([2.0, 1.0, 3.0, 2.0])
    expected = np.corrcoef(x, y)[0, 1]
    assert nprops.empirical_degree_corr(net) == pytest.approx(expected, abs=1e-12)


def test_empirical_degree_corr_degenerate_cases():
    with pytest.raises(DegenerateNetwork):
        nprops.empirical_degree_corr(
            read_net("#n 1\n#households 1\n0 0 global\n")
        )
    with pytest.raises(ZeroVariance):
        nprops.empirical_degree_corr(
            read_net("#n 2\n#households 1,1\n0 1 global\n")
        )


def test_empirical_matches_analytic_on_a_medium_build():
    h, g = dd.poisson_plus(2.0), dd.poisson(8.0)
    spec = ng.GenSpec(n=30_000, household=h, global_degree=g, r=0.8, n_q=10)
    net = ng.build_network(spec, 31)
    c_emp = nprops.empirical_clustering(net)
    rho_emp = nprops.empirical_degree_corr(net)
    assert abs(c_emp - nprops.analytic_clustering(h, g)) < 0.01
    assert abs(rho_emp - nprops.analytic_degree_corr(h, g, 0.8, 10)) < 0.02


def test_rewiring_dilutes_empirical_clustering():
    h, g = dd.poisson_plus(3.0), dd.poisson(4.0)
    spec = ng.GenSpec(n=30_000, household=h, global_degree=g, r=0.0, n_q=1)
    net = ng.build_network(spec, 13)
    half = ng.rewire(net, 0.5, 77)
    c_full = nprops.empirical_clustering(net)
    c_half = nprops.empirical_clustering(half)
    assert abs(c_half - 0.5 * c_full) < 0.01
    assert abs(c_half - nprops.rewired_clustering(h, g, 0.5)) < 0.01