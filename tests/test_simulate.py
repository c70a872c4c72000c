"""Tests for the percolation epidemics and the Monte Carlo estimator.

The exact oracle enumerates every bond pattern of a small multigraph
(tests/oracles.py) for a constant infectious period; general periods
are checked through the exact forward/backward mean identity.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netepi.branching import ModelParams
from netepi.distributions import InfectionSpec, from_pmf, point, poisson, poisson_plus
from netepi.errors import AmbiguousBimodality, NoMajorOutbreaks
from netepi.netgen import GenSpec, Network, build_network, index_dtype, rewire
from netepi.simulate import (
    EpidemicOutcome,
    EstimateReport,
    _run_one,
    classify,
    estimate,
    run_epidemic,
)

from oracles import (
    enumerate_bond_percolation,
    household_pmf_chain_binomial,
    reference_adjacency,
    reference_percolation_bfs,
)


def test_outcome_rejects_inconsistent_generations():
    # a real check, not an assert, so it also holds under python -O
    with pytest.raises(ValueError):
        EpidemicOutcome(3, 0.1, np.array([1, 1]))
    assert EpidemicOutcome(2, 0.1, np.array([1, 1])).final_size == 2


def tiny_network(edges, n):
    """Fabricate a bare Network (one big household label, no blocks)."""
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    zeros = np.zeros(eu.size, dtype=np.int16)
    return Network(
        n=n,
        household_sizes=np.array([n], dtype=np.int64),
        edges_u=eu,
        edges_v=ev,
        edge_local=np.zeros(eu.size, dtype=bool),
        stub_q_u=zeros,
        stub_q_v=zeros,
    )


# graph with a cycle, a chord, a parallel edge and a self-loop
TINY_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 2), (3, 3)]
TINY_N = 4


@pytest.mark.parametrize("edges", [TINY_EDGES, []])
def test_adjacency_matches_argsort_construction_and_is_cached(edges):
    net = tiny_network(edges, TINY_N)
    indptr, heads = net.adjacency
    src = np.concatenate([net.edges_u, net.edges_v])
    dst = np.concatenate([net.edges_v, net.edges_u])
    assert np.array_equal(heads, dst[np.argsort(src, kind="stable")])
    # the index dtype of n and 2 * n_edges, whatever the edges' own
    assert indptr.dtype == heads.dtype == index_dtype(TINY_N, src.size)
    assert np.array_equal(
        indptr, np.concatenate(([0], np.cumsum(np.bincount(src, minlength=TINY_N)))))
    # built once, shared by later reads, protected against writes
    assert net.adjacency[1] is heads
    assert not indptr.flags.writeable and not heads.flags.writeable
    # the cache takes no part in equality
    assert net == tiny_network(edges, TINY_N)


def assert_matches_reference_bfs(net, infections, seeds, start=None):
    """Bitwise: the same final size and generation counts as the original
    sort-based loop, for every period kind, direction and seed.  Returns
    the final sizes."""
    adjacency = reference_adjacency(net)
    sizes = []
    for infection in infections:
        for reverse in (False, True):
            for seed in seeds:
                out = run_epidemic(net, infection, seed=seed, start=start,
                                   reverse=reverse)
                size, generations = reference_percolation_bfs(
                    net, infection, seed=seed, start=start, reverse=reverse,
                    adjacency=adjacency)
                assert out.final_size == size
                assert np.array_equal(out.generations, generations)
                sizes.append(size)
    return sizes


BOTH_PERIODS = [InfectionSpec.constant(0.3), InfectionSpec.gamma(0.3, 2.0)]


@pytest.mark.parametrize("n", [200, 10_000])
def test_run_epidemic_matches_reference_bfs(n):
    spec = GenSpec(n=n, household=poisson_plus(2.0), global_degree=poisson(4.0),
                   r=-0.5, n_q=5)
    for build_seed in range(3):
        net = rewire(build_network(spec, seed=build_seed), 0.3, seed=build_seed)
        assert_matches_reference_bfs(net, BOTH_PERIODS, range(4))
        # a given start, as a numpy integer
        assert_matches_reference_bfs(net, BOTH_PERIODS, range(2),
                                     start=np.int64(n // 2))


def test_run_epidemic_matches_reference_bfs_on_edge_cases():
    # the TINY network's self-loop and parallel edge, from every start
    net = tiny_network(TINY_EDGES, TINY_N)
    dense = [InfectionSpec.constant(0.6), InfectionSpec.gamma(1.5, 2.0)]
    for start in range(TINY_N):
        assert_matches_reference_bfs(net, dense, range(6), start=start)
    # a start with no neighbours: its level lists no bond
    isolated = tiny_network([(1, 2), (2, 3)], 4)
    assert_matches_reference_bfs(isolated, dense, range(3), start=0)
    # one node and no edge, its start drawn or given
    single = tiny_network([], 1)
    assert_matches_reference_bfs(single, dense, range(3))
    assert_matches_reference_bfs(single, dense, range(3), start=0)


@pytest.mark.slow
def test_run_epidemic_matches_reference_bfs_on_large_levels():
    # network_large's model and gamma period at n = 2e5: levels of about
    # a million bonds, so every mask density of a major outbreak occurs
    pm = ModelParams(poisson_plus(2.0), poisson(8.0), -0.5, 10,
                     InfectionSpec.gamma(0.6, 4.0, 0.25), p_rw=0.3)
    n = 200_000
    net = rewire(build_network(pm.gen_spec(n), seed=11), pm.p_rw, seed=12)
    sizes = assert_matches_reference_bfs(net, [pm.infection], range(20))
    assert max(sizes) > n // 2  # major outbreaks among the seeds


def test_run_epidemic_rejects_start_outside_network():
    net = build_network(GenSpec(n=50, household=poisson_plus(2.0),
                                global_degree=poisson(3.0)), seed=1)
    spec = InfectionSpec.constant(0.5)
    # True is an int but no node id: seen[True] would mark every node
    for start in (-1, 50, 1000, True, 1.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="start"):
            run_epidemic(net, spec, seed=0, start=start)
    assert run_epidemic(net, spec, seed=0, start=49).final_size >= 1
    numpy_start = run_epidemic(net, spec, seed=0, start=np.int64(49))
    assert numpy_start.final_size == run_epidemic(net, spec, seed=0,
                                                  start=49).final_size


def tiny_pmfs(p):
    directed = []
    for u, v in TINY_EDGES:
        directed.append((u, v))
        directed.append((v, u))
    return enumerate_bond_percolation(TINY_N, p, directed, source=0)


def empirical_pmf(net, infection, n_runs, seed, reverse=False):
    counts = np.zeros(net.n)
    rng = np.random.default_rng(seed)
    for _ in range(n_runs):
        out = run_epidemic(net, infection, seed=rng.integers(2**63),
                           start=0, reverse=reverse)
        counts[out.final_size - 1] += 1
    return counts / n_runs


def test_constant_period_matches_enumeration_forward_and_reverse():
    p = 0.35
    net = tiny_network(TINY_EDGES, TINY_N)
    out_pmf, in_pmf = tiny_pmfs(p)
    spec = InfectionSpec.constant(p)
    emp_fwd = empirical_pmf(net, spec, 30_000, seed=5)
    emp_rev = empirical_pmf(net, spec, 30_000, seed=6, reverse=True)
    assert 0.5 * np.abs(emp_fwd - out_pmf).sum() < 0.02
    assert 0.5 * np.abs(emp_rev - in_pmf).sum() < 0.02


@pytest.mark.slow
def test_triangle_final_size_pmf():
    # complete graph on three nodes, p = 0.5: exact law of the total
    # count infected is (0.25, 0.25, 0.5) by both bond enumeration and
    # the chain binomial
    net = tiny_network([(0, 1), (0, 2), (1, 2)], 3)
    exact = household_pmf_chain_binomial(3, 0.5)
    assert np.allclose(exact, [0.25, 0.25, 0.5], atol=1e-12)
    emp = empirical_pmf(net, InfectionSpec.constant(0.5), 100_000, seed=21)
    for k in range(3):
        se = math.sqrt(exact[k] * (1 - exact[k]) / 100_000)
        assert abs(emp[k] - exact[k]) <= 3.0 * se


def test_disconnected_start_is_size_one():
    net = tiny_network([(1, 2)], 4)
    out = run_epidemic(net, InfectionSpec.constant(1.0), seed=0, start=0)
    assert out.final_size == 1
    assert out.generations.tolist() == [1]


def test_full_transmission_reaches_component():
    net = tiny_network(TINY_EDGES, TINY_N)
    out = run_epidemic(net, InfectionSpec.constant(1.0), seed=0, start=3)
    assert out.final_size == TINY_N
    assert int(out.generations.sum()) == TINY_N
    assert out.generations[0] == 1


def test_generations_partition_final_size():
    net = build_network(
        ModelParams(poisson_plus(2.0), poisson(5.0), 0.0, 1,
                    InfectionSpec.constant(0.4)).gen_spec(2000),
        seed=42)
    for s in range(5):
        out = run_epidemic(net, InfectionSpec.constant(0.4), seed=s)
        assert int(out.generations.sum()) == out.final_size
        assert np.all(out.generations >= 1)


def test_minor_outbreak_stays_within_its_memory_budget():
    # tracemalloc peak of one run on a cached adjacency: the two n-byte
    # masks and what the outbreak touches; an O(n) array of counts or
    # ids (np.diff(indptr) alone is 4n bytes at int32) breaks the budget
    n = 200_000
    net = build_network(GenSpec(n=n, household=poisson_plus(2.0),
                                global_degree=poisson(8.0), r=0.5, n_q=10),
                        seed=3)
    net.adjacency
    spec = InfectionSpec.constant(0.01)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peaks, sizes = [], []
    try:
        for seed in range(20):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sizes.append(run_epidemic(net, spec, seed=seed).final_size)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert max(sizes) < 100  # minor outbreaks only
    assert max(peaks) < 3 * n, max(peaks)


def test_run_epidemic_deterministic_per_seed():
    net = tiny_network(TINY_EDGES, TINY_N)
    spec = InfectionSpec.exponential(0.9, 1.0)
    a = run_epidemic(net, spec, seed=123, start=1)
    b = run_epidemic(net, spec, seed=123, start=1)
    assert a.final_size == b.final_size
    assert np.array_equal(a.generations, b.generations)


def test_general_period_forward_backward_means_agree():
    # E|out-set| = E|in-set| holds exactly for any bond law; check the
    # Monte Carlo means on one fixed network with exponential periods
    pm = ModelParams(poisson_plus(1.5), poisson(4.0), 0.0, 1,
                     InfectionSpec.exponential(1.0, 0.4))
    net = build_network(pm.gen_spec(300), seed=9)
    rng = np.random.default_rng(17)
    runs = 4000
    fwd = np.array([
        run_epidemic(net, pm.infection, seed=rng.integers(2**63)).final_size
        for _ in range(runs)])
    bwd = np.array([
        run_epidemic(net, pm.infection, seed=rng.integers(2**63),
                     reverse=True).final_size
        for _ in range(runs)])
    se = math.sqrt(fwd.var(ddof=1) / runs + bwd.var(ddof=1) / runs)
    assert abs(fwd.mean() - bwd.mean()) <= 4.0 * se


@pytest.mark.parametrize("infection, forward, backward", [
    pytest.param(InfectionSpec.exponential(rate=0.3, mean=1.5),
                 [1774, 1799, 1775, 1798, 1], [1322, 1343, 1357, 1386, 1361],
                 id="exponential"),
    pytest.param(InfectionSpec.gamma(rate=0.6, shape=4.0, scale=0.25),
                 [1924, 1, 1915, 1911, 1930], [1848, 1803, 1822, 1849, 1859],
                 id="gamma"),
])
def test_general_period_final_sizes_pinned(infection, forward, backward):
    # a general period's draws must stay the same RNG calls; the sizes
    # also move with the generator's stream, which builds the network
    net = build_network(GenSpec(n=2000, household=poisson_plus(2.0),
                                global_degree=poisson(6.0), r=-0.5, n_q=10),
                        seed=3)
    for reverse, sizes in ((False, forward), (True, backward)):
        assert [run_epidemic(net, infection, seed=s, reverse=reverse)
                .final_size for s in range(5)] == sizes


def test_outcome_reports_infected_fraction():
    net = tiny_network(TINY_EDGES, TINY_N)
    out = run_epidemic(net, InfectionSpec.constant(1.0), seed=0, start=0)
    assert out.infected_fraction == out.final_size / TINY_N


def test_classify_fraction_and_absolute_cutoffs():
    sizes = np.array([2, 3, 4800, 9900])
    major, threshold = classify(sizes, 0.05, 10_000)
    assert threshold == 500
    assert major.tolist() == [False, False, True, True]
    major2, threshold2 = classify(np.array([2, 3, 480, 9900]), 5000, 10_000)
    assert threshold2 == 5000
    assert major2.tolist() == [False, False, False, True]
    with pytest.raises(ValueError):
        classify(sizes, 0.0, 10_000)


def test_classify_warns_near_threshold():
    sizes = np.array([95, 100, 104, 5000, 6000])
    with pytest.warns(AmbiguousBimodality):
        classify(sizes, 100, 10_000)


# -- the estimator -------------------------------------------------------


def small_params(p_i=0.3):
    return ModelParams(poisson_plus(1.5), poisson(5.0), 0.0, 1,
                       InfectionSpec.constant(p_i))


def test_estimate_reproducible_and_coherent():
    rep = estimate(small_params(), n=1500, n_sims=150, master_seed=2024)
    rep2 = estimate(small_params(), n=1500, n_sims=150, master_seed=2024)
    assert np.array_equal(rep.final_sizes, rep2.final_sizes)
    assert np.array_equal(rep.seeds, rep2.seeds)
    assert rep.n_major == rep.major.sum()
    assert rep.cutoff_used == 75
    assert 0.0 < rep.p_hat < 1.0
    assert 0.0 < rep.z_hat < 1.0
    assert rep.p_se == pytest.approx(
        math.sqrt(rep.p_hat * (1 - rep.p_hat) / 150))
    hist = rep.histogram
    assert hist.sum() == 150
    assert int((hist * np.arange(hist.size)).sum()) == int(rep.final_sizes.sum())
    other = estimate(small_params(), n=1500, n_sims=150, master_seed=2025)
    assert not np.array_equal(rep.final_sizes, other.final_sizes)


def test_estimate_threads_merge_identically():
    one = estimate(small_params(), n=800, n_sims=64, master_seed=7, threads=1)
    two = estimate(small_params(), n=800, n_sims=64, master_seed=7, threads=2)
    assert np.array_equal(one.final_sizes, two.final_sizes)
    assert one.p_hat == two.p_hat


def test_estimate_pool_keeps_seed_order_over_uneven_chunks():
    # 13 rewired runs over 2 workers come back in chunks of 2, the last
    # one short; run k must still be the run of seed k
    pm = replace(small_params(), p_rw=0.4)
    one = estimate(pm, n=500, n_sims=13, master_seed=19, threads=1)
    two = estimate(pm, n=500, n_sims=13, master_seed=19, threads=2)
    assert np.array_equal(one.final_sizes, two.final_sizes)
    assert np.array_equal(one.seeds, two.seeds)
    by_seed = [_run_one(pm, 500, s) for s in two.seeds.tolist()]
    assert two.final_sizes.tolist() == by_seed


def test_estimate_subcritical_raises_on_z():
    rep = estimate(small_params(p_i=0.02), n=1200, n_sims=80, master_seed=3)
    assert rep.p_hat == 0.0
    assert rep.n_major == 0
    with pytest.raises(NoMajorOutbreaks):
        rep.z_hat
    with pytest.raises(NoMajorOutbreaks):
        rep.z_se


def test_estimate_warns_when_sizes_crowd_the_cutoff():
    # subcritical, tiny cutoff: plenty of minor outbreaks land near it
    with pytest.warns(AmbiguousBimodality):
        estimate(small_params(p_i=0.12), n=1200, n_sims=120, master_seed=11,
                 cutoff=0.004)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate(small_params(), n=100, n_sims=0, master_seed=1)
    with pytest.raises(ValueError):
        estimate(small_params(), n=100, n_sims=5, master_seed=1,
                 cutoff=-0.5)


@pytest.mark.parametrize("field, value, error, message", [
    ("n_sims", True, TypeError, "n_sims must be an integer, not True"),
    ("n_sims", 2.5, TypeError, "n_sims must be an integer, not 2.5"),
    ("n_sims", 0, ValueError, "n_sims must be >= 1"),
    ("threads", True, TypeError, "threads must be an integer, not True"),
    ("threads", 2.5, TypeError, "threads must be an integer, not 2.5"),
    ("threads", 0, ValueError, "threads must be >= 1"),
    ("threads", -3, ValueError, "threads must be >= 1"),
])
def test_estimate_rejects_a_count_that_is_not_a_positive_integer(
        field, value, error, message):
    # n_sims=True once ran one sim and reported n_sims as True, and a
    # threads below 1 ran serially without a word
    kw = {"n": 100, "n_sims": 5, "master_seed": 1, field: value}
    with pytest.raises(error) as info:
        estimate(small_params(), **kw)
    assert str(info.value) == message


def test_estimate_takes_numpy_integer_counts():
    got = estimate(small_params(), n=300, n_sims=np.int64(6), master_seed=4,
                   threads=np.int64(1))
    want = estimate(small_params(), n=300, n_sims=6, master_seed=4)
    assert np.array_equal(got.final_sizes, want.final_sizes)


def test_estimate_with_general_period_and_threads():
    pm = ModelParams(poisson_plus(1.5), poisson(5.0), 0.0, 1,
                     InfectionSpec.exponential(1.0, 0.45))
    one = estimate(pm, n=600, n_sims=40, master_seed=5, threads=1)
    two = estimate(pm, n=600, n_sims=40, master_seed=5, threads=2)
    assert np.array_equal(one.final_sizes, two.final_sizes)


@pytest.mark.slow
def test_estimate_standard_errors_cover():
    # 50 independent estimates; about 95% of the 2-SE intervals around
    # each p_hat should cover the pooled mean
    pm = small_params(p_i=0.25)
    reps = [estimate(pm, n=2000, n_sims=200, master_seed=1000 + k)
            for k in range(50)]
    p_hats = np.array([r.p_hat for r in reps])
    ses = np.array([r.p_se for r in reps])
    pooled = p_hats.mean()
    covered = np.abs(p_hats - pooled) <= 2.0 * ses
    assert covered.sum() >= 45
