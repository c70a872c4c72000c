import hashlib
import io
import random
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from netepi import distributions as dd
from netepi import netgen as ng
from netepi.branching import ModelParams
from netepi.distributions import InfectionSpec
from netepi.simulate import estimate, run_epidemic
from oracles import reference_read_network, reference_write_network


def network_text(net):
    buf = io.StringIO()
    ng.write_network(net, buf)
    return buf.getvalue()


def small_spec(**kw):
    args = dict(n=200, household=dd.poisson_plus(2.0),
                global_degree=dd.poisson(3.0), r=0.5, n_q=4)
    args.update(kw)
    return ng.GenSpec(**args)


def test_build_is_deterministic_in_seed():
    spec = small_spec()
    a = ng.build_network(spec, 123)
    b = ng.build_network(spec, 123)
    c = ng.build_network(spec, 124)
    assert a == b
    assert a != c


def test_household_layout_and_truncation():
    spec = small_spec(n=10, household=dd.point(4), global_degree=dd.point(0))
    net = ng.build_network(spec, 0)
    assert list(net.household_sizes) == [4, 4, 2]
    assert int(net.household_sizes.sum()) == net.n
    # complete graphs: 6 + 6 + 1 local edges, no global
    assert net.n_edges == 13
    assert np.all(net.edge_local)
    # node 9 sits in the truncated household of size 2
    assert net.household_sizes[net.household_index[9]] == 2


def test_local_edges_form_household_cliques():
    spec = small_spec(n=50)
    net = ng.build_network(spec, 7)
    size_of_node = net.household_sizes[net.household_index]
    lu = net.edges_u[net.edge_local]
    lv = net.edges_v[net.edge_local]
    assert np.all(net.household_index[lu] == net.household_index[lv])
    local_deg = np.bincount(lu, minlength=net.n) + np.bincount(lv, minlength=net.n)
    assert np.array_equal(local_deg, size_of_node - 1)


def test_total_degree_is_household_plus_global_endpoints():
    spec = small_spec(n=300, r=-0.7, n_q=5)
    net = ng.build_network(spec, 11)
    size_of_node = net.household_sizes[net.household_index]
    gu = net.edges_u[~net.edge_local]
    gv = net.edges_v[~net.edge_local]
    global_deg = np.bincount(gu, minlength=net.n) + np.bincount(gv, minlength=net.n)
    assert np.array_equal(net.degrees(), size_of_node - 1 + global_deg)


def test_full_correlation_pairs_within_blocks():
    spec = ng.GenSpec(n=100_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=1.0, n_q=10)
    net = ng.build_network(spec, 99)
    is_global = ~net.edge_local
    qu = net.stub_q_u[is_global]
    qv = net.stub_q_v[is_global]
    assert np.all(qu > 0) and np.all(qv > 0)
    assert np.mean(qu == qv) >= 0.999
    assert net.imperfections.discarded_x0 == 0


def test_group_by_matches_stable_argsort_and_bincount():
    rng = np.random.default_rng(3)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        rng.integers(0, 40, 5000),                 # many ties
        rng.integers(0, 2**16, 5000),
        rng.integers(2**16, 2**16 + 5000, 5000),   # keys >= 2**16
        rng.integers(0, 300, 5000).astype(np.int16),
    ]
    for keys in cases:
        values = rng.integers(-2**40, 2**40, keys.size)
        n_keys = int(keys.max(initial=-1)) + 3     # trailing empty groups
        indptr, grouped = ng._group_by([(keys, values)], n_keys)
        assert np.array_equal(grouped, values[np.argsort(keys, kind="stable")])
        assert np.array_equal(np.diff(indptr),
                              np.bincount(keys, minlength=n_keys))
        assert indptr[0] == 0 and indptr.size == n_keys + 1
    with pytest.raises(ValueError, match="one shape"):
        ng._group_by([(np.zeros(3, dtype=np.int64),
                       np.zeros(2, dtype=np.int64))], 1)


def _group_by_reference(parts, n_keys):
    keys = np.concatenate([k for k, _ in parts])
    values = np.concatenate([v for _, v in parts])
    return (np.bincount(keys, minlength=n_keys),
            values[np.argsort(keys, kind="stable")])


@pytest.mark.parametrize("blocks", [7, 100, 5000])
def test_blocked_group_by_matches_stable_argsort_and_bincount(monkeypatch,
                                                             blocks):
    # no cache and 8, 126 or 1001 blocks of the 1001 keys, so that every
    # case below takes the two passes: parts in order, an empty part,
    # n_keys not a multiple of the block width, a single key, and keys at
    # 0 and n_keys - 1
    monkeypatch.setattr(ng, "_CACHE_BYTES", 0)
    monkeypatch.setattr(ng, "_BLOCKS", blocks)
    rng = np.random.default_rng(4)

    def part(keys):
        keys = np.asarray(keys)
        return keys, rng.integers(-2**40, 2**40, keys.size)

    n_keys = 1001
    empty = np.empty(0, dtype=np.int64)
    cases = [
        [part(rng.integers(0, n_keys, 3000))],
        [part(rng.integers(0, n_keys, 3000)), part(rng.integers(0, 40, 500))],
        [part(rng.integers(0, n_keys, 2000)), part(empty),
         part(rng.integers(0, n_keys, 2000)),
         part(rng.integers(0, n_keys, 2000).astype(np.int16))],
        [part(empty), part([0, n_keys - 1, 0, n_keys - 1, 500])],
        [part(np.full(700, n_keys - 1)), part(np.zeros(300, dtype=np.int64))],
        [part(np.full(50, 7))],
    ]
    for parts in cases:
        counts, expected = _group_by_reference(parts, n_keys)
        indptr, grouped = ng._group_by(parts, n_keys)
        assert np.array_equal(grouped, expected)
        assert np.array_equal(np.diff(indptr), counts)
        assert indptr[0] == 0 and indptr.size == n_keys + 1
    # n_keys = 1, in one block
    indptr, grouped = ng._group_by([part(np.zeros(5, dtype=np.int64))], 1)
    assert indptr.tolist() == [0, 5] and grouped.size == 5
    with pytest.raises(ValueError, match=r"keys must lie in 0\.\.1000"):
        ng._group_by([part(np.arange(5)), part(np.array([3, n_keys]))],
                     n_keys)


def test_adjacency_takes_the_blocked_path_bitwise(monkeypatch):
    # at n = 1e5 the real block size cuts the nodes into several blocks,
    # one kernel call per part and one more: the CSR must equal one
    # scatter of the concatenated ends, bitwise, self-loops and parallel
    # edges included
    spec = ng.GenSpec(n=100_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=-0.5, n_q=10)
    net = ng.rewire(ng.build_network(spec, 5), 0.3, 6)
    u, v = net.edges_u, net.edges_v
    assert net.imperfections.self_loops and net.imperfections.parallel_edges
    calls = []
    kernel = ng._sparsetools.coo_tocsr
    monkeypatch.setattr(ng._sparsetools, "coo_tocsr",
                        lambda *args: calls.append(args[0]) or kernel(*args))
    net.adjacency
    monkeypatch.undo()
    assert len(calls) == 3 and 1 < calls[0] < net.n, calls
    keys = np.concatenate([u, v])
    values = np.concatenate([v, u])
    indptr = np.empty(net.n + 1, dtype=values.dtype)
    heads = np.empty(keys.size, dtype=values.dtype)
    ng._sparsetools.coo_tocsr(net.n, 1, keys.size, keys, values, values,
                              indptr, heads, heads)
    assert net.adjacency[0].dtype == indptr.dtype
    assert net.adjacency[0].tobytes() == indptr.tobytes()
    assert net.adjacency[1].tobytes() == heads.tobytes()


def test_adjacency_rejects_endpoints_outside_network():
    # 2**32 + 1 and -2**32 wrap to 1 and 0 in int32: the check must see
    # the ends as given
    for bad in (3, -1, 2**32 + 1, -2**32):
        net = ng.Network(
            n=3, household_sizes=np.array([3]),
            edges_u=np.array([0, 1]), edges_v=np.array([2, bad]),
            edge_local=np.zeros(2, dtype=bool),
            stub_q_u=np.zeros(2, dtype=np.int16),
            stub_q_v=np.zeros(2, dtype=np.int16))
        with pytest.raises(ValueError, match="keys must lie in 0..2"):
            net.adjacency


def test_reader_checks_endpoints_before_narrowing():
    # 4294967297 is 2**32 + 1, which wraps to 1 in int32
    text = "#n 3\n#households 3\n0 4294967297 local\n"
    with pytest.raises(Exception):
        reference_read_network(io.StringIO(text))
    with pytest.raises(ValueError, match="endpoint out of range"):
        ng.read_network(io.StringIO(text))


def test_index_dtype_narrows_below_the_int32_maximum():
    assert ng.index_dtype(0) == np.int32
    assert ng.index_dtype(2**31 - 2) == np.int32
    assert ng.index_dtype(2**31 - 1) == np.int64
    assert ng.index_dtype(5, 2**31 - 2) == np.int32
    assert ng.index_dtype(5, 2**31 - 1, 7) == np.int64


def test_networks_differing_in_any_one_field_compare_unequal():
    net = ng.build_network(small_spec(), 5)
    assert replace(net) == net
    for field in fields(ng.Network):
        value = getattr(net, field.name)
        changed = (np.append(value, value[:1]) if isinstance(value, np.ndarray)
                   else value + 1)
        assert replace(net, **{field.name: changed}) != net, field.name


def test_structure_layer_stores_int32_ids(tmp_path):
    spec = small_spec(n=5000, global_degree=dd.poisson(8.0), r=-0.5, n_q=7)
    built = ng.build_network(spec, 3)
    net = ng.rewire(built, 0.3, 4)
    path = tmp_path / "net.txt"
    ng.write_network(net, path)
    back = ng.read_network(path)
    assert back == net
    for each in (built, net, back):
        assert each.edges_u.dtype == each.edges_v.dtype == np.int32
        assert each.household_index.dtype == np.int32
        indptr, heads = each.adjacency
        assert indptr.dtype == heads.dtype == np.int32
        assert each.stub_q_u.dtype == each.stub_q_v.dtype == np.int16
    # rewire keeps its input's id dtype, so it narrows no unchecked end
    hand_built = ng.rewire(_hand_built_network(), 0.5, 1)
    assert hand_built.edges_u.dtype == hand_built.edges_v.dtype == np.int64


# tracemalloc peak bytes per built edge of each structure stage, counting
# what is alive during the stage (the input network included): int64 ids
# took 69 / 54 / 73 B/edge, int32 ids written straight from the stubs
# into the edge arrays took 44 / 35 / 41, ranking nodes rather than
# stubs, with no int8 payload in the grouping, took 42 / 35 / 39, and one
# shuffle of every global stub ranked in place, with rewire writing into
# the slots it breaks, takes 35 / 28 / 39
MEMORY_BUDGET = {"build": 44, "rewire": 38, "adjacency": 49}


def test_structure_stages_stay_within_their_memory_budget():
    spec = ng.GenSpec(n=100_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=-0.5, n_q=10)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peak = {}

    def traced(stage, f, *args):
        tracemalloc.reset_peak()
        out = f(*args)
        peak[stage] = tracemalloc.get_traced_memory()[1]
        return out

    try:
        net = traced("build", ng.build_network, spec, 5)
        rewired = traced("rewire", ng.rewire, net, 0.3, 6)
        del net
        traced("adjacency", lambda: rewired.adjacency)
    finally:
        if not tracing:
            tracemalloc.stop()
    per_edge = {stage: round(b / rewired.n_edges, 1)
                for stage, b in peak.items()}
    assert all(per_edge[s] <= MEMORY_BUDGET[s] for s in per_edge), per_edge


def heads_digest(net) -> str:
    """sha256 of the adjacency heads' values, whatever their index dtype."""
    return hashlib.sha256(
        net.adjacency[1].astype(np.int64).tobytes()).hexdigest()


# sha256 of the edge-list text and of the adjacency heads, and one forward
# final size, of rewire(build_network(spec, 5), 0.3, 6) at n = 20000:
# a change that moves the generator's or the adjacency's output, or the
# RNG stream of run_epidemic, shows here
GOLDEN = {
    -0.5: ("60fe9e30a3a6a2e316039259e57c07a6a55938a13aca7373d9d619143bc3bb59",
           "9dc1b4dbce89d383463154aeca37f11ec5f6add6e045bf9bfa875799db462ef9",
           14182),
    0.5: ("60bd9e30c3978dbf2616a4b4b5145f58de611f1ed64f3a2c3231acc82f90fe7d",
          "2c7b626e07852852b19a843ef7f95c6d64c2d8b82c8b1e0b5ed9fb14b2a08582",
          13698),
    1.0: ("fda11ee08d0a78cb0608583556c790afa1d727d43ea451ca1b5c69f46827fb09",
          "d272744d8350d364730e3262181f7169ffae07b5d154ef89efd48d6b68073a43",
          12783),
}


@pytest.mark.parametrize("r", sorted(GOLDEN))
def test_generator_adjacency_and_epidemic_match_golden_digests(r):
    spec = ng.GenSpec(n=20_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=r, n_q=10)
    net = ng.rewire(ng.build_network(spec, 5), 0.3, 6)
    text, heads, final_size = GOLDEN[r]
    digest = hashlib.sha256(network_text(net).encode()).hexdigest()
    assert digest == text
    assert heads_digest(net) == heads
    out = run_epidemic(net, InfectionSpec.gamma(0.1, 2.0), seed=1)
    assert out.final_size == final_size


def test_odd_block_count_mirror_stream_is_pinned():
    # r = -1 at odd n_q, where the middle block pairs with itself: the
    # same digests as GOLDEN, of rewire(build_network(spec, 5), 0.3, 6)
    spec = ng.GenSpec(n=20_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=-1.0, n_q=7)
    net = ng.rewire(ng.build_network(spec, 5), 0.3, 6)
    digest = hashlib.sha256(network_text(net).encode()).hexdigest()
    assert digest == ("f2b99cb9caacf9e37aaef7e90e785bf4"
                      "cbc9269367303c5c54f3a3a7d3c9bbcc")
    assert heads_digest(net) == (
        "2e54e1a010fa4bc87af168739947235e0aa164932f1b9b364bf6c08e89ffb33f")
    out = run_epidemic(net, InfectionSpec.gamma(0.1, 2.0), seed=1)
    assert out.final_size == 14264


def test_zero_correlation_stream_is_pinned():
    # at r = 0 no stub is labelled, and the generator draws one shuffle of
    # every global stub and pairs it consecutively; both pins were
    # recorded when the X=0 stubs were labelled per node, by a binomial
    # that draws nothing at r = 0, and shuffled on their own
    spec = ng.GenSpec(n=20_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=0.0, n_q=10)
    digest = hashlib.sha256(
        network_text(ng.build_network(spec, 5)).encode()).hexdigest()
    assert digest == ("ad6883d2dc0558a137970524650d3415"
                      "81e7bc40e319e4b030317a7eedcdc8c4")
    params = ModelParams(dd.poisson_plus(1.5), dd.poisson(5.0), 0.0, 1,
                         InfectionSpec.constant(0.3))
    rep = estimate(params, n=1500, n_sims=12, master_seed=2024)
    assert rep.final_sizes.tolist() == [1, 1145, 1, 2, 1186, 1, 1178, 1161,
                                        1, 1165, 1089, 1152]


def test_ranking_follows_quantile_table_with_random_tie_break():
    h, g, n_q = dd.poisson_plus(2.0), dd.poisson(8.0), 10
    spec = ng.GenSpec(n=100_000, household=h, global_degree=g, r=1.0, n_q=n_q)
    net = ng.build_network(spec, 41)
    labelled = net.stub_q_u > 0
    owner = np.concatenate([net.edges_u[labelled], net.edges_v[labelled]])
    block = np.concatenate([net.stub_q_u[labelled], net.stub_q_v[labelled]]) - 1
    degree = net.degrees()[owner]

    # joint law of (owner degree, block) over the X=1 stubs against the
    # quantile table of the stub degree law this network realised; the
    # realised law itself strays from stub_degree_law(h, g) by an L1 of
    # 0.01-0.07 per network at this n, so that comparison would test the
    # degree sampling, which test_degree_law_matches_asymptotic_prediction
    # covers, rather than the ranking
    top = int(degree.max()) + 1
    counts = np.bincount(degree, minlength=top)
    realised = dd.from_pmf({d: c / owner.size for d, c in enumerate(counts) if c})
    table = dd.quantile_table(realised, n_q)
    tally = np.bincount(degree * n_q + block, minlength=top * n_q)
    expected = np.zeros((top, n_q))
    expected[table.degrees] = table.joint
    l1 = np.abs(tally.reshape(top, n_q) / owner.size - expected).sum()
    assert l1 < 1e-3

    # a degree class cut by a block boundary must be split at random, not
    # by node id: the mean owner id agrees on both sides of the cut
    checked = 0
    for d in np.unique(degree):
        in_d = degree == d
        for b in np.unique(block[in_d])[:-1]:
            lo = owner[in_d & (block == b)]
            hi = owner[in_d & (block == b + 1)]
            if min(lo.size, hi.size) < 100:
                continue
            se = np.sqrt(lo.var() / lo.size + hi.var() / hi.size)
            assert abs(lo.mean() - hi.mean()) < 4.0 * se, (d, b)
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("r", [1.0, -1.0])
def test_cut_degree_class_is_split_per_stub(r):
    # at |r| = 1 every global stub is labelled, so a node's stubs all sit
    # in its own degree class.  A block bound inside a class splits that
    # class's stubs at random one by one: given the t of the class's S
    # stubs that fall below the bound, a node with g of them has stubs on
    # both sides with probability 1 - P(0) - P(g) of a hypergeometric
    # draw of g from S holding t.  A split by node id or by whole nodes
    # splits about no node.  A discarded stub drops its owner one degree
    # class, so cuts whose smaller side could be one node's stubs are
    # skipped; the independent-node SE overstates the spread
    n_q = 10
    spec = ng.GenSpec(n=100_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=r, n_q=n_q)
    net = ng.build_network(spec, 41)
    labelled = net.stub_q_u > 0
    owner = np.concatenate([net.edges_u[labelled], net.edges_v[labelled]])
    block = np.concatenate([net.stub_q_u[labelled], net.stub_q_v[labelled]]) - 1
    # below[v, j - 1]: v's stubs in blocks before bound j
    below = np.bincount(owner * n_q + block, minlength=net.n * n_q)
    below = below.reshape(net.n, n_q).cumsum(axis=1)
    g1 = below[:, -1]
    degree = net.degrees()
    observed, expected, var, cuts = 0, 0.0, 0.0, 0
    for d in np.unique(degree[g1 > 0]):
        rows = np.flatnonzero((degree == d) & (g1 > 0))
        g, total = g1[rows], int(g1[rows].sum())
        for j in range(1, n_q):
            lo = below[rows, j - 1]
            t = int(lo.sum())
            if min(t, total - t) < 100:
                continue
            observed += int(np.sum((lo > 0) & (lo < g)))
            sizes, nodes = np.unique(g, return_counts=True)
            p = (1.0 - stats.hypergeom.pmf(0, total, t, sizes)
                 - stats.hypergeom.pmf(sizes, total, t, sizes))
            expected += float(np.sum(nodes * p))
            var += float(np.sum(nodes * p * (1.0 - p)))
            cuts += 1
    assert cuts >= 5
    assert expected > 1000
    assert abs(observed - expected) < 4.0 * np.sqrt(var), (observed, expected)


@pytest.mark.parametrize("r", [0.3, -0.5])
def test_labelled_stub_count_per_node_is_binomial(r):
    # each of a node's g global stubs is labelled X=1 with probability |r|
    # on its own, so given g the node's X=1 count is Binomial(g, |r|); one
    # chi-square over every well-filled g class, tails pooled to expected
    # counts of at least 5
    spec = ng.GenSpec(n=100_000, household=dd.poisson_plus(2.0),
                      global_degree=dd.poisson(8.0), r=r, n_q=10)
    net = ng.build_network(spec, 3)
    is_global = ~net.edge_local
    ends = np.concatenate([net.edges_u[is_global], net.edges_v[is_global]])
    labelled = np.concatenate([net.stub_q_u[is_global],
                               net.stub_q_v[is_global]]) > 0
    g = np.bincount(ends, minlength=net.n)
    x1 = np.bincount(ends[labelled], minlength=net.n)
    stat, dof, classes = 0.0, 0, 0
    for d in np.flatnonzero(np.bincount(g) >= 2000):
        observed = np.bincount(x1[g == d], minlength=d + 1)
        expected = observed.sum() * stats.binom.pmf(np.arange(d + 1), d,
                                                    abs(r))
        full = expected >= 5
        o = np.append(observed[full], observed[~full].sum())
        e = np.append(expected[full], expected[~full].sum())
        o, e = o[e > 0], e[e > 0]
        stat += float(np.sum((o - e) ** 2 / e))
        dof += o.size - 1
        classes += 1
    assert classes >= 6
    assert stats.chi2.sf(stat, dof) > 1e-3, (stat, dof)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 10_000])
def test_shuffle_in_place_draws_the_gathered_permutation(size):
    # the generator and rewire shuffle the stub arrays they own in place;
    # that draws the same order as gathering by rng.permutation and leaves
    # the generator in the same state
    stubs = np.arange(size, dtype=np.int64) * 3 + 1
    gather, in_place = np.random.default_rng(9), np.random.default_rng(9)
    want = stubs[gather.permutation(stubs.size)]
    in_place.shuffle(stubs)
    assert np.array_equal(stubs, want)
    assert in_place.random() == gather.random()


def _hand_built_network() -> ng.Network:
    """A network that build_network did not make: household cliques of
    sizes 1..5 in a fixed cycle and one global edge from every other node,
    labelled on every third of them."""
    sizes = np.tile(np.array([1, 2, 3, 4, 5, 3, 2], dtype=np.int64), 100)
    n = int(sizes.sum())
    u, v = [], []
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        for i in range(size):
            for j in range(i + 1, size):
                u.append(start + i)
                v.append(start + j)
    n_local = len(u)
    u += list(range(0, n, 2))
    v += [(7 * i + 3) % n for i in range(0, n, 2)]
    q = np.zeros(len(u), dtype=np.int16)
    q[n_local::3] = 2
    return ng.Network(n, sizes, np.array(u), np.array(v),
                      np.arange(len(u)) < n_local, q, q[::-1].copy())


def test_rewire_stream_is_pinned_apart_from_the_generator():
    # the GOLDEN digests above rewire a generated network, so they move
    # with the generator's stream; this one pins rewire alone
    net = ng.rewire(_hand_built_network(), 0.3, 6)
    digest = hashlib.sha256(network_text(net).encode()).hexdigest()
    assert digest == ("ae52d1ed2f0c66d8b888287bbae065cd"
                      "5831f61eb79fa919330fe63171ddf950")


def test_rewire_takes_households_beyond_the_block_label_range():
    # rewire pairs each household-size class as one block; a household
    # larger than MAX_BLOCKS still rewires, its stubs kept in class
    size = ng.MAX_BLOCKS + 10
    sizes = np.array([size, size, 2], dtype=np.int64)
    n = int(sizes.sum())
    u = np.array([0, 2, 4, size, size + 2, 2 * size], dtype=np.int64)
    v = u + 1
    net = ng.Network(n, sizes, u, v,
                     np.ones(6, dtype=bool), np.zeros(6, dtype=np.int16),
                     np.zeros(6, dtype=np.int16))
    out = ng.rewire(net, 1.0, 3)
    assert np.array_equal(out.degrees(), net.degrees())
    assert out.discarded_local == 0
    size_u = out.household_sizes[out.household_index[out.edges_u]]
    size_v = out.household_sizes[out.household_index[out.edges_v]]
    assert np.array_equal(size_u, size_v)


@pytest.mark.parametrize("n_q", [10, 7])
def test_negative_correlation_pairs_mirror_blocks(n_q):
    # at odd n_q the middle block is its own mirror
    spec = small_spec(n=5000, r=-1.0, n_q=n_q)
    net = ng.build_network(spec, 5)
    is_global = ~net.edge_local
    qu = net.stub_q_u[is_global]
    qv = net.stub_q_v[is_global]
    assert np.all(qu + qv == n_q + 1)


@pytest.mark.parametrize("r", [0.6, -0.6])
def test_discard_bounds(r):
    for seed in range(20):
        spec = small_spec(n=101, r=r, n_q=7)
        net = ng.build_network(spec, seed)
        imp = net.imperfections
        assert imp.discarded_x0 <= 1
        assert imp.discarded_x1 <= spec.n_q
        assert imp.discarded_local == 0


def test_zero_correlation_matching_is_uniform():
    # the X=0 stubs must pair as a uniform matching, in which each pair of
    # the S0 stubs paired is an edge with probability 1/(S0 - 1): counted
    # over pairs of two stubs of one node (self-loops) and over pairs
    # within and across post-hoc degree classes.  At r != 0 the X=0 stubs
    # take their order from the shuffle that also picks the X=1 stubs.
    # The built degrees (X=1 edges and discards included) and each node's
    # X=0 count depend on which stubs are paired, not on how, so they may
    # define the classes
    for r in (0.0, 0.5, -0.5):
        spec = ng.GenSpec(n=60, household=dd.point(1),
                          global_degree=dd.from_pmf({1: 0.5, 3: 0.5}), r=r,
                          n_q=4)
        observed = np.zeros(4)
        expected = np.zeros(4)
        for seed in range(2000):
            net = ng.build_network(spec, seed)
            x0 = (net.stub_q_u == 0) & ~net.edge_local
            u, v = net.edges_u[x0], net.edges_v[x0]
            a = (np.bincount(u, minlength=net.n)
                 + np.bincount(v, minlength=net.n))
            stubs = 2 * int(x0.sum())
            high = net.degrees() >= 2
            lo_stubs = int(a[~high].sum())
            hi_stubs = stubs - lo_stubs
            observed[0] += np.sum(~high[u] & ~high[v])
            observed[1] += np.sum(high[u] != high[v])
            observed[2] += np.sum(high[u] & high[v])
            observed[3] += np.sum(u == v)
            if stubs >= 2:
                expected[0] += lo_stubs * (lo_stubs - 1) / 2 / (stubs - 1)
                expected[1] += lo_stubs * hi_stubs / (stubs - 1)
                expected[2] += hi_stubs * (hi_stubs - 1) / 2 / (stubs - 1)
                expected[3] += np.sum(a * (a - 1)) / 2 / (stubs - 1)
        assert np.all(np.abs(observed - expected)
                      < 3.0 * np.sqrt(expected)), (r, observed, expected)


def test_degree_law_matches_asymptotic_prediction():
    # pooled empirical degree pmf vs G + size_bias(H) - 1
    h = dd.poisson_plus(2.0)
    g = dd.poisson(8.0)
    spec = ng.GenSpec(n=10_000, household=h, global_degree=g, r=0.3, n_q=10)
    counts = np.zeros(200)
    total = 0
    for seed in range(200):
        net = ng.build_network(spec, seed)
        counts += np.bincount(net.degrees(), minlength=200)[:200]
        total += net.n
    emp = counts / total
    dense = np.convolve(g.dense_probs(), dd.size_bias(h).dense_probs())[1:]
    predicted = np.zeros(200)
    predicted[: dense.size] = dense
    assert np.abs(emp - predicted).sum() < 0.02


def test_round_trip_through_text_format():
    spec = small_spec(n=120, r=-0.8, n_q=3)
    net = ng.build_network(spec, 21)
    text = network_text(net)
    back = ng.read_network(io.StringIO(text))
    assert back == net


def test_round_trip_preserves_discards_and_skips_foreign_comments():
    spec = small_spec(n=101, r=0.9, n_q=5)
    net = ng.build_network(spec, 3)
    text = "# made by a test\n# config: {}\n" + network_text(net)
    back = ng.read_network(io.StringIO(text))
    assert back == net
    assert back.imperfections == net.imperfections


def test_read_network_rejects_bad_input():
    with pytest.raises(ValueError):
        ng.read_network(io.StringIO("0 1 local\n"))
    with pytest.raises(ValueError):
        ng.read_network(io.StringIO("#n 2\n#households 1,1\n0 1 sideways\n"))
    with pytest.raises(ValueError):
        ng.read_network(io.StringIO("#n 3\n#households 1,1\n0 1 global\n"))
    with pytest.raises(ValueError):
        ng.read_network(io.StringIO("#n 2\n#households 1,1\n0 5 global\n"))
    with pytest.raises(ValueError):
        ng.read_network(io.StringIO("#n 2\n#households 1,1\n0 -1 global\n"))
    # headers the generator never writes: a short #discarded, an empty
    # household, an empty network, a negative discard count
    for text, bad_line in [
        ("#n 2\n#households 1,1\n#discarded 1 2\n", "#discarded 1 2"),
        ("#n 2\n#households 1,0,1\n", "#households 1,0,1"),
        ("#n 0\n#households 0\n", "#n 0"),
        ("#n 2\n#households 1,1\n#discarded -1 0 0\n", "#discarded -1 0 0"),
    ]:
        with pytest.raises(ValueError, match=bad_line):
            ng.read_network(io.StringIO(text))


def io_corpus():
    """Networks covering every writer branch: both correlation signs and
    r = 0, rewired or not, no global edges, no edges at all, one with more
    edges than a write chunk or a read block, and a hand-made one with a
    single non-zero label on an edge and a labelled local edge."""
    nets = []
    for r in (-0.8, 0.0, 0.9):
        net = ng.build_network(small_spec(n=300, r=r, n_q=5), 40)
        nets += [net, ng.rewire(net, 0.4, 41)]
    no_global = ng.build_network(
        ng.GenSpec(n=30, household=dd.point(3), global_degree=dd.point(0)), 1)
    no_edges = ng.build_network(
        ng.GenSpec(n=5, household=dd.point(1), global_degree=dd.point(0)), 1)
    big = small_spec(n=20_000, global_degree=dd.poisson(8.0), r=-0.5, n_q=7)
    many = ng.rewire(ng.build_network(big, 42), 0.3, 43)
    hand_made = ng.Network(
        4, np.array([2, 2]), np.array([0, 1, 2, 3]),
        np.array([1, 2, 3, 0]), np.array([False, False, True, False]),
        np.array([0, 2, 7, 0], dtype=np.int16),
        np.array([3, 0, 1, 0], dtype=np.int16), 1, 0, 2)
    assert no_global.n_edges > 0 and np.all(no_global.edge_local)
    assert no_edges.n_edges == 0
    assert many.n_edges > ng._IO_CHUNK and np.any(many.stub_q_u)
    return nets + [no_global, no_edges, many, hand_made]


def reference_text(net):
    buf = io.StringIO()
    reference_write_network(net, buf)
    return buf.getvalue()


def test_writer_matches_reference_writer():
    for net in io_corpus():
        assert network_text(net) == reference_text(net)


def edge_network(n, u, v, local, q_u, q_v):
    """A one-household network on n nodes with the given edge columns."""
    return ng.Network(n, np.array([n]),
                      np.asarray(u, dtype=np.int64),
                      np.asarray(v, dtype=np.int64),
                      np.asarray(local, dtype=bool),
                      np.asarray(q_u, dtype=np.int16),
                      np.asarray(q_v, dtype=np.int16))


def test_writer_matches_reference_at_digit_boundaries():
    # every endpoint width from 1 to 7 digits against every other, with
    # label pairs of every width, one-sided ones included, on local and
    # global edges
    ends = [0, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 99_999, 100_000,
            999_999, 1_000_000]
    labels = [0, 1, 9, 10, 99, 100, 9_999, 10_000, ng.MAX_BLOCKS]
    u, v, q_u, q_v, local = (grid.ravel() for grid in np.meshgrid(
        ends, ends, labels, labels, [False, True], indexing="ij"))
    net = edge_network(1_000_001, u, v, local, q_u, q_v)
    one_sided = (q_u == 0) != (q_v == 0)
    assert one_sided[local].any() and one_sided[~local].any()
    text = network_text(net)
    assert text == reference_text(net)
    assert ng.read_network(io.StringIO(text)) == net


@pytest.mark.parametrize("top", [10**9 - 1, 2**32 - 1, 2**32, 2**63 - 1])
def test_writer_writes_values_outside_the_format_as_str_does(top):
    # the reader rejects these, but the writer still writes what it is
    # given: signs, and endpoints as wide as int64 allows
    ends = [-top, -1_000, -1, 0, 7, top // 10, top]
    labels = [-32_768, -10, -1, 0, 3]
    u, v, q = (grid.ravel() for grid in np.meshgrid(ends, ends, labels,
                                                    indexing="ij"))
    net = edge_network(3, u, v, u % 2 == 0, q, q[::-1])
    assert network_text(net) == reference_text(net)


@pytest.mark.parametrize("n_edges", [ng._IO_CHUNK - 1, ng._IO_CHUNK,
                                     ng._IO_CHUNK + 1, 2 * ng._IO_CHUNK])
@pytest.mark.parametrize("labelled_first", [True, False])
def test_writer_matches_reference_across_chunk_seams(n_edges, labelled_first):
    # the last line of a chunk and the first of the next differ in
    # whether they carry labels
    rng = np.random.default_rng(n_edges)
    n = 5_000
    q_u = np.where(rng.random(n_edges) < 0.3,
                   rng.integers(0, 200, n_edges), 0)
    q_v = np.where(rng.random(n_edges) < 0.3,
                   rng.integers(0, 200, n_edges), 0)
    seams = np.arange(ng._IO_CHUNK, n_edges, ng._IO_CHUNK)
    for line, labelled in [([n_edges - 1], labelled_first),
                           (seams - 1, labelled_first),
                           (seams, not labelled_first)]:
        q_u[line], q_v[line] = (17, 4) if labelled else (0, 0)
    net = edge_network(n, rng.integers(0, n, n_edges),
                       rng.integers(0, n, n_edges),
                       rng.random(n_edges) < 0.5, q_u, q_v)
    assert network_text(net) == reference_text(net)


# tracemalloc peak bytes per line of a write chunk, above what is alive
# before the call: one byte buffer filled by digit place took 141.5, and
# one word matrix per chunk, freed once its bytes are taken, takes 97
WRITE_BUDGET_PER_CHUNK_LINE = 110


def write_peak(net, path) -> int:
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ng.write_network(net, path)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_writer_memory_is_bounded_by_its_chunk(tmp_path):
    # lines shaped like generate's: six-digit ends, two in five edges
    # labelled, and the same law at every length
    def network(chunks):
        rng = np.random.default_rng(chunks)
        m, n = chunks * ng._IO_CHUNK, 200_000
        q_u, q_v = np.where(rng.random(m) < 0.4,
                            rng.integers(1, 11, (2, m)), 0)
        return edge_network(n, rng.integers(0, n, m), rng.integers(0, n, m),
                            rng.random(m) < 0.3, q_u, q_v)

    peak = {chunks: write_peak(network(chunks), tmp_path / "net.txt")
            for chunks in (2, 8)}
    assert abs(peak[8] / peak[2] - 1) <= 0.1, peak
    per_line = {chunks: round(b / ng._IO_CHUNK, 1)
                for chunks, b in peak.items()}
    assert max(per_line.values()) <= WRITE_BUDGET_PER_CHUNK_LINE, per_line


def test_writer_appends_to_an_open_text_file(tmp_path):
    # generate writes its "# config:" line first and then the network
    # into the same file; the span tracer reads the bytes written from
    # the file position
    net = ng.rewire(ng.build_network(
        small_spec(n=20_000, global_degree=dd.poisson(8.0), r=-0.5, n_q=7),
        42), 0.3, 43)
    assert net.n_edges > ng._IO_CHUNK
    header = '# config: {"seed": 1}\n'
    path = tmp_path / "network.txt"
    with open(path, "w") as fh:
        fh.write(header)
        before = fh.tell()
        ng.write_network(net, fh)
        after = fh.tell()
    text = network_text(net)
    assert path.read_text() == header + text
    assert after - before == len(text.encode())


def decorated(text, rng):
    """The same file with foreign comments and blank lines in the middle,
    leading and trailing whitespace on every line, and CRLF line ends."""
    out = []
    spaces = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x1f \t"]
    for i, line in enumerate(text.split("\n")):
        if i % 97 == 5:
            out.append("# a foreign comment, with # inside and 0 1 local")
        if i % 89 == 3:
            out.append(rng.choice(["", "   ", "\t \x0c"]))
        out.append(rng.choice(spaces) + line + rng.choice(spaces))
    return "\r\n".join(out)


def as_inputs(text, tmp_path):
    """The file as a path, and as open text files with and without
    newline translation."""
    path = tmp_path / "net.txt"
    path.write_text(text, newline="")
    yield str(path)
    with open(path) as fh:
        yield fh
    with open(path, newline="") as fh:
        yield fh
    yield io.StringIO(text, newline="")


def test_reader_matches_reference_reader(tmp_path):
    rng = random.Random(5)
    for net in io_corpus():
        text = reference_text(net)
        for variant in (text, decorated(text, rng)):
            expected = reference_read_network(io.StringIO(variant, newline=""))
            assert expected == net
            for src in as_inputs(variant, tmp_path):
                back = ng.read_network(src)
                assert back == expected
                # the generator's id dtype for the same n
                assert back.edges_u.dtype == ng.index_dtype(back.n)
                assert back.edges_v.dtype == ng.index_dtype(back.n)
                assert back.stub_q_u.dtype == np.int16


def test_reader_accepts_what_reference_accepts():
    head = "#n 4\n#households 2,2\n"
    for body in ["+0 001 local", "0\t1\x0blocal", "0 3 global 0 0",
                 "0 3 global +2 00007", "-0 1 local",
                 "# edge comment\n2 3 local", "#n\n#nope 9\n1 2 local",
                 "#households 1,3\n#households  2, 2 \n0 2 local",
                 "2 3 global 32767 0", "0 000000000000000000000000001 local",
                 "# a lone \ud800 surrogate\n2 3 local"]:
        text = head + body
        assert (ng.read_network(io.StringIO(text))
                == reference_read_network(io.StringIO(text)))


def test_reader_rejects_what_reference_rejects():
    head = "#n 4\n#households 2,2\n"
    bodies = ["0 1 global # x", "0 1 local # x", "0 1 global 2",
              "0 1 global 2 3 4", "0 1", "0", "0 1 LOCAL", "0 1 locals",
              "0 1 glob", "0 1 l0cal", "0 1 local\x00", "0 x local",
              "0 1.0 local", "0 1e0 local", "0 - local", "0 + local",
              "0 1_0 local", "0 0x1 local", "0 1 global 1 -1",
              "0 1 global 32768 1", "0 1 global 1 a",
              "0 99999999999999999999 global", "0 1000000000000000000001 local",
              "0 4 local", "-1 0 local", "0 1 local 2 local",
              "0 1 loc\udfffal", "#n x", "#households 2,x",
              "#discarded 1 2 z", "#n 5"]
    for body in bodies:
        for text in (head + body, head + "0 1 local\n" * 3 + body):
            with pytest.raises(Exception):
                reference_read_network(io.StringIO(text))
            with pytest.raises(ValueError):
                ng.read_network(io.StringIO(text))
    for text in ("", "0 1 local\n", "#n 3\n#households 1,1\n",
                 "#households 1,1\n0 1 local\n"):
        with pytest.raises(Exception):
            reference_read_network(io.StringIO(text))
        with pytest.raises(ValueError):
            ng.read_network(io.StringIO(text))


def test_reader_takes_ascii_decimals_only():
    # int() and str.split() also take digit groups, non-ASCII digits and
    # non-ASCII spaces; the file grammar does not
    head = "#n 20\n#households 10,10\n"
    for body in ["0 1_1 local", "0 \u0663 local", "0\u00a01 local",
                 "0 1 local\u2003"]:
        reference_read_network(io.StringIO(head + body))
        with pytest.raises(ValueError, match="line"):
            ng.read_network(io.StringIO(head + body))


def test_bad_line_is_named_in_later_blocks(monkeypatch):
    monkeypatch.setattr(ng, "_READ_BLOCK", 64)
    head = "#n 4\n#households 2,2\n"
    lines = (head + "0 1 local\n" * 1000).split("\n")
    lines[505] = "2 3 local # x"
    with pytest.raises(ValueError, match="2 3 local # x"):
        ng.read_network(io.StringIO("\n".join(lines)))


def read_outcome(read, src):
    """What `read` makes of `src`: a Network, or the class of its error."""
    try:
        return read(src)
    except Exception as err:
        return type(err)


def outcome_of(read, src):
    """What `read` makes of `src`: a Network, or its error's class and
    message."""
    try:
        return read(src)
    except Exception as err:
        return type(err), str(err)


def path_outcome(text, tmp_path, monkeypatch, block_sizes):
    """Read `text` from a UTF-8 file by its path, from that file opened as
    text and from a StringIO, at each of `block_sizes` bytes or
    characters per block; each read must give what
    reference_read_network gives.  Returns that outcome."""
    path = tmp_path / "seams.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = read_outcome(reference_read_network,
                            io.StringIO(text, newline=""))
    for size in block_sizes:
        monkeypatch.setattr(ng, "_READ_BLOCK", size)
        assert read_outcome(ng.read_network, str(path)) == expected, size
        with open(path, encoding="utf-8") as fh:
            assert read_outcome(ng.read_network, fh) == expected, size
        assert read_outcome(ng.read_network,
                            io.StringIO(text, newline="")) == expected, size
    return expected


SHORT_HEAD = "#n 4\n#households 2,2\n"


@pytest.mark.parametrize("text, accepted", [
    # a "\r\n" split after its "\r" at block size index + 1
    (SHORT_HEAD.replace("\n", "\r\n") + "0 1 local\r\n2 3 global 1 2\r\n",
     True),
    ("#n 4\r#households 2,2\r0 1 local\r2 3 global 1 2\r", True),
    (SHORT_HEAD + "0 1 local\n2 3 global 1 2", True),
    # UTF-8 characters of two and three bytes, split at some sizes
    (SHORT_HEAD + "# réseau — ✓\n0 1 local\n\u3000#ünï\n2 3 local\n", True),
    (SHORT_HEAD + "0 1 local\n2 3 lócal\n", False),
], ids=["crlf", "lone_cr", "no_final_newline", "utf8_comment",
        "non_ascii_edge"])
def test_path_reader_matches_other_inputs_at_every_block_seam(
        text, accepted, tmp_path, monkeypatch):
    sizes = range(1, len(text.encode("utf-8")) + 2)
    outcome = path_outcome(text, tmp_path, monkeypatch, sizes)
    assert isinstance(outcome, ng.Network) == accepted
    if not accepted:
        path = tmp_path / "seams.txt"
        for size in sizes:
            monkeypatch.setattr(ng, "_READ_BLOCK", size)
            with pytest.raises(ValueError, match="line"):
                ng.read_network(str(path))


def test_path_reader_carries_a_line_longer_than_a_block(tmp_path,
                                                         monkeypatch):
    sizes = [1] * 300 + [2]
    text = (f"#n 302\n#households {','.join(map(str, sizes))}\n"
            "300 301 local\n")
    assert len(text.splitlines()[1]) > 600
    net = path_outcome(text, tmp_path, monkeypatch,
                       [7, 64, 256, ng._READ_BLOCK])
    assert net.household_sizes.tolist() == sizes


def test_path_reader_names_a_bad_line_several_blocks_in(tmp_path,
                                                        monkeypatch):
    text = SHORT_HEAD + "0 1 local\n" * 200 + "2 3 local # x\n" + "0 1 local\n"
    assert path_outcome(text, tmp_path, monkeypatch, [16, 64]) is ValueError
    for size in (16, 64):
        monkeypatch.setattr(ng, "_READ_BLOCK", size)
        with pytest.raises(ValueError, match="2 3 local # x"):
            ng.read_network(str(tmp_path / "seams.txt"))


def test_reader_and_writer_take_path_objects(tmp_path):
    net = ng.build_network(small_spec(n=120, r=-0.8, n_q=3), 21)
    ng.write_network(net, tmp_path / "net.txt")
    assert (tmp_path / "net.txt").read_text() == network_text(net)
    assert ng.read_network(tmp_path / "net.txt") == net


def test_reader_rejects_other_inputs_with_type_error(tmp_path):
    lines = ["#n 2", "#households 1,1", "0 1 local"]
    (tmp_path / "net.txt").write_text("\n".join(lines))
    with open(tmp_path / "net.txt", "rb") as binary:
        for src in (lines, iter(lines), b"#n 2\n", 7, binary,
                    io.BytesIO(b"#n 2\n"), io.BytesIO()):
            with pytest.raises(TypeError,
                               match="a path or an open text file"):
                ng.read_network(src)


@pytest.mark.parametrize("bad_line", [b"# caf\xe9", b"0 1 loc\xe9l",
                                      b"#n 4\xff", b"\xc3"])
def test_path_reader_names_a_line_that_is_not_utf8(bad_line, tmp_path,
                                                     monkeypatch):
    path = tmp_path / "net.txt"
    path.write_bytes(SHORT_HEAD.encode() + b"0 1 local\n" + bad_line
                     + b"\n2 3 sideways\n")
    shown = bad_line.decode("utf-8", "replace")
    for size in (1, 3, 8, 64, ng._READ_BLOCK):
        monkeypatch.setattr(ng, "_READ_BLOCK", size)
        with pytest.raises(ValueError) as err:
            ng.read_network(path)
        assert str(err.value) == f"invalid UTF-8 in line {shown!r}", size


# lines the reference reader takes, and lines it rejects on the spot, so
# that it names no line after a bad one; the lines the reader narrows
# (non-ASCII digits and spaces, digit groups, huge integers, empty
# households) are left out
FUZZ_GOOD = ["0 1 local", "2 3 global", "1 2 global 3 4", " 0 3 local\t",
             "+1 002 global 0 7", "0 -1 local", "3 4 global", "",
             "  ", "# a comment 0 1 local", "# r\u00e9seau \u2713", "#n 4",
             "#households 2,2", "#households 1,3", "#discarded 0 1 0",
             "#n 5", "#nope"]
FUZZ_BAD = ["0 1 sideways", "2 3", "0 1 global 2", "0 x local",
            "0 1 global 40000 1", "0 1 l\u00f3cal", "#n x",
            "#households 2,x", "#discarded 1 2", "0 1 local # x",
            "0 1 global -1 2", "0 1 LOCAL", "1 2 global 1 z",
            "0 1 local 2 local", "0 1.0 global", "0", "0 1 global 0 0 0",
            "- 1 local", "0 1 glob"]
NAMED = re.compile(r" line ('.*'|\".*\")$")


def fuzz_text(rng):
    """A small file with one to three bad lines among good ones."""
    lines = [rng.choice(FUZZ_GOOD) for _ in range(rng.randint(2, 8))]
    for _ in range(rng.randint(1, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(FUZZ_BAD))
    if rng.random() < 0.8:
        lines[:0] = ["#n 4", "#households 2,2"]
    return rng.choice(["\n", "\r\n", "\r"]).join(lines)


@pytest.mark.slow
def test_first_bad_line_is_named_at_every_block_size(tmp_path, monkeypatch):
    # each file read by its path and as a StringIO at every block size
    # from 1 to 64 must give one outcome, and name the line the reference
    # reader names wherever that names one
    rng = random.Random(14)
    path = str(tmp_path / "fuzz.txt")
    named = 0
    for _ in range(300):
        text = fuzz_text(rng)
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        expected = outcome_of(reference_read_network,
                              io.StringIO(text, newline=""))
        outcomes = []
        for size in range(1, 65):
            monkeypatch.setattr(ng, "_READ_BLOCK", size)
            outcomes.append(outcome_of(ng.read_network, path))
            outcomes.append(outcome_of(ng.read_network,
                                       io.StringIO(text, newline="")))
        assert all(outcome == outcomes[0] for outcome in outcomes), text
        got = outcomes[0]
        # every bad line above stops the reference reader where it stands
        assert isinstance(expected, tuple) and got[0] is ValueError, text
        if NAMED.search(expected[1]):
            assert (NAMED.search(got[1]).group(1)
                    == NAMED.search(expected[1]).group(1)), text
            named += 1
    assert named >= 100


def test_block_count_bounded_by_int16_labels():
    # stub block labels are int16, so 32767 blocks is the most a spec can ask
    assert small_spec(n_q=ng.MAX_BLOCKS).n_q == 32767
    for n_q in (0, 32768, 40_000):
        with pytest.raises(ValueError):
            small_spec(n_q=n_q)
        with pytest.raises(ValueError):
            small_spec(n_q=n_q, r=-0.5)


def test_read_network_rejects_labels_outside_int16():
    head = "#n 2\n#households 1,1\n"
    back = ng.read_network(io.StringIO(head + "0 1 global 32767 1\n"))
    assert back.stub_q_u.tolist() == [32767]
    for labels in ("32768 1", "1 40000", "-1 2"):
        with pytest.raises(ValueError):
            ng.read_network(io.StringIO(head + f"0 1 global {labels}\n"))


def test_rewire_preserves_degrees_and_size_classes():
    spec = small_spec(n=2000, household=dd.poisson_plus(3.0), r=0.0, n_q=1)
    net = ng.build_network(spec, 17)
    rewired = ng.rewire(net, 1.0, 55)
    assert np.array_equal(rewired.degrees(), net.degrees())
    assert rewired.n_edges == net.n_edges
    assert rewired.imperfections.discarded_local == 0
    # re-paired local edges join nodes from equal-size households
    size_of_node = net.household_sizes[net.household_index]
    lu = rewired.edges_u[rewired.edge_local]
    lv = rewired.edges_v[rewired.edge_local]
    assert np.array_equal(size_of_node[lu], size_of_node[lv])


def _labelled_local_network() -> ng.Network:
    """_hand_built_network with block labels on its local edges as well,
    read back from its text, which the format allows, and with discard
    counts in its header."""
    net = _hand_built_network()
    local = np.flatnonzero(net.edge_local)
    q_u, q_v = net.stub_q_u.copy(), net.stub_q_v.copy()
    q_u[local], q_v[local] = 3, 1 + local % 4
    text = network_text(replace(net, stub_q_u=q_u, stub_q_v=q_v,
                                discarded_x0=1, discarded_local=2))
    return ng.read_network(io.StringIO(text))


@pytest.mark.parametrize("p_rw", [0.4, 1.0])
def test_rewire_fills_only_the_slots_it_breaks(p_rw):
    spec = small_spec(n=3000, household=dd.poisson_plus(3.0), r=-0.5, n_q=5)
    for net, labelled in ((ng.build_network(spec, 4), False),
                          (_labelled_local_network(), True)):
        out = ng.rewire(net, p_rw, 8)
        assert np.array_equal(out.degrees(), net.degrees())
        assert (out.discarded_x0, out.discarded_x1, out.discarded_local) == (
            net.discarded_x0, net.discarded_x1, net.discarded_local)
        assert np.array_equal(out.edge_local, net.edge_local)
        # where every local edge is labelled, the cleared ones are the
        # broken slots, and a household's local edges break all together
        # or not at all
        broken = net.edge_local
        if labelled:
            broken = broken & (out.stub_q_u == 0) & (out.stub_q_v == 0)
            house = net.household_index[net.edges_u[net.edge_local]]
            hit = np.bincount(house, broken[net.edge_local])
            assert np.all((hit == 0) | (hit == np.bincount(house)))
            whole = broken.sum() == net.edge_local.sum()
            assert broken.any() and whole == (p_rw == 1.0)
        # every other slot, each global one included, keeps its edge and
        # labels bitwise; a broken one holds an unlabelled local edge
        # within one household-size class
        for name in ("edges_u", "edges_v", "stub_q_u", "stub_q_v"):
            old, new = getattr(net, name), getattr(out, name)
            assert new.dtype == old.dtype
            assert np.array_equal(new[~broken], old[~broken]), name
        assert not np.any(out.stub_q_u[broken] | out.stub_q_v[broken])
        size_of_node = net.household_sizes[net.household_index]
        assert np.array_equal(size_of_node[out.edges_u[broken]],
                              size_of_node[out.edges_v[broken]])


def test_rewire_zero_is_identity_and_partial_keeps_some_households():
    spec = small_spec(n=1000, household=dd.poisson_plus(3.0))
    net = ng.build_network(spec, 8)
    assert ng.rewire(net, 0.0, 1) is net
    half = ng.rewire(net, 0.5, 9)
    assert np.array_equal(half.degrees(), net.degrees())
    # households are selected independently w.p. 0.5: roughly half of the
    # multi-member households should lose at least one original edge
    def local_pairs(g):
        return {
            (min(u, v), max(u, v), g.household_index[u])
            for u, v in zip(g.edges_u[g.edge_local], g.edges_v[g.edge_local])
            if g.household_index[u] == g.household_index[v]
        }

    survivors = local_pairs(half) & local_pairs(net)
    per_house = np.zeros(net.household_sizes.size, dtype=int)
    for _, _, house in survivors:
        per_house[house] += 1
    sizes = net.household_sizes
    full = sizes * (sizes - 1) // 2
    multi = full > 0
    broken_frac = np.mean(per_house[multi] < full[multi])
    assert abs(broken_frac - 0.5) < 0.1


def test_rewire_is_deterministic():
    spec = small_spec(n=500, household=dd.poisson_plus(3.0))
    net = ng.build_network(spec, 2)
    assert ng.rewire(net, 0.7, 11) == ng.rewire(net, 0.7, 11)
    assert ng.rewire(net, 0.7, 11) != ng.rewire(net, 0.7, 12)


def test_build_without_global_edges():
    spec = ng.GenSpec(n=30, household=dd.point(3), global_degree=dd.point(0))
    net = ng.build_network(spec, 1)
    assert np.all(net.edge_local)
    assert net.imperfections.discarded_x0 == 0


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        ng.GenSpec(n=0, household=dd.point(2), global_degree=dd.point(1))
    with pytest.raises(ValueError):
        ng.GenSpec(n=5, household=dd.point(0), global_degree=dd.point(1))
    with pytest.raises(ValueError):
        ng.GenSpec(n=5, household=dd.point(2), global_degree=dd.point(1), r=1.5)
    with pytest.raises(ValueError):
        ng.GenSpec(n=5, household=dd.point(2), global_degree=dd.point(1), n_q=0)


@pytest.mark.parametrize("field, value", [
    ("n", 10.5), ("n", 1e3), ("n", True),
    ("n_q", 2.5), ("n_q", 3.0), ("n_q", True),
])
def test_gen_spec_rejects_a_count_that_is_not_an_integer(field, value):
    # a float or bool count would fail later inside numpy; the spec names
    # the field instead
    with pytest.raises(TypeError, match=re.escape(
            f"{field} must be an integer, not {value!r}")):
        small_spec(**{field: value})


@pytest.mark.parametrize("value", [True, np.True_, "0.5"])
def test_gen_spec_rejects_an_r_that_is_not_a_real_number(value):
    with pytest.raises(TypeError, match=re.escape(
            f"r must be a real number, not {value!r}")):
        small_spec(r=value)


def test_gen_spec_takes_a_numpy_float_r():
    spec = small_spec(n=200, r=np.float64(-0.5), n_q=4)
    assert (network_text(ng.build_network(spec, 3))
            == network_text(ng.build_network(small_spec(n=200, r=-0.5,
                                                        n_q=4), 3)))


def test_gen_spec_takes_numpy_integer_counts():
    spec = small_spec(n=np.int64(200), n_q=np.int16(4))
    assert (network_text(ng.build_network(spec, 3))
            == network_text(ng.build_network(small_spec(n=200, n_q=4), 3)))


def test_imperfections_are_counted_on_first_read():
    spec = small_spec(n=400, r=0.5, n_q=4)
    net = ng.build_network(spec, 6)
    rewired = ng.rewire(net, 0.5, 7)
    back = ng.read_network(io.StringIO(network_text(rewired)))
    for g in (net, rewired, back):
        assert "imperfections" not in vars(g)
        a = np.minimum(g.edges_u, g.edges_v)
        b = np.maximum(g.edges_u, g.edges_v)
        pairs = len(set(zip(a.tolist(), b.tolist())))
        imp = g.imperfections
        assert imp.self_loops == int(np.sum(a == b))
        assert imp.parallel_edges == g.n_edges - pairs
        assert (imp.discarded_x0, imp.discarded_x1, imp.discarded_local) == (
            g.discarded_x0, g.discarded_x1, g.discarded_local)
        assert g.imperfections is imp


def test_self_loop_and_parallel_counting():
    # hand-built file: one self-loop, one duplicated pair
    text = "#n 4\n#households 1,1,1,1\n0 0 global\n1 2 global\n2 1 global\n2 3 global\n"
    net = ng.read_network(io.StringIO(text))
    assert net.imperfections.self_loops == 1
    assert net.imperfections.parallel_edges == 1
