import io

import numpy as np
import pytest

from netepi import distributions as dd
from netepi import netgen as ng


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
    assert net.household_size_of(9) == 2


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


def test_stable_argsort_matches_numpy():
    rng = np.random.default_rng(3)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        rng.integers(0, 40, 5000),                 # below 2**16, many ties
        rng.integers(0, 2**16, 5000),
        rng.integers(0, 2**20, 5000),              # above 2**16: two digits
        rng.integers(0, 2**40, 5000),              # above 2**32: three digits
        rng.integers(0, 8, 5000) << 33,            # ties in the top digit only
        np.array([2**32 + 1, 2**32, 1, 2**32 + 1, 0, 2**16]),
        rng.integers(0, 300, 5000).astype(np.int16),
    ]
    for keys in cases:
        assert np.array_equal(ng._stable_argsort(keys),
                              np.argsort(keys, kind="stable")), keys


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


def test_negative_correlation_pairs_mirror_blocks():
    spec = small_spec(n=5000, r=-1.0, n_q=10)
    net = ng.build_network(spec, 5)
    is_global = ~net.edge_local
    qu = net.stub_q_u[is_global]
    qv = net.stub_q_v[is_global]
    assert np.all(qu + qv == 11)


def test_discard_bounds():
    for seed in range(20):
        spec = small_spec(n=101, r=0.6, n_q=7)
        net = ng.build_network(spec, seed)
        imp = net.imperfections
        assert imp.discarded_x0 <= 1
        assert imp.discarded_x1 <= spec.n_q
        assert imp.discarded_local == 0


def test_zero_correlation_matching_is_uniform():
    # post-hoc degree classes must pair at uniform-matching frequencies;
    # for a uniform matching of S stubs every stub pair is an edge with
    # probability 1/(S-1)
    spec = ng.GenSpec(n=60, household=dd.point(1),
                      global_degree=dd.from_pmf({1: 0.5, 3: 0.5}), r=0.0, n_q=4)
    observed = np.zeros(3)
    expected = np.zeros(3)
    for seed in range(2000):
        net = ng.build_network(spec, seed)
        deg = net.degrees()
        n1 = int(np.sum(deg == 1) + 2 * net.imperfections.discarded_x0 * 0)
        stubs = int(deg.sum())
        n1_stubs = int(np.sum(deg[deg == 1]))
        n3_stubs = stubs - n1_stubs
        du = deg[net.edges_u]
        dv = deg[net.edges_v]
        observed[0] += np.sum((du == 1) & (dv == 1))
        observed[1] += np.sum((du != dv))
        observed[2] += np.sum((du == 3) & (dv == 3))
        if stubs >= 2:
            expected[0] += n1_stubs * (n1_stubs - 1) / 2 / (stubs - 1)
            expected[1] += n1_stubs * n3_stubs / (stubs - 1)
            expected[2] += n3_stubs * (n3_stubs - 1) / 2 / (stubs - 1)
    assert np.all(np.abs(observed - expected) < 3.0 * np.sqrt(expected))


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
    text = ng.network_to_string(net)
    back = ng.read_network(io.StringIO(text))
    assert back == net


def test_round_trip_preserves_discards_and_skips_foreign_comments():
    spec = small_spec(n=101, r=0.9, n_q=5)
    net = ng.build_network(spec, 3)
    text = "# made by a test\n# config: {}\n" + ng.network_to_string(net)
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


def test_imperfections_are_counted_on_first_read():
    spec = small_spec(n=400, r=0.5, n_q=4)
    net = ng.build_network(spec, 6)
    rewired = ng.rewire(net, 0.5, 7)
    back = ng.read_network(io.StringIO(ng.network_to_string(rewired)))
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
