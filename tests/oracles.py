"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the package: enumeration and dynamic
programming only, so agreement is meaningful evidence of correctness.
The exceptions in kind are frozen copies of original per-element loops:
`reference_percolation_bfs`, the sort-based epidemic loop, pins the
exact random draws of `run_epidemic` on a given network, and
`reference_write_network` / `reference_read_network`, the line-by-line
edge-list writer and reader, pin the bytes the vectorised writer emits
and the networks the block parser returns; and
`reference_monotone_extinction`, the original extinction solver, which
pins the least fixed point that Newton's method must reach; and
`household_mean_by_alpha`, the original forward triangular recursion for
the mean household final size, an independent route to E[T] = E[M]; and
`reference_critical_p_i`, the original threshold bisection, which pins
the critical p_i that deciding its steps on the exact root must keep.
"""

import itertools
import math

import numpy as np


def reference_monotone_extinction(model, tol=1e-13, max_iter=500_000):
    """Extinction probabilities by type the original way: iterate the
    package's offspring PGF from 0 until a step moves no component by
    `tol` or more.  The iterates rise monotonically to the least fixed
    point; at rate rho(J) < 1 this stops about tol rho / (1 - rho) short
    of it, ~2e-11 at R* = 1.005 with the original tol = 1e-13."""
    s = np.zeros(model.params.n_q)
    for _ in range(max_iter):
        nxt = model._offspring_pgf(s)
        delta = float(np.max(np.abs(nxt - s)))
        s = nxt
        if delta < tol:
            break
    return s


def reference_critical_p_i(h, g, r, n_q):
    """The critical p_i the original way: bisect [0, 1] down to a 1e-10
    bracket, each step decided by the power-iteration R* of the step's
    constant infection on one structure.  Returns the upper end and
    the (p_i, R*, mean matrix) of every step."""
    from dataclasses import replace

    from netepi.branching import BranchingModel, ModelParams
    from netepi.distributions import InfectionSpec

    params = ModelParams(h, g, r, n_q, InfectionSpec.constant(1.0))
    steps = []
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        step = BranchingModel(replace(params,
                                      infection=InfectionSpec.constant(mid)))
        value = step.r_star()
        steps.append((mid, value, step.mean_matrix()))
        if value > 1.0:
            hi = mid
        else:
            lo = mid
    return hi, steps


def enumerate_bond_percolation(n, p, directed_edges, source=0):
    """Exact final-size and in-set pmfs by enumerating every bond pattern.

    directed_edges: list of ordered pairs; each is open independently
    with probability p.  Returns (out_pmf, in_pmf): out_pmf[k] is the
    probability that k nodes besides the source are reachable from it,
    in_pmf[k] that k nodes besides the source can reach it.
    """
    m = len(directed_edges)
    out_pmf = np.zeros(n)
    in_pmf = np.zeros(n)
    for pattern in range(2**m):
        open_edges = [directed_edges[i] for i in range(m) if pattern >> i & 1]
        k = bin(pattern).count("1")
        weight = p**k * (1 - p) ** (m - k)
        adj = {v: [] for v in range(n)}
        radj = {v: [] for v in range(n)}
        for u, v in open_edges:
            adj[u].append(v)
            radj[v].append(u)
        out_pmf[len(_reach(adj, source)) - 1] += weight
        in_pmf[len(_reach(radj, source)) - 1] += weight
    return out_pmf, in_pmf


def _reach(adj, source):
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reference_adjacency(net):
    """The original stable-argsort CSR adjacency of `net`: (indptr,
    heads, out-degrees)."""
    src = np.concatenate([net.edges_u, net.edges_v])
    dst = np.concatenate([net.edges_v, net.edges_u])
    heads = dst[np.argsort(src, kind="stable")]
    out_deg = np.bincount(src, minlength=net.n)
    indptr = np.concatenate(([0], np.cumsum(out_deg)))
    return indptr, heads, out_deg


def reference_percolation_bfs(net, infection, seed, start=None,
                              reverse=False, adjacency=None):
    """Percolation epidemic on `net` the original way: a stable-argsort
    CSR adjacency (`reference_adjacency`, built per call unless given)
    and an np.unique frontier per level.

    Makes the same random draws in the same order as the package's
    `run_epidemic` should; returns (final size, generation counts).
    """
    rng = np.random.default_rng(seed)
    n = net.n
    if adjacency is None:
        adjacency = reference_adjacency(net)
    indptr, heads, out_deg = adjacency
    if start is None:
        start = int(rng.integers(n))
    if not infection.is_constant:
        p_node = 1.0 - np.exp(-infection.rate
                              * infection.sample_periods(rng, n))
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    generations = [1]
    while frontier.size:
        counts = out_deg[frontier]
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                      counts)
        targets = heads[np.repeat(indptr[frontier], counts) + offsets]
        if infection.is_constant:
            prob = infection.p_i
        elif reverse:
            prob = p_node[targets]
        else:
            prob = p_node[np.repeat(frontier, counts)]
        hit = targets[rng.random(targets.size) < prob]
        new = np.unique(hit[~seen[hit]])
        if new.size == 0:
            break
        seen[new] = True
        frontier = new
        generations.append(int(new.size))
    return int(seen.sum()), np.array(generations, dtype=np.int64)


def reference_write_network(net, out):
    """The edge-list writer the original way: one f-string per edge."""
    out.write(f"#n {net.n}\n")
    out.write("#households " + ",".join(str(int(s)) for s in net.household_sizes) + "\n")
    out.write(f"#discarded {net.discarded_x0} {net.discarded_x1} "
              f"{net.discarded_local}\n")
    kinds = np.where(net.edge_local, "local", "global")
    for u, v, kind, qu, qv in zip(net.edges_u, net.edges_v, kinds,
                                  net.stub_q_u, net.stub_q_v):
        if qu or qv:
            out.write(f"{u} {v} {kind} {qu} {qv}\n")
        else:
            out.write(f"{u} {v} {kind}\n")


def reference_read_network(src):
    """The edge-list reader the original way: split and int() per line.

    `src` is an open file or an iterable of lines.  Returns a
    netepi.netgen.Network; raises on the inputs the original rejected
    (not always with ValueError: an integer beyond int64 overflows).
    """
    from netepi.netgen import Network

    max_blocks = int(np.iinfo(np.int16).max)
    n = None
    sizes = None
    discarded = (0, 0, 0)
    eu, ev, loc, qu, qv = [], [], [], [], []
    for raw in src:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#n "):
                n = int(line[3:])
            elif line.startswith("#households "):
                sizes = np.array([int(s) for s in line[12:].split(",")], dtype=np.int64)
            elif line.startswith("#discarded "):
                parts = line.split()
                discarded = (int(parts[1]), int(parts[2]), int(parts[3]))
            continue
        parts = line.split()
        if len(parts) not in (3, 5):
            raise ValueError(f"bad edge line {line!r}")
        eu.append(int(parts[0]))
        ev.append(int(parts[1]))
        if parts[2] not in ("local", "global"):
            raise ValueError(f"bad edge kind in line {line!r}")
        loc.append(parts[2] == "local")
        if len(parts) == 5:
            q_a, q_b = int(parts[3]), int(parts[4])
            if not (0 <= q_a <= max_blocks and 0 <= q_b <= max_blocks):
                raise ValueError(
                    f"block label outside 0..{max_blocks} in line {line!r}")
            qu.append(q_a)
            qv.append(q_b)
        else:
            qu.append(0)
            qv.append(0)
    if n is None or sizes is None:
        raise ValueError("missing #n or #households header")
    if int(sizes.sum()) != n:
        raise ValueError("household sizes do not sum to n")
    edges_u = np.array(eu, dtype=np.int64)
    edges_v = np.array(ev, dtype=np.int64)
    ends = np.concatenate([edges_u, edges_v])
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError("edge endpoint out of range")
    return Network(n, sizes, edges_u, edges_v,
                   np.array(loc, dtype=bool),
                   np.array(qu, dtype=np.int16), np.array(qv, dtype=np.int16),
                   *discarded)


def clustering_by_triples(n, edges_u, edges_v):
    """Global clustering of the simple reduction of a multigraph by brute
    force over node triples: (closed ordered triples, ordered paths)."""
    adj = [set() for _ in range(n)]
    for u, v in zip(edges_u.tolist(), edges_v.tolist()):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    closed = 0
    for a, b, c in itertools.combinations(range(n), 3):
        if b in adj[a] and c in adj[b] and c in adj[a]:
            closed += 6
    paths = sum(len(s) * (len(s) - 1) for s in adj)
    return closed, paths


def household_pmfs_by_enumeration(h, p):
    """Final-size (out) and susceptibility-set (in) pmfs for a complete
    graph on h nodes, one initial case, constant transmission prob p."""
    edges = [(i, j) for i in range(h) for j in range(h) if i != j]
    return enumerate_bond_percolation(h, p, edges)


def household_pmf_chain_binomial(h, p):
    """Reed-Frost chain-binomial DP over (susceptibles, new infectives).

    Independent route to the same final-size law as bond enumeration for
    a constant infectious period.
    """
    q = 1.0 - p
    pmf = np.zeros(h)
    # states: (s, i) with probability mass; start one case, h-1 susceptible
    states = {(h - 1, 1): 1.0}
    while states:
        nxt = {}
        for (s, i), w in states.items():
            if i == 0:
                pmf[h - 1 - s] += w
                continue
            esc = q**i
            for k in range(s + 1):
                wk = w * math.comb(s, k) * (1 - esc) ** k * esc ** (s - k)
                key = (s - k, k)
                nxt[key] = nxt.get(key, 0.0) + wk
        states = nxt
    return pmf


def household_pmfs_general_by_enumeration(h, phi):
    """Final-size (out) and susceptibility-set (in) pmfs for a complete
    graph on h <= 4 nodes under any infectious period, by enumerating
    every node's out-set.

    phi(k) is E[exp(-k rate I)].  Given its period a node bonds to each
    housemate independently with probability 1 - exp(-rate I), so its
    out-set is exactly S with probability
    sum_j (-1)^j C(|S|, j) phi(h-1-|S|+j); distinct nodes are
    independent.
    """
    if h > 4:
        raise ValueError("enumeration is for h <= 4")
    nodes = range(h)
    choices = []
    for u in nodes:
        mates = [v for v in nodes if v != u]
        sets = []
        for size in range(h):
            prob = math.fsum((-1) ** j * math.comb(size, j)
                             * phi(h - 1 - size + j) for j in range(size + 1))
            sets += [(out, prob) for out in itertools.combinations(mates, size)]
        choices.append(sets)
    out_pmf = np.zeros(h)
    in_pmf = np.zeros(h)
    for pattern in itertools.product(*choices):
        weight = math.prod(prob for _, prob in pattern)
        adj = {u: list(out) for u, (out, _) in zip(nodes, pattern)}
        radj = {v: [u for u in nodes if v in adj[u]] for v in nodes}
        out_pmf[len(_reach(adj, 0)) - 1] += weight
        in_pmf[len(_reach(radj, 0)) - 1] += weight
    return out_pmf, in_pmf


def household_mean_by_alpha(infection, h):
    """E[T], the mean number of housemates one introduction infects in a
    household of size h, for any infectious period, by the forward
    triangular recursion of Ball (1986): alpha_k solves
    sum_{l<=k} C(k,l) alpha_l phi(l)^(k-l) = k, and
    E[T] = h - 1 - sum_k C(h-1,k) alpha_k phi(k)^(h-k).  Its sums
    alternate in sign and cancel for wide households at small p_i, so it
    serves as a reference at small sizes only."""
    phi = np.array([infection.phi_multiple(k) for k in range(h + 1)])
    # alpha_k solve sum_{l<=k} C(k,l) alpha_l phi(l)^(k-l) = k
    alpha = [0.0] * h
    if h >= 2:
        alpha[1] = 1.0
    for k in range(2, h):
        acc = math.fsum(
            math.comb(k, l) * alpha[l] * phi[l] ** (k - l)
            for l in range(1, k)
        )
        alpha[k] = k - acc
    acc = math.fsum(
        math.comb(h - 1, k) * alpha[k] * phi[k] ** (h - k)
        for k in range(1, h)
    )
    return h - 1 - acc


def general_period_household_mean_mc(h, rate, sampler, n_runs, seed):
    """Monte Carlo mean final size for a general infectious period:
    node u infects each housemate independently w.p. 1 - exp(-rate I_u)."""
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(n_runs):
        periods = sampler(rng, h)
        p_u = 1.0 - np.exp(-rate * periods)
        open_mat = rng.random((h, h)) < p_u[:, None]
        np.fill_diagonal(open_mat, False)
        seen = np.zeros(h, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in np.flatnonzero(open_mat[u]):
                if not seen[v]:
                    seen[v] = True
                    frontier.append(v)
        total += int(seen.sum()) - 1
    return total / n_runs


def branching_total_progeny_mc(h, p, n_runs, seed, cap=100_000):
    """Total offspring count of the tree-like (rewired) local process:
    the root infects Bin(h-1, p) children, everyone else Bin(h-2, p).

    Returns (mean, standard error) of the progeny count, runs truncated
    at `cap` (only relevant when supercritical).
    """
    rng = np.random.default_rng(seed)
    alive = rng.binomial(h - 1, p, size=n_runs).astype(np.int64)
    total = alive.copy()
    while True:
        active = alive > 0
        if not active.any():
            break
        births = np.zeros_like(alive)
        births[active] = rng.binomial(alive[active] * (h - 2), p)
        alive = births
        total += births
        over = total >= cap
        alive[over] = 0
        total[over] = cap
    mean = float(total.mean())
    se = float(total.std(ddof=1) / math.sqrt(n_runs))
    return mean, se


def branching_extinction_mc(offspring_sampler, n_runs, seed, cap=2000):
    """Extinction frequency of a single-type branching process; a line
    that reaches `cap` living individuals counts as surviving."""
    rng = np.random.default_rng(seed)
    extinct = 0
    for _ in range(n_runs):
        alive = 1
        while 0 < alive < cap:
            alive = int(offspring_sampler(rng, alive))
        if alive == 0:
            extinct += 1
    return extinct / n_runs



def _cat_rows(rng, cdf_rows, idx):
    """One categorical draw per element, using row idx[k] of cdf_rows."""
    u = rng.random(idx.size)
    out = np.empty(idx.size, dtype=np.int64)
    for v in np.unique(idx):
        m = idx == v
        out[m] = np.searchsorted(cdf_rows[v], u[m], side="right")
    return np.minimum(out, cdf_rows.shape[1] - 1)


class MultitypeForwardMC:
    """Generative simulation of the typed early-outbreak process.

    Particles are globally infected individuals typed by the block of the
    stub that infected them.  Household spread uses the Reed-Frost chain
    binomial, stub labelling and block targeting are recomputed here from
    first principles; only the quantile-table conditionals are taken as
    inputs.  A generation reaching `cap` particles counts as surviving.
    """

    def __init__(self, h_support, h_probs, g_support, g_probs,
                 d_vals, d_given_q, q_given_d, r, n_q, p_i,
                 cap=120, max_gens=400):
        self.h_support = np.asarray(h_support, dtype=np.int64)
        self.g_support = np.asarray(g_support, dtype=np.int64)
        self.g_probs = np.asarray(g_probs, dtype=float)
        self.d_vals = np.asarray(d_vals, dtype=np.int64)
        self.r, self.n_q, self.p_i = r, n_q, p_i
        self.cap, self.max_gens = cap, max_gens

        h_probs = np.asarray(h_probs, dtype=float)
        mu_h = float(self.h_support @ h_probs)
        self.pi_tilde = self.h_support * h_probs / mu_h
        mu_g = float(self.g_support @ self.g_probs)
        gt_lookup = {int(g): g * p / mu_g
                     for g, p in zip(self.g_support, self.g_probs) if g >= 1}

        n_h = self.h_support.size
        sgd = np.zeros((self.d_vals.size, n_h))
        for k, d in enumerate(self.d_vals):
            for j, h in enumerate(self.h_support):
                sgd[k, j] = self.pi_tilde[j] * gt_lookup.get(int(d - h + 1), 0.0)
            tot = sgd[k].sum()
            if tot > 0.0:
                sgd[k] /= tot

        self.t_cdf = {int(h): np.cumsum(household_pmf_chain_binomial(int(h), p_i))
                      for h in self.h_support}
        self.cdf_pi_tilde = np.cumsum(self.pi_tilde)
        self.cdf_d_given_q = np.cumsum(d_given_q, axis=0).T
        self.cdf_sgd = np.cumsum(sgd, axis=1)
        self.cdf_q_given_d = np.cumsum(q_given_d, axis=1)
        self.cdf_g = np.cumsum(self.g_probs)
        self.lut = np.full(int(self.d_vals.max()) + 2, -1, dtype=np.int64)
        self.lut[self.d_vals] = np.arange(self.d_vals.size)

    def _kernel(self, blocks):
        return blocks if self.r >= 0.0 else (self.n_q - 1) - blocks

    def _sample_t(self, rng, h):
        out = np.empty(h.size, dtype=np.int64)
        u = rng.random(h.size)
        for v in np.unique(h):
            m = h == v
            out[m] = np.searchsorted(self.t_cdf[int(v)], u[m], side="right")
        return out

    def _stub_targets(self, rng, labelled_block):
        """Block hit by each transmitting stub: labelled stubs (prob |r|)
        go through the kernel, the rest land uniformly.  labelled_block
        gives, per stub, the block of the stub's own end."""
        n = labelled_block.size
        lab = rng.random(n) < abs(self.r)
        return np.where(lab, self._kernel(labelled_block),
                        rng.integers(0, self.n_q, n))

    def _household_children(self, rng, run, h):
        """Children created through housemates: draw the Reed-Frost count,
        give each mate a global degree, transmit along each stub."""
        t = self._sample_t(rng, h)
        mate_run = np.repeat(run, t)
        mate_h = np.repeat(h, t)
        gm = self.g_support[np.minimum(
            np.searchsorted(self.cdf_g, rng.random(mate_run.size), "right"),
            self.g_support.size - 1)]
        n_child = rng.binomial(gm, self.p_i)
        child_run = np.repeat(mate_run, n_child)
        d_idx = np.repeat(self.lut[np.minimum(gm + mate_h - 1,
                                              self.lut.size - 1)], n_child)
        own_blocks = _cat_rows(rng, self.cdf_q_given_d, d_idx)
        return child_run, self._stub_targets(rng, own_blocks)

    def _typed_generation(self, rng, run, types):
        """All children of typed particles: own spare stubs target via the
        particle's type, housemates via their stub's own block."""
        d_idx = _cat_rows(rng, self.cdf_d_given_q, types)
        h_idx = _cat_rows(rng, self.cdf_sgd, d_idx)
        h = self.h_support[h_idx]
        spare = self.d_vals[d_idx] - h
        n_own = rng.binomial(spare, self.p_i)
        own_run = np.repeat(run, n_own)
        own_src = np.repeat(types, n_own)
        own_types = self._stub_targets(rng, own_src)
        mate_run, mate_types = self._household_children(rng, run, h)
        return (np.concatenate([own_run, mate_run]),
                np.concatenate([own_types, mate_types]))

    def _ancestor_generation(self, rng, n_runs):
        """First generation from a uniformly chosen introduction."""
        run = np.arange(n_runs, dtype=np.int64)
        h0 = self.h_support[np.minimum(
            np.searchsorted(self.cdf_pi_tilde, rng.random(n_runs), "right"),
            self.h_support.size - 1)]
        g0 = self.g_support[np.minimum(
            np.searchsorted(self.cdf_g, rng.random(n_runs), "right"),
            self.g_support.size - 1)]
        n_own = rng.binomial(g0, self.p_i)
        own_run = np.repeat(run, n_own)
        d0_idx = np.repeat(self.lut[np.minimum(g0 + h0 - 1, self.lut.size - 1)],
                           n_own)
        own_blocks = _cat_rows(rng, self.cdf_q_given_d, d0_idx)
        own_types = self._stub_targets(rng, own_blocks)
        mate_run, mate_types = self._household_children(rng, run, h0)
        return (np.concatenate([own_run, mate_run]),
                np.concatenate([own_types, mate_types]))

    def extinction_fraction(self, n_runs, seed, root_type=None):
        rng = np.random.default_rng(seed)
        if root_type is None:
            run, types = self._ancestor_generation(rng, n_runs)
        else:
            run = np.arange(n_runs, dtype=np.int64)
            types = np.full(n_runs, root_type, dtype=np.int64)
        undecided = np.ones(n_runs, dtype=bool)
        extinct = np.zeros(n_runs, dtype=bool)
        for _ in range(self.max_gens):
            counts = np.bincount(run, minlength=n_runs)
            died = undecided & (counts == 0)
            extinct |= died
            undecided &= ~died
            undecided &= ~(counts >= self.cap)
            keep = undecided[run]
            run, types = run[keep], types[keep]
            if run.size == 0:
                break
            run, types = self._typed_generation(rng, run, types)
        return extinct.sum() / n_runs
