"""Monte Carlo SIR epidemics on generated networks.

A single epidemic is a directed bond percolation: every ordered
neighbour pair (u, v) carries an independent bond that is open with the
probability that u, once infected, transmits to v.  For a constant
infectious period that is one Bernoulli(p_i) per directed bond; for a
general period each node draws its period once and all bonds out of it
share that draw, which `InfectionSpec.sample_periods` makes for all n
nodes once per run.  Breadth-first exploration of open bonds from the seed
yields the final size and the per-generation counts.  Exploring against
the bond direction instead yields the size of the set of nodes that
would have infected the start node, whose mean connects to the
asymptotic relative final size.

The exploration walks the network's cached CSR adjacency
(`Network.adjacency`), so a forward and a reverse run on one network
share one build.  A level cuts its frontier, at row boundaries, into
pieces of about 2**16 bonds.  Each piece lists the heads of its bonds
with scipy's CSR row-gather kernel, draws one uniform per bond, keeps
the open ones with `np.compress`, which at their density (0.2-0.45 of
the bonds) runs in under half the time of a boolean index, and marks
the heads hit in a boolean mask.  A piece's heads, probabilities,
uniforms and compare mask stay in cache, and since the uniforms are
drawn piece after piece in bond order, they are one stream at any piece
size.  The level then clears the seen ones from the mask, in one pass
over the two n-byte masks, and lists the rest; the next frontier comes
out in increasing node order, so the random draws of a run on a given
network do not depend on how it is built.

Per node, a general-period run costs the n periods its stream draws,
overwritten by their bond probabilities (8 bytes per node), and a large
outbreak two n-byte masks and two passes over them per level.  Beyond
that a level holds its frontier's ids and bond counts, the new nodes it
reached and one piece: at n = 2e5 a gamma-period major outbreak
peaks at about 28 bytes per node over the live network.  Small levels
and small outbreaks skip the n-byte passes: a level with fewer than n/64
bonds sorts its hits instead of marking them, and until n/64 nodes
are seen, or a level has n/64 bonds, the seen ones are a sorted array,
so a minor outbreak costs its size, not n.  A level reads the CSR rows of its frontier
only, and the final size is the sum of the generation counts.

`estimate` repeats build / rewire / infect with independently spawned
seed streams, splits outcomes into minor and major at a size cutoff
and reports the major-outbreak frequency and mean relative size with
binomial / empirical standard errors.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.sparse import _sparsetools

from .branching import ModelParams
from .distributions import check_integer
from .errors import AmbiguousBimodality, NoMajorOutbreaks
from .netgen import Network, build_network, rewire

DEFAULT_CUTOFF = 0.05


@dataclass(frozen=True)
class EpidemicOutcome:
    """One simulated epidemic: total ever infected (seed included), the
    infected fraction of the population, and the number of new
    infections in each generation (index 0 is the seed generation)."""

    final_size: int
    infected_fraction: float
    generations: np.ndarray

    def __post_init__(self):
        if int(self.generations.sum()) != self.final_size:
            raise ValueError(
                f"generation counts sum to {int(self.generations.sum())}, "
                f"not the final size {self.final_size}"
            )


# a level's bonds are drawn in pieces of about _PIECE bonds, cut at row
# boundaries, so that a piece's heads, probabilities, uniforms and mask
# stay in cache and a level's temporaries do not grow with the level
_PIECE = 1 << 16
# a level with fewer than n >> _FEW_SHIFT bonds sorts its hits rather
# than pass over an n-byte mask, and an outbreak keeps its seen nodes
# sorted until it has that many; at n = 1e6, n >> 3 ran major outbreaks
# about 6% slower and n >> 8 minor ones 5-20% slower
_FEW_SHIFT = 6


def _open_heads(frontier, counts, ends, indptr, heads, rng, p_i, p_node,
                reverse):
    """The heads of the level's open bonds, one array per piece, with one
    uniform per bond in bond order: `rng.random(a)` then `rng.random(b)`
    draws the stream of `rng.random(a + b)`, so the outcome does not
    depend on _PIECE.  A row longer than a piece is a piece of its own."""
    a = base = 0
    total = int(ends[-1])
    while a < frontier.size:
        b = frontier.size
        if total - base > _PIECE:
            b = max(int(ends.searchsorted(base + _PIECE, "right")), a + 1)
        rows = frontier[a:b]
        end = int(ends[b - 1])
        # the heads of the piece's bonds, row by row, from scipy's CSR
        # row-gather kernel; heads goes in as both its index and its
        # data array, so the kernel writes each head twice into `listed`
        # and no payload array is needed
        listed = np.empty(end - base, dtype=heads.dtype)
        _sparsetools.csr_row_index(rows.size, rows, indptr, heads, heads,
                                   listed, listed)
        if p_node is None:
            prob = p_i
        elif reverse:
            # a bond into v is open with v's probability
            prob = p_node.take(listed)
        else:
            prob = np.repeat(p_node.take(rows), counts[a:b])
        # open bonds are 0.2-0.45 of a piece's: at 43% of 1e7 intp,
        # np.compress takes 34 ms where a boolean index takes 81 ms
        yield listed.compress(rng.random(listed.size) < prob)
        a, base = b, end


def run_epidemic(net: Network, infection, seed, start: Optional[int] = None,
                 reverse: bool = False) -> EpidemicOutcome:
    """Percolation epidemic from `start` (uniform if None).

    reverse=True explores against the bond direction, producing the set
    of nodes whose infection would reach the start node.  Self-loops are
    inert; parallel edges carry independent bonds.
    """
    n = net.n
    if start is not None:
        # bool is an int, and seen[True] would mark every node
        if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
            raise ValueError(f"start must be an integer node id, got "
                             f"{start!r}")
        if not 0 <= start < n:
            raise ValueError(f"start must lie in 0..{n - 1}, got {start}")
    rng = np.random.default_rng(seed)
    indptr, heads = net.adjacency

    if start is None:
        start = int(rng.integers(n))

    p_node = None
    if not infection.is_constant:
        # each node's bond probability 1 - exp(-rate * period), written
        # over its period: the same three operations, one n-float array
        p_node = infection.sample_periods(rng, n)
        np.multiply(p_node, -infection.rate, out=p_node)
        np.exp(p_node, out=p_node)
        np.subtract(1.0, p_node, out=p_node)

    few = n >> _FEW_SHIFT
    # the frontier stays in the CSR's index dtype, which the row gather
    # takes without a cast
    frontier = np.array([start], dtype=indptr.dtype)
    # until the outbreak has `few` nodes or a level `few` bonds, the seen
    # ones are a sorted array and no n-byte mask exists, so a minor
    # outbreak costs its size
    seen_ids, seen, marked = frontier, None, None
    generations = [1]
    while frontier.size:
        # take gathers by int32 ids 1.3-2x faster than an index does
        counts = indptr[1:].take(frontier) - indptr.take(frontier)
        ends = counts.cumsum()
        hits = _open_heads(frontier, counts, ends, indptr, heads, rng,
                           infection.p_i, p_node, reverse)
        sorting = ends[-1] < few
        if seen is None and (seen_ids.size >= few or not sorting):
            seen = np.zeros(n, dtype=bool)
            seen[seen_ids] = True
            marked = np.zeros(n, dtype=bool)
        if sorting:
            # few hits: a sort costs less than a pass over an n-byte mask
            # and gives the heads in node order, a repeat beside the head
            # it repeats
            reached = np.concatenate(list(hits))
            reached.sort()
            if seen is None:
                unseen = seen_ids.take(seen_ids.searchsorted(reached),
                                       mode="clip") != reached
            else:
                unseen = ~seen.take(reached)
            unseen[1:] &= reached[1:] != reached[:-1]
            new = reached.compress(unseen)
        else:
            # one scatter per piece, then the heads hit and not seen, in
            # node order, from two passes over the masks
            for hit in hits:
                marked[hit] = True
            np.greater(marked, seen, out=marked)
            new = marked.nonzero()[0]
            marked[new] = False
        if new.size == 0:
            break
        if seen is None:
            seen_ids = np.concatenate((seen_ids, new))
            seen_ids.sort()
        else:
            seen[new] = True
        frontier = new.astype(indptr.dtype, copy=False)
        generations.append(int(new.size))
    size = sum(generations)
    return EpidemicOutcome(size, size / n,
                           np.array(generations, dtype=np.int64))


def classify(final_sizes: np.ndarray, cutoff: float, n: int):
    """Split runs into minor/major.  A cutoff in (0, 1) is a fraction of
    n, anything >= 1 an absolute count.  Returns (major flags, threshold
    used); warns when many runs crowd the threshold, since then the
    split is not backed by a bimodal histogram."""
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    threshold = int(math.ceil(cutoff * n)) if cutoff < 1.0 else int(cutoff)
    final_sizes = np.asarray(final_sizes)
    major = final_sizes >= threshold
    near = np.abs(final_sizes - threshold) <= 0.2 * threshold
    if near.mean() > 0.02:
        warnings.warn(
            f"{int(near.sum())} of {final_sizes.size} final sizes fall "
            f"within 20% of the cutoff {threshold}; the minor/major "
            "separation is unclear",
            AmbiguousBimodality,
        )
    return major, threshold


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimates over repeated build / rewire / infect runs."""

    n: int
    n_sims: int
    cutoff_used: int
    seeds: np.ndarray
    final_sizes: np.ndarray
    major: np.ndarray
    p_hat: float
    p_se: float

    @property
    def n_major(self) -> int:
        return int(self.major.sum())

    @property
    def has_major(self) -> bool:
        return self.n_major > 0

    @property
    def histogram(self) -> np.ndarray:
        """Counts of each final size, index = size (0 unused)."""
        return np.bincount(self.final_sizes, minlength=self.n + 1)

    @property
    def z_hat(self) -> float:
        if not self.has_major:
            raise NoMajorOutbreaks(
                f"none of {self.n_sims} runs reached the cutoff "
                f"{self.cutoff_used}")
        return float(self.final_sizes[self.major].mean() / self.n)

    @property
    def z_se(self) -> float:
        if not self.has_major:
            raise NoMajorOutbreaks(
                f"none of {self.n_sims} runs reached the cutoff "
                f"{self.cutoff_used}")
        if self.n_major == 1:
            return float("nan")
        fracs = self.final_sizes[self.major] / self.n
        return float(fracs.std(ddof=1) / math.sqrt(self.n_major))


def _run_one(params: ModelParams, n: int, seed_value: int) -> int:
    ss = np.random.SeedSequence(seed_value)
    s_build, s_rewire, s_epi = ss.spawn(3)
    net = build_network(params.gen_spec(n), seed=s_build)
    if params.p_rw > 0.0:
        net = rewire(net, params.p_rw, seed=s_rewire)
    return run_epidemic(net, params.infection, seed=s_epi).final_size


def estimate(params: ModelParams, n: int, n_sims: int, master_seed: int,
             cutoff: float = DEFAULT_CUTOFF, threads: int = 1) -> EstimateReport:
    """Build a fresh network per run, infect one uniform seed, classify
    runs as major at the cutoff (fraction of n or absolute count).

    Per-run integer seeds derive from the master seed, so results are
    reproducible bit for bit and independent of `threads` (the worker
    pool returns results in seed order).
    """
    for name, count in (("n_sims", n_sims), ("threads", threads)):
        check_integer(name, count)
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    params.gen_spec(n)  # a bad n fails here, before any run or worker
    ss = np.random.SeedSequence(master_seed)
    seeds = ss.generate_state(n_sims, dtype=np.uint64)

    run = partial(_run_one, params, n)
    if threads > 1:
        # about four chunks per worker
        chunk = -(-n_sims // (threads * 4))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            sizes = list(pool.map(run, seeds.tolist(), chunksize=chunk))
    else:
        sizes = [run(s) for s in seeds.tolist()]
    final_sizes = np.array(sizes, dtype=np.int64)

    major, threshold = classify(final_sizes, cutoff, n)
    p_hat = float(major.mean())
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / n_sims)
    return EstimateReport(n=n, n_sims=n_sims, cutoff_used=threshold,
                          seeds=seeds, final_sizes=final_sizes, major=major,
                          p_hat=p_hat, p_se=p_se)
