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
share one build.  A level lists the heads of its frontier's bonds with
scipy's CSR row-gather kernel, draws one uniform per bond, and keeps
the open ones with `np.compress`, which at their density (0.2-0.45 of a
level's bonds) runs in under half the time of a boolean index.  The
heads hit are deduplicated by a scatter into a boolean mask, not a
sort, and the seen ones dropped from the distinct heads; the next
frontier comes out in increasing node order, so the random draws of a
run on a given network do not depend on how it is built.

Per node, a run costs two n-byte masks, one pass over a mask per level
to list the heads hit, and for a general period the n periods its
stream draws (16 bytes per node with their bond probabilities).
Everything else follows the outbreak: a level reads the CSR rows of its
frontier only, and the final size is the sum of the generation counts.

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

    p_i = infection.p_i
    if not infection.is_constant:
        periods = infection.sample_periods(rng, n)
        p_node = 1.0 - np.exp(-infection.rate * periods)

    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    marked = np.zeros(n, dtype=bool)
    # the frontier stays in the CSR's index dtype, which the row gather
    # below takes without a cast
    frontier = np.array([start], dtype=indptr.dtype)
    generations = [1]
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        # the heads of the level's bonds, row by row, from scipy's CSR
        # row-gather kernel; heads goes in as both its index and its data
        # array, so the kernel writes each head twice into `listed` and no
        # 2E-byte payload array is needed (one would break the 3n-byte
        # budget of a minor outbreak)
        listed = np.empty(int(counts.sum()), dtype=heads.dtype)
        _sparsetools.csr_row_index(frontier.size, frontier, indptr, heads,
                                   heads, listed, listed)
        # open bonds are 0.2-0.45 of a level's: at 43% of 1e7 intp,
        # np.compress takes 34 ms where a boolean index takes 81 ms
        if reverse and not infection.is_constant:
            # a bond into v is open with v's probability
            prob = p_node[listed]
        else:
            prob = (p_i if infection.is_constant
                    else np.repeat(p_node[frontier], counts))
        hit = np.compress(rng.random(listed.size) < prob, listed)
        del listed, prob  # free them before the scatter below allocates
        # the distinct heads in node order from one scatter, then the
        # unseen among them (from all to none of them over an outbreak):
        # at 2e6 hits on n = 1e6, 60% seen, 15 ms where compacting the
        # hits by ~seen[hit] took 25 ms
        marked[hit] = True
        reached = np.flatnonzero(marked)
        marked[reached] = False
        new = np.compress(~seen[reached], reached)
        if new.size == 0:
            break
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
