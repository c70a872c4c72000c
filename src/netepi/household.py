"""Within-household epidemic laws.

A household of size h is a complete graph on which the SIR epidemic is
equivalent to directed bond percolation: node u, if ever infected, makes
infectious contact with each housemate independently with probability
1 - exp(-rate * I_u) given its infectious period I_u.

Two directions matter.  Forward: T, the number of housemates a single
introduction ultimately infects.  Backward: M, the number of housemates
who would infect a focal node were they infected themselves (the local
susceptibility set).  For a constant period the bonds are independent,
so T and M coincide in law and the one pmf of M serves both directions;
in general only their means do, and only M's law is used.

Everything is driven by the Laplace transform of the period evaluated at
integer multiples of the contact rate, so the same recursions serve the
constant and general cases.

Rewiring replaces a household's clique by a uniformly re-paired
(locally tree-like) graph with the same degrees; its local epidemic is a
branching process whose offspring counts are Bin(h-2, p) after the root,
giving closed-form means and fixed-point PGFs.  Mixtures over the
rewiring probability are plain convex combinations.

`HouseholdEngine.mixture_pgf_profile` is the one PGF path: it evaluates
the mixture for many household sizes at once, with one Horner pass over
the zero-padded matrix of their pmfs, and the branching engine calls it
once per offspring-PGF evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import InfectionSpec
from .errors import NonConvergence

_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_MAX_ITER = 200_000
_PMF_SUM_TOL = 1e-10
_PMF_NEG_TOL = 1e-9


class HouseholdEngine:
    """Caches the per-size susceptibility-set laws and final-size means for
    one infectious-period specification, for household sizes up to
    max_size."""

    def __init__(self, infection: InfectionSpec, max_size: int):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.infection = infection
        self.max_size = int(max_size)
        # survival probabilities phi_I(k * rate) for k exposures
        self._phi = np.array(
            [infection.phi_multiple(k) for k in range(self.max_size + 1)]
        )
        self._alpha = self._mean_coefficients()
        self._beta = self._susceptibility_coefficients()
        self._mean_cache: dict[int, float] = {}
        self._m_pmf_cache: dict[int, np.ndarray] = {}
        self._pmf_matrices: dict[bytes, np.ndarray] = {}

    # -- mean final size (general period) --------------------------------

    def _mean_coefficients(self) -> list[float]:
        # alpha_k solve sum_{l<=k} C(k,l) alpha_l phi(l)^(k-l) = k
        alpha = [0.0] * self.max_size
        if self.max_size >= 2:
            alpha[1] = 1.0
        for k in range(2, self.max_size):
            acc = math.fsum(
                math.comb(k, l) * alpha[l] * self._phi[l] ** (k - l)
                for l in range(1, k)
            )
            alpha[k] = k - acc
        return alpha

    def final_size_mean(self, h: int) -> float:
        """Expected number of housemates infected by one introduction."""
        self._check_size(h)
        if h not in self._mean_cache:
            acc = math.fsum(
                math.comb(h - 1, k) * self._alpha[k] * self._phi[k] ** (h - k)
                for k in range(1, h)
            )
            self._mean_cache[h] = h - 1 - acc
        return self._mean_cache[h]

    # -- susceptibility set (any period) ----------------------------------

    def _susceptibility_coefficients(self) -> list[float]:
        # beta_k = P(all k-1 housemates of a size-k household join the set)
        beta = [0.0, 1.0]
        for k in range(2, self.max_size + 1):
            acc = math.fsum(
                math.comb(k - 1, l - 1) * self._phi[l] ** (k - l) * beta[l]
                for l in range(1, k)
            )
            beta.append(1.0 - acc)
        return beta

    def susceptibility_pmf(self, h: int) -> np.ndarray:
        """P(M = k), k = 0..h-1, for any infectious period."""
        self._check_size(h)
        if h not in self._m_pmf_cache:
            pmf = np.array(
                [
                    math.comb(h - 1, k)
                    * self._phi[k + 1] ** (h - 1 - k)
                    * self._beta[k + 1]
                    for k in range(h)
                ]
            )
            total = math.fsum(pmf)
            if abs(total - 1.0) > _PMF_SUM_TOL or pmf.min() < -_PMF_NEG_TOL:
                raise NonConvergence(
                    f"susceptibility pmf for h={h} lost precision "
                    f"(sum={total}, min={pmf.min()})"
                )
            self._m_pmf_cache[h] = np.clip(pmf, 0.0, None)
        return self._m_pmf_cache[h]

    def susceptibility_mean(self, h: int) -> float:
        pmf = self.susceptibility_pmf(h)
        return float(np.dot(np.arange(h), pmf))

    # -- rewired (tree-like) locals ---------------------------------------

    def rewired_final_size_mean(self, h: int) -> float:
        """Mean progeny of the tree-like local process; infinite once
        p_i reaches 1/(h-2)."""
        self._check_size(h)
        p = self.infection.p_i
        if h == 1:
            return 0.0
        if h >= 3 and p >= 1.0 / (h - 2):
            return math.inf
        return (h - 1) * p / (1.0 - (h - 2) * p)

    # -- mixtures over the rewiring probability ---------------------------

    def mixture_mean(self, h: int, p_rw: float) -> float:
        _check_prw(p_rw)
        if p_rw == 0.0:
            return self.final_size_mean(h)
        rew = self.rewired_final_size_mean(h)
        if math.isinf(rew):
            return math.inf
        return (1.0 - p_rw) * self.final_size_mean(h) + p_rw * rew

    # -- the PGF path used by the branching-process engine ----------------

    def mixture_pgf_profile(self, sizes: np.ndarray, s_by_size: np.ndarray,
                            p_rw: float) -> np.ndarray:
        """PGF of the local progeny of each household size at its own
        argument, when the household was rewired with probability p_rw: a
        convex combination of the intact susceptibility-set law M and the
        rewired tree law.  Both serve the backward process for any period
        (each tree node contributes exactly one bond along its path) and,
        for a constant period, the forward one too, where the final size T
        has the law of M."""
        _check_prw(p_rw)
        sizes = np.asarray(sizes, dtype=np.int64)
        s_by_size = np.asarray(s_by_size, dtype=np.float64)
        # Horner over the columns of the zero-padded pmf matrix
        intact = np.zeros_like(s_by_size)
        for coeff in self._pmf_matrix(sizes).T[::-1]:
            intact = intact * s_by_size + coeff
        if p_rw == 0.0:
            return intact
        p = self.infection.p_i
        x = _subtree_fixed_point(s_by_size, sizes, p)
        rewired = (1.0 - p + p * x) ** (sizes - 1)
        return (1.0 - p_rw) * intact + p_rw * rewired

    def _pmf_matrix(self, sizes: np.ndarray) -> np.ndarray:
        """Row k holds the pmf of M for sizes[k], padded with zeros to the
        largest size."""
        key = sizes.tobytes()
        if key not in self._pmf_matrices:
            mat = np.zeros((sizes.size, int(sizes.max(initial=1))))
            for row, h in zip(mat, sizes):
                row[:h] = self.susceptibility_pmf(int(h))
            self._pmf_matrices[key] = mat
        return self._pmf_matrices[key]

    def _check_size(self, h: int) -> None:
        if not 1 <= h <= self.max_size:
            raise ValueError(f"household size {h} outside 1..{self.max_size}")


def _check_prw(p_rw: float) -> None:
    if not 0.0 <= p_rw <= 1.0:
        raise ValueError("p_rw must lie in [0, 1]")


def _subtree_fixed_point(s: np.ndarray, sizes: np.ndarray, p: float) -> np.ndarray:
    """Smallest solution of x = s (1 - p + p x)^(h-2), elementwise, by
    monotone iteration from 0 (sizes < 3 are passed through untouched)."""
    x = np.zeros_like(s)
    expo = np.maximum(sizes - 2, 0)
    for _ in range(_FIXED_POINT_MAX_ITER):
        nxt = s * (1.0 - p + p * x) ** expo
        if np.max(np.abs(nxt - x)) < _FIXED_POINT_TOL:
            return nxt
        x = nxt
    return x  # exactly-critical cases approach 1 like 1/k; close enough
