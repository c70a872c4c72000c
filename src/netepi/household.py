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
giving closed-form means and fixed-point PGFs.  The subtree fixed
point is solved by elementwise Newton from 0, which also yields its
derivative, and raises `NonConvergence` rather than return an
unconverged value.  Mixtures over the rewiring probability are plain
convex combinations.

`HouseholdEngine.mixture_pgf_profile` is the one PGF path: it evaluates
the mixture for many household sizes at once, with one Horner pass over
the zero-padded matrix of their pmfs, and the branching engine calls it
once per offspring-PGF evaluation.  The same pass gives the derivative
of each PGF with respect to its argument when asked.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import InfectionSpec
from .errors import NonConvergence

_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_MAX_ITER = 100
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
                            p_rw: float, derivative: bool = False):
        """PGF of the local progeny of each household size at its own
        argument, when the household was rewired with probability p_rw: a
        convex combination of the intact susceptibility-set law M and the
        rewired tree law.  Both serve the backward process for any period
        (each tree node contributes exactly one bond along its path) and,
        for a constant period, the forward one too, where the final size T
        has the law of M.  With derivative=True, returns (values,
        derivatives) with each PGF's derivative at its own argument."""
        _check_prw(p_rw)
        sizes = np.asarray(sizes, dtype=np.int64)
        s_by_size = np.asarray(s_by_size, dtype=np.float64)
        # Horner over the columns of the zero-padded pmf matrix, carrying
        # the derivative along
        intact = np.zeros_like(s_by_size)
        d_intact = np.zeros_like(s_by_size)
        for coeff in self._pmf_matrix(sizes).T[::-1]:
            if derivative:
                d_intact = d_intact * s_by_size + intact
            intact = intact * s_by_size + coeff
        if p_rw == 0.0:
            return (intact, d_intact) if derivative else intact
        p = self.infection.p_i
        x, dx = _subtree_fixed_point(s_by_size, sizes, p)
        base = 1.0 - p + p * x
        rewired = base ** (sizes - 1)
        mixed = (1.0 - p_rw) * intact + p_rw * rewired
        if not derivative:
            return mixed
        d_rewired = (sizes - 1) * base ** np.maximum(sizes - 2, 0) * p * dx
        return mixed, (1.0 - p_rw) * d_intact + p_rw * d_rewired

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


def _subtree_fixed_point(s: np.ndarray, sizes: np.ndarray,
                         p: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest solution x of x = s b^(h-2), b = 1 - p + p x, and its
    derivative dx/ds = b^(h-2) / (1 - s p (h-2) b^(h-3)), elementwise
    (sizes < 3 give x = s).

    Newton from 0 rises monotonically to the least root, because the
    right side is increasing and convex in x.  An element stops when its
    step falls to _FIXED_POINT_TOL or its residual s b^(h-2) - x stops
    being positive, which below the root it is but for rounding.  At
    s = 1 the least root is exactly 1 when the subtree is at most
    critical, p (h-2) <= 1; at p (h-2) = 1 that root is double and Newton
    would stall near 1 - 1e-8, so these elements are set directly.
    Raises NonConvergence at the iteration cap.
    """
    expo = np.maximum(sizes - 2, 0)
    # p <= 1/(h-2), as in rewired_final_size_mean, so p = 1/(h-2) counts
    # as critical whatever the rounding of p (h-2)
    at_most_critical = (expo == 0) | (p <= 1.0 / np.maximum(expo, 1))
    x = np.where((s == 1.0) & at_most_critical, 1.0, 0.0)
    active = x == 0.0
    history = []
    for _ in range(_FIXED_POINT_MAX_ITER):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xa, sa, ea = x[idx], s[idx], expo[idx]
        base = 1.0 - p + p * xa
        gap = sa * base ** ea - xa
        slope = sa * ea * p * base ** np.maximum(ea - 1, 0)
        # iterates below the root have gap > 0; gap <= 0 is the root
        # reached to within rounding
        step = np.where(gap > 0.0, gap / (1.0 - slope), 0.0)
        x[idx] = np.clip(xa + step, 0.0, 1.0)
        history.append(x.copy())
        active[idx] = step > _FIXED_POINT_TOL
    if active.any():
        raise NonConvergence(
            f"subtree fixed point did not converge in {_FIXED_POINT_MAX_ITER} "
            f"Newton steps", history=history
        )
    base = 1.0 - p + p * x
    slope = s * expo * p * base ** np.maximum(expo - 1, 0)
    # infinite where the subtree is exactly critical at s = 1
    with np.errstate(divide="ignore"):
        return x, base ** expo / (1.0 - slope)
