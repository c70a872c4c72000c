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
in general only their means do (by exchangeability), and only M's law
is used.

M's law comes from one backward chain binomial (Sellke 1983), exact for
any period and free of cancelling sums.  Members of the set are
processed one at a time from the focal node; an outsider that escaped
the first a escapes the next with probability phi(a+1)/phi(a),
independently of the others, where phi(k) is the period's Laplace
transform at k times the contact rate.  The set closes, with M = a - 1,
when the a processed members are all that joined.

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

import functools
import math

import numpy as np

from .distributions import InfectionSpec
from .errors import NonConvergence

_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_MAX_ITER = 100
_PMF_SUM_TOL = 1e-10


class HouseholdEngine:
    """The susceptibility-set law of every household size up to max_size
    for one infectious-period specification, built once on construction."""

    def __init__(self, infection: InfectionSpec, max_size: int):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.infection = infection
        self.max_size = int(max_size)
        # survival probabilities phi_I(k * rate) for k exposures
        phi = np.array(
            [infection.phi_multiple(k) for k in range(self.max_size + 1)]
        )
        self._pmf_table = _susceptibility_table(phi)
        # shared by susceptibility_pmf, the means and every PGF profile
        self._pmf_table.flags.writeable = False
        worst = np.abs(self._pmf_table.sum(axis=1) - 1.0).max()
        if worst > _PMF_SUM_TOL:
            raise NonConvergence(
                f"susceptibility pmf lost precision (largest |sum - 1| = "
                f"{worst} up to size {self.max_size})"
            )
        self._means = self._pmf_table @ np.arange(self.max_size, dtype=float)

    # -- susceptibility set (any period) ----------------------------------

    def susceptibility_pmf(self, h: int) -> np.ndarray:
        """P(M = k), k = 0..h-1, for any infectious period."""
        self._check_size(h)
        return self._pmf_table[h - 1, :h]

    def susceptibility_mean(self, h: int) -> float:
        """E[M], which is also E[T], the expected number of housemates one
        introduction infects, for any infectious period."""
        self._check_size(h)
        return float(self._means[h - 1])

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
            return self.susceptibility_mean(h)
        rew = self.rewired_final_size_mean(h)
        if math.isinf(rew):
            return math.inf
        return (1.0 - p_rw) * self.susceptibility_mean(h) + p_rw * rew

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
        self._check_size(int(sizes.min(initial=1)))
        largest = int(sizes.max(initial=1))
        self._check_size(largest)
        return self._pmf_table[sizes - 1, :largest]

    def _check_size(self, h: int) -> None:
        if not 1 <= h <= self.max_size:
            raise ValueError(f"household size {h} outside 1..{self.max_size}")


def _susceptibility_table(phi: np.ndarray) -> np.ndarray:
    """Row h-1 holds P(M = k), k = 0..h-1, zero-padded, for h = 1..H,
    given phi(k) for k = 0..H.

    One chain serves every size, as the thinning does not depend on h.
    Before member a+1 is processed, mass[h-1-a, s] is the probability
    that the set of a household of size h > a is open with s outsiders
    left; processing thins s by Bin(s, stay[a]), and the mass then on the
    diagonal, s = h-1-a, has closed with M = a.  Size a+1 is then done,
    so the matrix sheds its first row and its last column.  Each step
    builds its own thinning matrix, so memory stays O(H^2).
    """
    size = phi.size - 1
    # stay[a] = P(escape member a+1 | escaped members 1..a), at most 1 but
    # for rounding; where phi(a) = 0 no outsider is left to thin, so 0/0
    # reads as 0
    stay = np.minimum(1.0, np.divide(phi[1:], phi[:-1], out=np.zeros(size),
                                     where=phi[:-1] > 0.0))
    k = np.arange(size)
    drop = np.maximum(k[:, None] - k, 0)
    binom = _binomial_table(size)
    keep = stay[:, None] ** k
    lose = (1.0 - stay)[:, None] ** k
    table = np.zeros((size, size))
    mass = np.eye(size)  # one case; a household of size h has h-1 outsiders
    for a in range(size):
        m = size - a
        # thin[s, t] = C(s, t) stay[a]^t (1 - stay[a])^(s - t)
        thin = binom[:m, :m] * keep[a, :m] * lose[a, drop[:m, :m]]
        mass = mass @ thin
        table[a:, a] = mass.diagonal()
        np.fill_diagonal(mass, 0.0)
        mass = mass[1:, :-1]
    return table


@functools.lru_cache(maxsize=8)
def _binomial_table(size: int) -> np.ndarray:
    """C(s, t) as floats for s, t < size, zero for t > s; read-only, as
    engines of one max_size share it."""
    table = np.array([[math.comb(s, t) for t in range(size)]
                      for s in range(size)], dtype=float)
    table.flags.writeable = False
    return table


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
