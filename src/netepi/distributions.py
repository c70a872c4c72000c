"""Discrete distributions and the stub-level laws derived from them.

Everything downstream (network generation, analytic network properties,
branching-process epidemic quantities) consumes the types defined here:
finite-support laws for household size and global degree, the size- and
edge-biased variants that describe what a randomly chosen stub or edge
sees, the quantile decomposition of the stub degree law used to induce
degree correlation, and the infectious-period specification, one
frozen value record per period law (constant, exponential, gamma) that
evaluates its Laplace transform and draws its periods by kind.

The domain of each model parameter is checked here and nowhere else:
`check_r` (r in [-1, 1]), `check_n_q` (n_q in 1..MAX_BLOCKS) and
`check_p_rw` (p_rw in [0, 1]), each rejecting a bool or a value of the
wrong type with TypeError before it checks the range.  Every public
entry that takes one of them calls its check.

Infinite-support laws (Poisson, geometric, ...) are truncated once, at
construction, to a finite support carrying all but ``tail_mass_bound``
of the mass; every derived law then treats the truncated support as
exact and renormalizes over it.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy import special
from scipy.special import _ufuncs

from .errors import EmptyDistribution, NoEdges, ZeroMean

# Bound on the probability mass discarded when truncating an infinite
# support.  Small enough that third factorial moments of the laws used
# here are good to ~1e-12.
DEFAULT_TAIL_EPS = 1e-14

_SUM_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# -- the domains of the model parameters --------------------------------

# stub block labels are stored as int16: 0 for unlabelled, 1..n_q otherwise
MAX_BLOCKS = int(np.iinfo(np.int16).max)


def check_integer(name: str, value) -> None:
    # numpy integers count; bools and integral floats do not
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {value!r}")


def check_real(name: str, value) -> None:
    # numpy floats and integers count; bools do not
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {value!r}")


def check_r(r: float) -> None:
    """The correlation strength r is a real number in [-1, 1]."""
    check_real("r", r)
    if not -1.0 <= r <= 1.0:
        raise ValueError("r must lie in [-1, 1]")


def check_n_q(n_q: int) -> None:
    """The block count n_q is an integer in 1..MAX_BLOCKS."""
    check_integer("n_q", n_q)
    if not 1 <= n_q <= MAX_BLOCKS:
        raise ValueError(f"n_q must lie in 1..{MAX_BLOCKS}")


def check_p_rw(p_rw: float) -> None:
    """The household rewiring probability p_rw is a real number in [0, 1]."""
    check_real("p_rw", p_rw)
    if not 0.0 <= p_rw <= 1.0:
        raise ValueError("p_rw must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """A probability law on a finite set of non-negative integers.

    support : sorted, distinct non-negative integers
    probs   : matching probabilities, summing to 1 - tail_mass_bound
    tail_mass_bound : upper bound on the mass lost to truncation

    Laws compare and hash by value.
    """

    support: np.ndarray
    probs: np.ndarray
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.size == 0:
            raise EmptyDistribution("distribution has empty support")
        if support.ndim != 1 or probs.shape != support.shape:
            raise ValueError("support and probs must be 1-d and aligned")
        if np.any(support < 0):
            raise ValueError("support values must be non-negative integers")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        # written so that a NaN fails each check
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 <= self.tail_mass_bound <= 1.0:
            raise ValueError("tail_mass_bound must lie in [0, 1]")
        total = float(probs.sum()) + self.tail_mass_bound
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "probs", _freeze(probs))

    def __eq__(self, other):
        return (isinstance(other, DiscreteDist)
                and self.tail_mass_bound == other.tail_mass_bound
                and np.array_equal(self.support, other.support)
                and np.array_equal(self.probs, other.probs))

    def __hash__(self):
        # floats hash as they compare, 0.0 and -0.0 alike
        return hash((tuple(self.support.tolist()), tuple(self.probs.tolist()),
                     self.tail_mass_bound))

    # -- basic queries -------------------------------------------------

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.probs))

    def min_support(self) -> int:
        return int(self.support[0])

    def max_support(self) -> int:
        return int(self.support[-1])

    def prob_at_least(self, k: int) -> float:
        return float(self.probs[self.support >= k].sum()) + self.tail_mass_bound

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` iid values (truncated law treated as exact)."""
        # cdf inversion keeps this correct even though probs sum to
        # 1 - tail_mass_bound rather than exactly 1
        cdf = np.cumsum(self.probs)
        cdf[-1] = max(cdf[-1], 1.0)
        u = rng.random(size)
        return self.support[np.searchsorted(cdf, u, side="right")]

    def dense_probs(self) -> np.ndarray:
        """Probabilities on 0..max_support as a dense vector."""
        dense = np.zeros(self.max_support() + 1)
        dense[self.support] = self.probs
        return dense


def _from_dense(dense: np.ndarray, tail: float = 0.0) -> DiscreteDist:
    support = np.flatnonzero(dense > 0.0)
    if support.size == 0:
        raise EmptyDistribution("no probability mass left")
    return DiscreteDist(support, dense[support], tail)


# -- named laws --------------------------------------------------------


def point(k: int) -> DiscreteDist:
    return DiscreteDist(np.array([int(k)]), np.array([1.0]))


# The pmf and isf below are the scipy.special kernels that
# scipy.stats.poisson and scipy.stats.nbinom evaluate, applied the same
# way, so the tables match scipy.stats bit for bit without importing it
# (scipy.stats alone costs more than all other imports together).
# tests/test_distributions.py pins them against scipy.stats.


def _poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    log_pmf = special.xlogy(k, mean) - special.gammaln(k + 1) - mean
    return np.clip(np.exp(log_pmf), 0.0, 1.0)


def _poisson_isf(q: float, mean: float) -> int:
    """Least k with P(X > k) <= q: the ppf at 1 - q, whose pdtrik
    estimate is stepped down by one where the cdf allows."""
    p = 1.0 - q
    k = np.ceil(special.pdtrik(p, mean))
    below = max(k - 1, 0.0)
    return int(below if special.pdtr(below, mean) >= p else k)


def _check_finite(law: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{law} {name} must be finite, got {value}")


def poisson(mean: float) -> DiscreteDist:
    if mean < 0:
        raise ValueError("poisson mean must be >= 0")
    _check_finite("poisson", "mean", mean)
    if mean == 0:
        return point(0)
    hi = _poisson_isf(DEFAULT_TAIL_EPS, mean) + 1
    support = np.arange(hi + 1)
    probs = _poisson_pmf(support, mean)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DiscreteDist(support, probs, tail)


def poisson_plus(mean: float) -> DiscreteDist:
    """Zero-truncated Poisson; degenerates to the point mass at 1 when
    mean == 0."""
    if mean < 0:
        raise ValueError("poisson_plus mean must be >= 0")
    _check_finite("poisson_plus", "mean", mean)
    if mean == 0:
        return point(1)
    hi = max(1, _poisson_isf(DEFAULT_TAIL_EPS, mean) + 1)
    support = np.arange(1, hi + 1)
    probs = _poisson_pmf(support, mean) / -math.expm1(-mean)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DiscreteDist(support, probs, tail)


def geometric(p: float) -> DiscreteDist:
    """P(X = k) = p (1-p)^k on k = 0, 1, 2, ..."""
    if not 0.0 < p <= 1.0:
        raise ValueError("geometric parameter must lie in (0, 1]")
    if p == 1.0:
        return point(0)
    hi = max(1, int(math.ceil(math.log(DEFAULT_TAIL_EPS) / math.log1p(-p))))
    support = np.arange(hi + 1)
    probs = p * np.exp(support * math.log1p(-p))
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DiscreteDist(support, probs, tail)


def negative_binomial(r: float, p: float) -> DiscreteDist:
    """P(X = k) = C(k+r-1, k) p^r (1-p)^k on k = 0, 1, 2, ..."""
    if r <= 0 or not 0.0 < p <= 1.0:
        raise ValueError("negative_binomial needs r > 0 and p in (0, 1]")
    _check_finite("negative_binomial", "r", r)
    if p == 1.0:
        return point(0)
    with np.errstate(over="ignore"):  # as scipy.stats.nbinom.isf
        hi = max(1, int(_ufuncs._nbinom_isf(DEFAULT_TAIL_EPS, r, p)) + 1)
    support = np.arange(hi + 1)
    probs = np.clip(_ufuncs._nbinom_pmf(support, r, p), 0.0, 1.0)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DiscreteDist(support, probs, tail)


def from_pmf(pmf: Mapping[int, float]) -> DiscreteDist:
    if not pmf:
        raise EmptyDistribution("empty pmf")
    items = sorted((int(k), float(v)) for k, v in pmf.items())
    support = np.array([k for k, _ in items])
    probs = np.array([v for _, v in items])
    if np.any(probs < 0):
        raise ValueError("pmf entries must be non-negative")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"pmf sums to {total}, expected 1")
    keep = probs > 0.0
    return DiscreteDist(support[keep], probs[keep] / total)


# -- the distribution grammar used by config files and the CLI ---------

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")
_PMF_ITEM_RE = re.compile(r"^\s*(\d+)\s*:\s*([0-9.eE+-]+)\s*$")


def parse_distribution(text: str) -> DiscreteDist:
    """Parse a distribution expression.

    Accepted forms: poisson(m), poisson_plus(m), point(k) / point_mass(k),
    geometric(p), negative_binomial(r, p), pmf([k1:p1, k2:p2, ...]), in
    which each value k is given once.
    """
    m = _CALL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse distribution {text!r}")
    name, args = m.group(1), m.group(2).strip()
    if name == "pmf":
        if not (args.startswith("[") and args.endswith("]")):
            raise ValueError(f"pmf expects a [k:p, ...] list, got {args!r}")
        entries = {}
        for item in args[1:-1].split(","):
            if not item.strip():
                continue
            im = _PMF_ITEM_RE.match(item)
            if not im:
                raise ValueError(f"bad pmf entry {item!r} in {text!r}")
            k = int(im.group(1))
            if k in entries:
                raise ValueError(f"pmf value {k} is repeated in {text!r}")
            entries[k] = float(im.group(2))
        return from_pmf(entries)
    parts = [a.strip() for a in args.split(",")] if args else []
    try:
        vals = [float(a) for a in parts]
    except ValueError:
        raise ValueError(f"bad numeric arguments in {text!r}") from None
    if name == "poisson" and len(vals) == 1:
        return poisson(vals[0])
    if name == "poisson_plus" and len(vals) == 1:
        return poisson_plus(vals[0])
    if name in ("point", "point_mass") and len(vals) == 1:
        if not math.isfinite(vals[0]) or vals[0] != int(vals[0]):
            raise ValueError(f"point mass needs an integer, got {vals[0]}")
        return point(int(vals[0]))
    if name == "geometric" and len(vals) == 1:
        return geometric(vals[0])
    if name == "negative_binomial" and len(vals) == 2:
        return negative_binomial(vals[0], vals[1])
    raise ValueError(f"unknown distribution form {text!r}")


# -- biased laws --------------------------------------------------------


def size_bias(dist: DiscreteDist) -> DiscreteDist:
    """The law seen by a uniformly chosen unit of size: P ~ k p_k.

    A node's household, viewed from a random individual, is size-biased;
    so is the owner of a random stub.
    """
    mean = dist.mean()
    if mean <= 0.0:
        raise ZeroMean("size biasing needs a distribution with positive mean")
    keep = dist.support > 0
    w = dist.support[keep] * dist.probs[keep]
    return DiscreteDist(dist.support[keep], w / w.sum())


def edge_bias(dist: DiscreteDist) -> DiscreteDist:
    """The household-size law of a uniformly chosen local edge: P ~ k(k-1) p_k."""
    if dist.prob_at_least(2) <= 0.0:
        raise NoEdges("edge biasing needs mass on sizes >= 2")
    keep = dist.support >= 2
    sup = dist.support[keep]
    w = sup * (sup - 1) * dist.probs[keep]
    total = w.sum()
    if total <= 0.0:
        raise NoEdges("edge biasing needs mass on sizes >= 2")
    return DiscreteDist(sup, w / total)


def stub_degree_law(household: DiscreteDist, global_degree: DiscreteDist) -> DiscreteDist:
    """Total degree of the owner of a uniformly chosen global stub.

    The owner's global degree is size-biased and its household is
    size-biased independently, so the total degree is the convolution
    size_bias(G) + size_bias(H) - 1.
    """
    if global_degree.mean() <= 0.0:
        raise ZeroMean("no global stubs exist when the global degree has mean 0")
    g_tilde = size_bias(global_degree)
    h_tilde = size_bias(household)
    dense = np.convolve(g_tilde.dense_probs(), h_tilde.dense_probs())
    # shift by -1: degree = global stubs + (household - 1) co-members
    return _from_dense(dense[1:])


# -- quantile decomposition of the stub degree law ---------------------


@dataclass(frozen=True)
class QuantileTable:
    """Joint law of (degree, quantile block) for a random global stub.

    Stubs sorted by owner degree (uniform tie-break) and cut into n_q
    near-equal blocks have asymptotic joint law
        P(D = d, Q = i) = max(min(u_d, i/n_q) - max(u_{d-1}, (i-1)/n_q), 0)
    where u_d is the cdf of the stub degree law.
    """

    dist: DiscreteDist
    n_q: int
    joint: np.ndarray            # (n_d, n_q)
    q_given_d: np.ndarray        # rows sum to 1
    d_given_q: np.ndarray        # columns sum to 1
    quantile_means: np.ndarray   # (n_q,) mean degree within each block

    @property
    def degrees(self) -> np.ndarray:
        return self.dist.support

    def block_dispersion(self, r: float) -> float:
        """Covariance g(r) of paired stub degrees induced by the blocks.

        r >= 0: both stubs share a block; r < 0: block i pairs with
        block n_q + 1 - i.  Piecewise linear in r.
        """
        check_r(r)
        mu = self.dist.mean()
        means = self.quantile_means
        if r >= 0.0:
            aligned = float(np.mean(means * means))
            return r * (aligned - mu * mu)
        crossed = float(np.mean(means * means[::-1]))
        return -r * (crossed - mu * mu)


def quantile_table(dist: DiscreteDist, n_q: int) -> QuantileTable:
    check_n_q(n_q)
    cdf_hi = np.cumsum(dist.probs)
    cdf_lo = cdf_hi - dist.probs
    i = np.arange(1, n_q + 1)
    upper = np.minimum(cdf_hi[:, None], i[None, :] / n_q)
    lower = np.maximum(cdf_lo[:, None], (i[None, :] - 1) / n_q)
    joint = np.clip(upper - lower, 0.0, None)
    row_mass = joint.sum(axis=1)
    col_mass = joint.sum(axis=0)
    # degrees whose (tiny) mass vanished in rounding: pin them to the
    # block holding their cdf position so conditionals stay proper
    dead = np.flatnonzero(row_mass <= 0.0)
    q_given_d = joint / np.where(row_mass > 0.0, row_mass, 1.0)[:, None]
    q_given_d[dead, np.clip((cdf_lo[dead] * n_q).astype(int), 0, n_q - 1)] = 1.0
    d_given_q = joint / col_mass[None, :]
    means = dist.support @ d_given_q
    return QuantileTable(dist, n_q, _freeze(joint), _freeze(q_given_d),
                         _freeze(d_given_q), _freeze(means))


@dataclass(frozen=True)
class PairingKernels:
    """Which block a stub's partner lands in, given correlation sign.

    quantile_kernel[i, j]: partner block of a labelled stub in block i.
    degree_kernel[d_idx, j]: same, marginalized over the block of a
    labelled stub of degree d.
    """

    quantile_kernel: np.ndarray  # (n_q, n_q)
    degree_kernel: np.ndarray    # (n_d, n_q)


def pairing_kernels(table: QuantileTable, r: float) -> PairingKernels:
    check_r(r)
    n_q = table.n_q
    if r < 0.0:
        quantile_kernel = np.eye(n_q)[::-1]
    else:
        # identity at r = 0 by convention (kernel is unused there)
        quantile_kernel = np.eye(n_q)
    degree_kernel = table.q_given_d @ quantile_kernel
    return PairingKernels(_freeze(quantile_kernel), _freeze(degree_kernel))


# -- infectious period --------------------------------------------------


@dataclass(frozen=True)
class InfectionSpec:
    """Infectious-period model for the SIR epidemic, as a value.

    A constant period is parameterized directly by the probability p_i
    that a given contact is infectious (one Bernoulli per directed
    neighbour pair).  An exponential (`mean`) or gamma (`shape`, `scale`)
    period comes with a contact rate `rate`, and p_i = 1 - phi(rate),
    where phi is the period's Laplace transform theta -> E[exp(-theta I)].
    Parameters a law does not take stay 0.  Build specs with the
    classmethod of each kind; equal laws compare and hash equal.
    """

    kind: str
    p_i: float
    rate: float = 0.0
    mean: float = 0.0
    shape: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "exponential", "gamma"):
            raise ValueError(f"unknown infection kind {self.kind!r}")
        check_real("p_i", self.p_i)
        check_real("rate", self.rate)
        if not 0.0 <= self.p_i <= 1.0:
            raise ValueError("transmission probability must lie in [0, 1]")
        if self.rate < 0:
            raise ValueError("contact rate must be >= 0")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def phi(self, theta: float) -> float:
        """E[exp(-theta I)], the Laplace transform of a general period."""
        if self.kind == "exponential":
            return 1.0 / (1.0 + theta * self.mean)
        if self.kind == "gamma":
            return (1.0 + self.scale * theta) ** (-self.shape)
        raise ValueError("a constant period is given by p_i, not a transform")

    def sample_periods(self, rng: np.random.Generator,
                       size: int) -> np.ndarray:
        """`size` iid draws of a general period."""
        if self.kind == "exponential":
            return rng.exponential(self.mean, size)
        if self.kind == "gamma":
            return rng.gamma(self.shape, self.scale, size)
        raise ValueError("a constant period is given by p_i, not by draws")

    def phi_multiple(self, k: int) -> float:
        """E[exp(-k * rate * I)]: survival of k independent exposures."""
        if self.is_constant:
            return (1.0 - self.p_i) ** k
        return float(self.phi(k * self.rate))

    @classmethod
    def constant(cls, p_i: float) -> "InfectionSpec":
        check_real("p_i", p_i)
        return cls(kind="constant", p_i=float(p_i))

    @classmethod
    def exponential(cls, rate: float, mean: float = 1.0) -> "InfectionSpec":
        """Exponentially distributed period with the given mean."""
        if mean < 0:
            raise ValueError("exponential period needs mean >= 0")
        return cls._general("exponential", rate, mean=float(mean))

    @classmethod
    def gamma(cls, rate: float, shape: float, scale: float = 1.0) -> "InfectionSpec":
        if shape < 0 or scale < 0:
            raise ValueError("gamma period needs shape >= 0 and scale >= 0")
        return cls._general("gamma", rate, shape=float(shape),
                            scale=float(scale))

    @classmethod
    def _general(cls, kind: str, rate: float, **law) -> "InfectionSpec":
        # checked before phi is read, then given p_i = 1 - phi(rate)
        check_real("rate", rate)
        spec = cls(kind, 0.0, float(rate), **law)
        return replace(spec, p_i=1.0 - spec.phi(spec.rate))
