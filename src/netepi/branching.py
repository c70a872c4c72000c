"""Multitype branching-process epidemic analytics.

In the large-n limit the early epidemic on a generated network is a
branching process whose particles are globally infected individuals,
typed by the sorting block (quantile) of the stub along which infection
arrived.  A particle of type i has total degree d with probability
P(D = d | Q = i) from the quantile table, household size h with the
size- and degree-consistent weight, and produces global offspring two
ways: through its own d - h remaining global stubs, and through the
global stubs of the housemates its local epidemic reaches.  Each stub
transmits with probability p_i and lands in a block drawn from the
pairing kernel (labelled, probability |r|) or uniformly (unlabelled).

The offspring mean matrix gives the threshold R* (its Perron root); the
type-indexed extinction probabilities are the least fixed point of the
offspring PGFs.  Running the construction backwards over susceptibility
sets gives the expected major-outbreak relative final size z.  For a
constant infectious period the forward and backward laws coincide, so
one extinction vector serves both directions and the major-outbreak
probability equals z.

The extinction fixed point s = F(s) is solved by Newton's method from
s = 0 with the analytic n_q x n_q Jacobian of F.  F is increasing and
convex in s, so the Newton iterates rise monotonically to the least
fixed point (Etessami & Yannakakis 2009, J. ACM 56:1), and convergence
is quadratic except right at threshold, where it is still geometric.
Iterates are kept in [0, 1].  The solve stops when a step moves no
component by more than 1e-13, or when the residual max|F(s) - s| is at
rounding level; the final residual must be at most 1e-10.  It raises
`NonConvergence`, with the iterates in `history`, when I - J is
singular, when 100 steps do not converge, or when the final residual is
larger.  `BranchingModel.extinction_stats` records the steps, the PGF
evaluations and the final residual of the solve.

Each offspring-PGF evaluation makes one call to
`HouseholdEngine.mixture_pgf_profile`, the only household PGF path,
which also returns the derivative of each household PGF when the
Jacobian is wanted, and combines its per-size values for all types in
one batched product.  `BranchingModel` memoises the mean matrix, R* and
the extinction vector; `analyze` reads every output from those methods.
The tables that depend only on (H, G, r, n_q), those of the offspring
PGF and those of the mean matrix alike, are built once per model, and
`BranchingModel.with_infection` shares them with another infection, so
the mean matrix of an infection only mixes in its household means.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distributions import (
    DiscreteDist,
    InfectionSpec,
    pairing_kernels,
    quantile_table,
    size_bias,
    stub_degree_law,
)
from .errors import (
    ConstantPeriodRequired,
    Infeasible,
    InvalidTarget,
    NonConvergence,
    ReducibleMatrixWarning,
)
from .household import HouseholdEngine
from .netgen import MAX_BLOCKS, GenSpec
from .netprops import poisson_c_rho

_POWER_TOL = 1e-12
_POWER_MAX_ITER = 100_000
_NEWTON_STEP_TOL = 1e-13
_NEWTON_MAX_ITER = 100
# a residual this small is rounding in F; a Newton step from it is noise
_NEWTON_RESIDUAL_FLOOR = 8.0 * np.finfo(float).eps
_RESIDUAL_TOL = 1e-10
# tune_poisson stops once its rho misses the target by no more than this
_TUNE_RHO_TOL = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Single source of truth for the analytics and the simulations."""

    household: DiscreteDist
    global_degree: DiscreteDist
    r: float
    n_q: int
    infection: InfectionSpec
    p_rw: float = 0.0

    def __post_init__(self):
        if self.household.min_support() < 1:
            raise ValueError("household sizes must be >= 1")
        if not -1.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [-1, 1]")
        if not 1 <= self.n_q <= MAX_BLOCKS:
            raise ValueError(f"n_q must lie in 1..{MAX_BLOCKS}")
        if not 0.0 <= self.p_rw <= 1.0:
            raise ValueError("p_rw must lie in [0, 1]")

    def gen_spec(self, n: int) -> GenSpec:
        return GenSpec(n=n, household=self.household,
                       global_degree=self.global_degree, r=self.r, n_q=self.n_q)


@dataclass(frozen=True)
class MeanMatrix:
    """Offspring means between types.  When rewiring makes the local
    epidemic of a reachable household size supercritical, has_infinite
    is set and every entry is inf."""

    entries: np.ndarray
    has_infinite: bool


@dataclass(frozen=True)
class SolverStats:
    """How one extinction solve went: Newton steps taken, offspring-PGF
    evaluations made and the final residual max|F(s) - s|."""

    iterations: int
    pgf_evals: int
    residual: float


@dataclass(frozen=True)
class AnalyticReport:
    r_star: float
    p_major: Optional[float]
    z: float
    sigma: Optional[np.ndarray]
    xi: np.ndarray
    has_infinite: bool


class BranchingModel:
    """Assembles every table the branching analytics need for one
    parameter set and caches intermediate results.  The structure tables
    depend only on (H, G, r, n_q); the household engine and the memos
    depend on the infection too."""

    def __init__(self, params: ModelParams):
        self.params = params
        p = params
        self.h_vals = p.household.support.astype(np.int64)
        self.h_probs = p.household.probs
        self.h_tilde = size_bias(p.household)
        # household law is supported on >= 1, so biasing keeps the support
        self.pi_tilde = self.h_tilde.probs

        self.d_tilde = stub_degree_law(p.household, p.global_degree)
        self.table = quantile_table(self.d_tilde, p.n_q)
        self.kernels = pairing_kernels(self.table, p.r)
        self.d_vals = self.table.degrees.astype(np.int64)

        g_tilde = size_bias(p.global_degree)
        g_dense = np.zeros(p.global_degree.max_support() + 2)
        g_dense[g_tilde.support] = g_tilde.probs

        # household-size weights given total degree: pi~_h p~_G(d - h + 1)
        shift = self.d_vals[:, None] - self.h_vals[None, :] + 1
        valid = (shift >= 0) & (shift < g_dense.size)
        raw = np.where(valid, g_dense[np.clip(shift, 0, g_dense.size - 1)], 0.0)
        raw = raw * self.pi_tilde[None, :]
        rows = raw.sum(axis=1)
        self.size_given_degree = raw / np.where(rows > 0.0, rows, 1.0)[:, None]

        self.exponents = np.maximum(self.d_vals[:, None] - self.h_vals[None, :], 0)

        gk = p.global_degree.support >= 1
        self.g1_vals = p.global_degree.support[gk].astype(np.int64)
        self.g1_probs = p.global_degree.probs[gk]
        self.g0_prob = 1.0 - float(self.g1_probs.sum())
        self.mu_g = p.global_degree.mean()

        # rows of the stub-degree table reached as g + h - 1
        partner_degrees = self.h_vals[:, None] + self.g1_vals[None, :] - 1
        missing = np.setdiff1d(partner_degrees, self.d_vals)
        if missing.size:
            raise ValueError(
                f"stub degree {missing[0]} is reached by a household size "
                f"and a global degree but its probability underflows to 0 "
                f"in the stub-degree law")
        self.partner_rows = np.searchsorted(self.d_vals, partner_degrees)

        # the law of a stub's partner block: the pairing kernel with
        # probability |r|, else uniform; by arrival type and by degree row
        abs_r = abs(p.r)
        uniform = (1.0 - abs_r) / p.n_q
        self.block_mix_type = uniform + abs_r * self.kernels.quantile_kernel
        self.block_mix_degree = uniform + abs_r * self.kernels.degree_kernel
        self.block_mix_partner = self.block_mix_degree[self.partner_rows]

        # mean-matrix tables: q_ih = P(H = h | Q = i); a_i, the mean count
        # of spare stubs of a type-i particle; w_hj, the mean labelled-stub
        # kernel weight on block j of the global stubs of one housemate in
        # a household of size h; and which sizes some type reaches
        self.q_ih = self.table.d_given_q.T @ self.size_given_degree
        mean_h_given_d = self.size_given_degree @ self.h_vals.astype(float)
        self.a_i = self.table.d_given_q.T @ (self.d_vals - mean_h_given_d)
        self.w_hj = ((self.g1_probs * self.g1_vals)
                     @ self.kernels.degree_kernel[self.partner_rows])
        self.size_reached = (self.q_ih > 0.0).any(axis=0)

        self._start_infection()

    def _start_infection(self) -> None:
        self.households = HouseholdEngine(self.params.infection,
                                          int(self.h_vals.max()))
        self._mean_matrix: Optional[MeanMatrix] = None
        self._r_star: Optional[float] = None
        self._extinction: Optional[np.ndarray] = None
        self._extinction_stats: Optional[SolverStats] = None

    def with_infection(self, infection: InfectionSpec) -> "BranchingModel":
        """The model with another infection on the same (H, G, r, n_q): it
        shares this model's structure tables, which nothing mutates, and
        gets its own household engine and memos."""
        model = copy.copy(self)
        model.params = replace(self.params, infection=infection)
        model._start_infection()
        return model

    @property
    def extinction_stats(self) -> Optional[SolverStats]:
        """Statistics of the extinction solve; None until one has run (and
        at or below threshold, where none is needed)."""
        return self._extinction_stats

    # -- offspring mean matrix and threshold ------------------------------

    def mean_matrix(self) -> MeanMatrix:
        if self._mean_matrix is not None:
            return self._mean_matrix
        p = self.params
        abs_r = abs(p.r)
        p_i = p.infection.p_i
        mu = self.households.mixture_means(self.h_vals, p.p_rw)
        # a type that reaches a supercritical rewired household (which
        # needs p_i > 0) has infinite mean offspring, so R* is inf
        has_infinite = bool(np.any(self.size_reached & np.isinf(mu)))
        if has_infinite:
            entries = np.full((p.n_q, p.n_q), np.inf)
        else:
            # an infinite mean left here sits at a size no type reaches
            mu = np.where(np.isinf(mu), 0.0, mu)
            u = self.q_ih @ mu
            v = (self.q_ih * mu[None, :]) @ self.w_hj
            entries = p_i * (
                self.a_i[:, None] * self.block_mix_type
                + (1.0 - abs_r) * self.mu_g / p.n_q * u[:, None]
                + abs_r * v
            )
        self._mean_matrix = MeanMatrix(entries, has_infinite)
        return self._mean_matrix

    def r_star(self) -> float:
        if self._r_star is None:
            self._r_star = r_star(self.mean_matrix())
        return self._r_star

    # -- offspring PGF fixed points ---------------------------------------

    def _stub_pgfs(self, s: np.ndarray, jacobian: bool = False):
        """g_i(s), the spare-stub factor per type; f1_h(s), the PGF of one
        housemate's global transmissions, per household size; and with
        jacobian=True df1_h/ds (n_h x n_q), else None."""
        p_i = self.params.infection.p_i
        g_type = 1.0 - p_i + p_i * (self.block_mix_type @ s)
        g_degree = 1.0 - p_i + p_i * (self.block_mix_degree @ s)
        g_partner = g_degree[self.partner_rows]
        powered = g_partner ** self.g1_vals[None, :].astype(float)
        f1 = self.g0_prob + powered @ self.g1_probs
        if not jacobian:
            return g_type, f1, None
        coef = self.g1_probs * self.g1_vals * g_partner ** (self.g1_vals - 1)
        d_f1 = p_i * (coef[:, None, :] @ self.block_mix_partner)[:, 0, :]
        return g_type, f1, d_f1

    def _offspring_pgf(self, s: np.ndarray, jacobian: bool = False):
        """Offspring PGF F(s) by type; with jacobian=True, (F, dF/ds)."""
        g_type, f1, d_f1 = self._stub_pgfs(s, jacobian)
        local = self.households.mixture_pgf_profile(
            self.h_vals, f1, self.params.p_rw, derivative=jacobian
        )
        if jacobian:
            local, d_local = local
        by_type = self.table.d_given_q.T[:, None, :]            # (n_q, 1, n_d)
        spare = g_type[:, None, None] ** self.exponents        # (n_q, n_d, n_h)
        weighted = self.size_given_degree * spare
        inner = weighted @ local                                # (n_q, n_d)
        # one stacked dot per type, summed in the same order as a per-type
        # loop; an einsum reorders the sums and moves results by ~1e-13
        value = (by_type @ inner[:, :, None])[:, 0, 0]
        if not jacobian:
            return value
        # dF_i/ds_j = p_i A_i block_mix_type[i, j] + sum_h C_ih L'_h df1_h/ds_j
        d_spare = self.exponents * g_type[:, None, None] ** np.maximum(
            self.exponents - 1, 0)
        a = (by_type @ ((self.size_given_degree * d_spare) @ local)[:, :, None])
        c = (by_type @ weighted)[:, 0, :]                       # (n_q, n_h)
        jac = (self.params.infection.p_i * a[:, 0, :] * self.block_mix_type
               + (c * d_local) @ d_f1)
        return value, jac

    def _ancestor_pgf(self, s: np.ndarray) -> float:
        _, f1, _ = self._stub_pgfs(s)
        local = self.households.mixture_pgf_profile(
            self.h_vals, f1, self.params.p_rw
        )
        return float(np.dot(self.pi_tilde, f1 * local))

    def _solve_extinction(self) -> np.ndarray:
        """Least fixed point of F by Newton's method from 0 (see the
        module docstring for the stop rule and what it raises)."""
        n_q = self.params.n_q
        eye = np.eye(n_q)
        s = np.zeros(n_q)
        history = [s]
        settled = False
        for evals in range(1, _NEWTON_MAX_ITER + 2):
            value, jac = self._offspring_pgf(s, jacobian=True)
            gap = value - s
            residual = float(np.max(np.abs(gap)))
            if settled or residual <= _NEWTON_RESIDUAL_FLOOR:
                break
            if evals > _NEWTON_MAX_ITER:
                raise NonConvergence(
                    f"extinction Newton did not converge in "
                    f"{_NEWTON_MAX_ITER} steps (residual {residual:.2e})",
                    history=history,
                )
            try:
                step = np.linalg.solve(eye - jac, gap)
            except np.linalg.LinAlgError:
                raise NonConvergence(
                    "extinction Newton step failed: I - J is singular",
                    history=history,
                ) from None
            nxt = np.clip(s + step, 0.0, 1.0)
            settled = float(np.max(np.abs(nxt - s))) <= _NEWTON_STEP_TOL
            s = nxt
            history.append(s)
        if residual > _RESIDUAL_TOL:
            raise NonConvergence(
                f"extinction fixed point residual {residual:.2e}",
                history=history,
            )
        self._extinction_stats = SolverStats(len(history) - 1, evals, residual)
        return s

    def _extinction_vector(self) -> np.ndarray:
        """Memoised (read-only) extinction probabilities by type; all ones
        at or below threshold."""
        if self._extinction is None:
            vec = (np.ones(self.params.n_q) if self.r_star() <= 1.0
                   else self._solve_extinction())
            vec.setflags(write=False)
            self._extinction = vec
        return self._extinction

    def _require_constant(self, what: str) -> None:
        if not self.params.infection.is_constant:
            raise ConstantPeriodRequired(
                f"{what} needs a constant infectious period"
            )

    def forward_extinction(self) -> np.ndarray:
        """Extinction probability by ancestor type, the backward vector
        for a constant infectious period (which it needs)."""
        self._require_constant("forward extinction")
        return self.backward_extinction()

    def p_major(self) -> float:
        """Probability a uniformly chosen introduction sparks a major
        outbreak: z, for a constant infectious period (which it needs)."""
        self._require_constant("the outbreak probability")
        return self.z_final_size()

    def backward_extinction(self) -> np.ndarray:
        """Extinction probability of the susceptibility process by type."""
        return self._extinction_vector()

    def z_final_size(self) -> float:
        """Asymptotic relative final size of a major outbreak: the chance
        a node's susceptibility process survives."""
        if self.r_star() <= 1.0:
            return 0.0
        # 1 - G(xi) rounds below 0 where z itself is at rounding level
        return max(0.0, 1.0 - self._ancestor_pgf(self._extinction_vector()))


def r_star(m: MeanMatrix) -> float:
    """Perron root of the offspring mean matrix by power iteration."""
    if m.has_infinite:
        return math.inf
    return _perron_root(m.entries)


def _is_irreducible(mat: np.ndarray) -> bool:
    n = mat.shape[0]
    if n == 1:
        return True
    reach = np.eye(n, dtype=bool) | (mat > 0.0)
    for _ in range(int(math.ceil(math.log2(n))) + 1):
        reach = reach @ reach
    return bool(reach.all())


def _perron_root(mat: np.ndarray) -> float:
    n = mat.shape[0]
    if not np.any(mat > 0.0):
        return 0.0
    if not _is_irreducible(mat):
        warnings.warn(
            "offspring mean matrix is reducible; threshold is still the "
            "largest eigenvalue but multitype theory assumes irreducibility",
            ReducibleMatrixWarning,
        )
    # identity shift keeps the iteration aperiodic (e.g. pure mirror-block
    # kernels are 2-periodic and would oscillate)
    shift = max(1.0, float(mat.max()))
    rng = np.random.default_rng(0x5EED)
    v = rng.random(n) + 0.5
    v /= v.sum()
    lam_prev = math.inf
    history = []
    for _ in range(_POWER_MAX_ITER):
        w = mat @ v + shift * v
        lam = float(w.sum())
        v = w / lam
        if abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
            return lam - shift
        lam_prev = lam
        if len(history) < 64:
            history.append(lam - shift)
    raise NonConvergence("power iteration did not stabilize", history=history)


def analyze(params: ModelParams) -> AnalyticReport:
    """Every analytic output of one parameter set; the forward quantities
    (p_major, sigma) are None for a general infectious period."""
    model = BranchingModel(params)
    constant = params.infection.is_constant
    # the public extinction method is called only above threshold, so
    # each call is one fixed-point solve (bench/spans.py counts PGF
    # evaluations per call); below threshold the vector is all ones
    above = model.r_star() > 1.0
    xi = model.backward_extinction() if above else np.ones(params.n_q)
    z = model.z_final_size()
    # a constant period gives the forward process the backward law
    return AnalyticReport(model.r_star(), z if constant else None, z,
                          xi if constant else None, xi,
                          model.mean_matrix().has_infinite)


# -- tuning the Poisson template ----------------------------------------


@dataclass(frozen=True)
class TuneResult:
    mu: float
    r: float
    c: float
    rho: float


def tune_poisson(gamma: float, c_target: float, rho_target: float,
                 n_q: int) -> TuneResult:
    """Pick (mu, r) so the Poisson template hits (c, rho) at fixed gamma.

    Clustering pins mu = gamma sqrt(c); rho is then monotone in r, so a
    bisection on [-1, 1] closes the loop.  Targets outside the attainable
    envelope raise Infeasible carrying the swept bounds, and a bisection
    that misses the target after 200 steps raises NonConvergence.
    """
    if gamma <= 0.0:
        raise InvalidTarget("gamma must be positive")
    if not 0.0 <= c_target < 1.0:
        raise InvalidTarget("feasible clustering targets lie in [0, 1)")
    mu = gamma * math.sqrt(c_target)
    _, rho_lo = poisson_c_rho(gamma, mu, -1.0, n_q)
    _, rho_hi = poisson_c_rho(gamma, mu, 1.0, n_q)
    if not rho_lo - 1e-12 <= rho_target <= rho_hi + 1e-12:
        raise Infeasible(
            f"rho={rho_target} outside the attainable range "
            f"[{rho_lo:.6f}, {rho_hi:.6f}] at c={c_target}",
            lo=rho_lo, hi=rho_hi,
        )
    lo, hi = -1.0, 1.0
    for _ in range(200):
        r = 0.5 * (lo + hi)
        c_val, rho_val = poisson_c_rho(gamma, mu, r, n_q)
        if abs(rho_val - rho_target) <= _TUNE_RHO_TOL:
            return TuneResult(mu, r, c_val, rho_val)
        if rho_val < rho_target:
            lo = r
        else:
            hi = r
    raise NonConvergence(
        f"tuning bisection stalled at rho={rho_val} for target {rho_target}"
    )
