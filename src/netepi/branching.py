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
PGF and those of the mean matrix alike, form one read-only `Structure`,
which `structure` builds once per such key and hands to every model with
an equal key, so the mean matrix of an infection only mixes in its
household means.  Each model takes its household engine from
`household.household_engine` in the same way, one per infection and
largest household size.  So a model is built per parameter set, cheaply
once its structure and engine are memoised, and no model is copied or
kept for another infection.

R* is the Perron root by a shifted power iteration from a seeded start,
which stops once a step moves the estimate by at most 1e-12 relative.
Where 100,000 steps do not get there (entries far below the shift, as
at p_i = 1e-3), R* is the exact root, the largest real part of the
eigenvalues.  The stop rule does not bound the error: where another
eigenvalue lies close to the Perron root, the estimate can turn at an
extremum and stop there.  At gamma = 10, mu = 0.1, n_q = 7, r = -1 near
R* = 1 it stops 2.35e-7 above the exact root; elsewhere on the grid of
`test_critical_p_i_matches_the_power_iteration_bisection` it is within
5.2e-9.

The inversions (p_i at R* = 1, mu for rho at r = -1, r for rho) share
one bisection of an increasing f: a midpoint where f exceeds the target
becomes the upper end, any other the lower end.  It stops once the
bracket is 1e-10 wide, or at a midpoint meeting an optional tolerance on
|f - target|; a bracket that closes first raises `NonConvergence`.

The p_i inversion finds the smallest p_i with R* above one at every r of
a grid (one r is a grid of one) with one bisection: each step builds the
model of each r of the grid in turn, on its memoised structure and with
the step's infection, so with one shared household engine, and asks
which side of one its R* is on, starting from the r that last answered
"not above" and stopping at the first that does.  The exact root decides
it unless it lies within 1e-5 of one; there the power iteration decides,
as it decides every written R*.  The check that R* exceeds one at p_i = 1
goes by the same rule.  The margin is 30 times the largest gap between
the two roots seen over that test's 162 bisections (3.4e-7, the case
above), so outside it both roots lie on the same side of one and the
bisection returns the p_i, bit for bit, of one decided by the power
iteration alone.  The grid's bisection follows that of its binding r, so
it returns the largest of the per-r critical values bit for bit, unless
two of them lie within the power iteration's error of each other.  The
rho inversions build the template's stub table once and bisect on its
closed form.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DiscreteDist,
    InfectionSpec,
    check_p_rw,
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
from .household import household_engine
from .netgen import GenSpec, check_structure
# not called here: bench/spans.py traces poisson_c_rho under this name too
from .netprops import poisson_c_rho  # noqa: F401
from .netprops import poisson_stub_table, template_c_rho

_POWER_TOL = 1e-12
_POWER_MAX_ITER = 100_000
_NEWTON_STEP_TOL = 1e-13
_NEWTON_MAX_ITER = 100
# a residual this small is rounding in F; a Newton step from it is noise
_NEWTON_RESIDUAL_FLOOR = 8.0 * np.finfo(float).eps
_RESIDUAL_TOL = 1e-10
# every bisection ends once its bracket is this narrow
_BISECT_WIDTH = 1e-10
# R*'s side of one goes by the exact root unless it is this close to one
_DECISION_MARGIN = 1e-5
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
        check_structure(self.household, self.r, self.n_q)
        check_p_rw(self.p_rw)

    def gen_spec(self, n: int) -> GenSpec:
        return GenSpec(n=n, household=self.household,
                       global_degree=self.global_degree, r=self.r, n_q=self.n_q)


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


class Structure:
    """The tables of one (H, G, r, n_q), read-only: those of the offspring
    PGF and those of the mean matrix.  `structure` builds one per such key
    and shares it with every model of that key."""

    def __init__(self, household: DiscreteDist, global_degree: DiscreteDist,
                 r: float, n_q: int):
        self.h_vals = household.support.astype(np.int64)
        # household law is supported on >= 1, so biasing keeps the support
        self.pi_tilde = size_bias(household).probs

        self.table = quantile_table(stub_degree_law(household, global_degree),
                                    n_q)
        kernels = pairing_kernels(self.table, r)
        d_vals = self.table.degrees.astype(np.int64)

        g_tilde = size_bias(global_degree)
        g_dense = np.zeros(global_degree.max_support() + 2)
        g_dense[g_tilde.support] = g_tilde.probs

        # household-size weights given total degree: pi~_h p~_G(d - h + 1)
        shift = d_vals[:, None] - self.h_vals[None, :] + 1
        valid = (shift >= 0) & (shift < g_dense.size)
        raw = np.where(valid, g_dense[np.clip(shift, 0, g_dense.size - 1)], 0.0)
        raw = raw * self.pi_tilde[None, :]
        rows = raw.sum(axis=1)
        self.size_given_degree = raw / np.where(rows > 0.0, rows, 1.0)[:, None]

        # spare-stub counts d - h and the exponents of their derivatives
        self.exponents = np.maximum(d_vals[:, None] - self.h_vals[None, :], 0)
        self.exponents_below = np.maximum(self.exponents - 1, 0)
        self.exponent_range = np.arange(self.exponents.max() + 1)

        gk = global_degree.support >= 1
        self.g1_vals = global_degree.support[gk].astype(np.int64)
        self.g1_probs = global_degree.probs[gk]
        self.g0_prob = 1.0 - float(self.g1_probs.sum())
        self.mu_g = global_degree.mean()

        # rows of the stub-degree table reached as g + h - 1
        partner_degrees = self.h_vals[:, None] + self.g1_vals[None, :] - 1
        missing = np.setdiff1d(partner_degrees, d_vals)
        if missing.size:
            raise ValueError(
                f"stub degree {missing[0]} is reached by a household size "
                f"and a global degree but its probability underflows to 0 "
                f"in the stub-degree law")
        self.partner_rows = np.searchsorted(d_vals, partner_degrees)

        # the law of a stub's partner block: the pairing kernel with
        # probability |r|, else uniform; by arrival type and by degree row
        abs_r = abs(r)
        uniform = (1.0 - abs_r) / n_q
        self.block_mix_type = uniform + abs_r * kernels.quantile_kernel
        self.block_mix_degree = uniform + abs_r * kernels.degree_kernel
        self.block_mix_partner = self.block_mix_degree[self.partner_rows]

        # mean-matrix tables: q_ih = P(H = h | Q = i); a_i, the mean count
        # of spare stubs of a type-i particle; w_hj, the mean labelled-stub
        # kernel weight on block j of the global stubs of one housemate in
        # a household of size h; and which sizes some type reaches
        self.q_ih = self.table.d_given_q.T @ self.size_given_degree
        mean_h_given_d = self.size_given_degree @ self.h_vals.astype(float)
        self.a_i = self.table.d_given_q.T @ (d_vals - mean_h_given_d)
        self.w_hj = ((self.g1_probs * self.g1_vals)
                     @ kernels.degree_kernel[self.partner_rows])
        self.size_reached = (self.q_ih > 0.0).any(axis=0)

        # every model of this key reads these arrays, so none may change
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


# A sweep reuses a structure across consecutive rows and commands: a
# fig3 grid cycles through its r (9 by default) in every bisection step and
# every row, and fig3, fig4 and analyze on one model law share their 5 r
# while fig5 adds 6 structures of its own (bench/workloads.py runs these
# four in turn).  16 records hold the 11 of such a sweep, at about 160 KB
# each (mu = 6); a grid longer than 16 only rebuilds each row's record,
# about 0.3 ms.
@functools.lru_cache(maxsize=16)
def structure(household: DiscreteDist, global_degree: DiscreteDist,
              r: float, n_q: int) -> Structure:
    """The structure tables of (H, G, r, n_q), shared by every caller with
    an equal key (laws compare by value)."""
    return Structure(household, global_degree, r, n_q)


class BranchingModel:
    """The branching analytics of one parameter set, with its intermediate
    results memoised.  The model takes its structure tables from
    `structure` and its household engine from `household_engine`, so
    models of one (H, G, r, n_q) share one record, and models of one
    infection and largest household size one engine; its memos depend on
    the infection and p_rw too."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.structure = structure(params.household, params.global_degree,
                                   params.r, params.n_q)
        self.households = household_engine(params.infection,
                                           params.household.max_support())
        self._mean_matrix: Optional[np.ndarray] = None
        self._r_star: Optional[float] = None
        self._extinction: Optional[np.ndarray] = None
        self._extinction_stats: Optional[SolverStats] = None

    @property
    def extinction_stats(self) -> Optional[SolverStats]:
        """Statistics of the extinction solve; None until one has run (and
        at or below threshold, where none is needed)."""
        return self._extinction_stats

    # -- offspring mean matrix and threshold ------------------------------

    def mean_matrix(self) -> np.ndarray:
        """Offspring means between types, read-only.  When rewiring makes
        the local epidemic of a reachable household size supercritical,
        every entry is inf."""
        if self._mean_matrix is not None:
            return self._mean_matrix
        st, p = self.structure, self.params
        abs_r = abs(p.r)
        p_i = p.infection.p_i
        mu = self.households.mixture_means(st.h_vals, p.p_rw)
        # a type that reaches a supercritical rewired household (which
        # needs p_i > 0) has infinite mean offspring, so R* is inf
        if np.any(st.size_reached & np.isinf(mu)):
            entries = np.full((p.n_q, p.n_q), np.inf)
        else:
            # an infinite mean left here sits at a size no type reaches
            mu = np.where(np.isinf(mu), 0.0, mu)
            u = st.q_ih @ mu
            v = (st.q_ih * mu[None, :]) @ st.w_hj
            entries = p_i * (
                st.a_i[:, None] * st.block_mix_type
                + (1.0 - abs_r) * st.mu_g / p.n_q * u[:, None]
                + abs_r * v
            )
        entries.flags.writeable = False
        self._mean_matrix = entries
        return entries

    def r_star(self) -> float:
        if self._r_star is None:
            self._r_star = r_star(self.mean_matrix())
        return self._r_star

    # -- offspring PGF fixed points ---------------------------------------

    def _stub_pgfs(self, s: np.ndarray, jacobian: bool = False):
        """g_i(s), the spare-stub factor per type; f1_h(s), the PGF of one
        housemate's global transmissions, per household size; and with
        jacobian=True df1_h/ds (n_h x n_q), else None."""
        st = self.structure
        p_i = self.params.infection.p_i
        g_type = 1.0 - p_i + p_i * (st.block_mix_type @ s)
        g_degree = 1.0 - p_i + p_i * (st.block_mix_degree @ s)
        g_partner = g_degree[st.partner_rows]
        powered = g_partner ** st.g1_vals[None, :].astype(float)
        f1 = st.g0_prob + powered @ st.g1_probs
        if not jacobian:
            return g_type, f1, None
        coef = st.g1_probs * st.g1_vals * g_partner ** (st.g1_vals - 1)
        d_f1 = p_i * (coef[:, None, :] @ st.block_mix_partner)[:, 0, :]
        return g_type, f1, d_f1

    def _spare_powers(self, g_type: np.ndarray):
        """g_type ** exponents, (n_q, n_d, n_h), and with it the array
        exponents * g_type ** (exponents - 1) of its derivatives, both
        gathered from one row of powers per type: the same pow calls the
        broadcast `**` makes, once per distinct exponent."""
        st = self.structure
        powers = g_type[:, None] ** st.exponent_range
        return (powers.take(st.exponents, axis=1),
                st.exponents * powers.take(st.exponents_below, axis=1))

    def _offspring_pgf(self, s: np.ndarray, jacobian: bool = False):
        """Offspring PGF F(s) by type; with jacobian=True, (F, dF/ds)."""
        st = self.structure
        g_type, f1, d_f1 = self._stub_pgfs(s, jacobian)
        local = self.households.mixture_pgf_profile(
            st.h_vals, f1, self.params.p_rw, derivative=jacobian
        )
        if jacobian:
            local, d_local = local
        by_type = st.table.d_given_q.T[:, None, :]            # (n_q, 1, n_d)
        spare, d_spare = self._spare_powers(g_type)            # (n_q, n_d, n_h)
        weighted = st.size_given_degree * spare
        inner = weighted @ local                                # (n_q, n_d)
        # one stacked dot per type, summed in the same order as a per-type
        # loop; an einsum reorders the sums and moves results by ~1e-13
        value = (by_type @ inner[:, :, None])[:, 0, 0]
        if not jacobian:
            return value
        # dF_i/ds_j = p_i A_i block_mix_type[i, j] + sum_h C_ih L'_h df1_h/ds_j
        a = (by_type @ ((st.size_given_degree * d_spare) @ local)[:, :, None])
        c = (by_type @ weighted)[:, 0, :]                       # (n_q, n_h)
        jac = (self.params.infection.p_i * a[:, 0, :] * st.block_mix_type
               + (c * d_local) @ d_f1)
        return value, jac

    def _ancestor_pgf(self, s: np.ndarray) -> float:
        st = self.structure
        _, f1, _ = self._stub_pgfs(s)
        local = self.households.mixture_pgf_profile(
            st.h_vals, f1, self.params.p_rw
        )
        return float(np.dot(st.pi_tilde, f1 * local))

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


def r_star(m: np.ndarray) -> float:
    """Perron root of the offspring mean matrix by power iteration (the
    exact root where that does not stabilize); inf when the matrix is
    (all) inf."""
    if np.isinf(m).any():
        return math.inf
    return _perron_root(m)


def exact_perron_root(m: np.ndarray) -> float:
    """Perron root of a finite non-negative matrix from all its
    eigenvalues: the largest real part (LAPACK through numpy)."""
    return float(np.max(np.linalg.eigvals(m).real))


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
    for _ in range(_POWER_MAX_ITER):
        w = mat @ v + shift * v
        lam = float(w.sum())
        v = w / lam
        if abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
            return lam - shift
        lam_prev = lam
    # entries far below the shift leave a rate near 1 (p_i = 1e-3)
    return exact_perron_root(mat)


def analyze(params: ModelParams) -> AnalyticReport:
    """Every analytic output of the model of `params`; the forward
    quantities (p_major, sigma) are None for a general infectious period."""
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
                          bool(np.isinf(model.mean_matrix()).any()))


# -- inversions -----------------------------------------------------------


def _bisect(f, target, lo, hi, tol=None):
    """(lo, hi, f(mid)): the final bracket, or (mid, mid) if mid met tol."""
    value = math.nan
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        value = f(mid)
        if tol is not None and abs(value - target) <= tol:
            return mid, mid, value
        if value > target:
            hi = mid
        else:
            lo = mid
    if tol is not None:
        raise NonConvergence(f"bisection stalled at {value} for {target}")
    return lo, hi, value


def _decided_root(model: BranchingModel) -> float:
    """R* for deciding which side of one it lies on: inf, as r_star
    gives it, where the mean matrix has an inf entry; else the exact
    root, or the power iteration's within _DECISION_MARGIN of one (see
    the module docstring)."""
    matrix = model.mean_matrix()
    exact = (model.r_star() if np.isinf(matrix).any()
             else exact_perron_root(matrix))
    return exact if abs(exact - 1.0) > _DECISION_MARGIN else model.r_star()


def critical_p_i(h, g, r, n_q: int, *, p_rw: float = 0.0) -> float:
    """Smallest transmission probability with R* above one at r, or at
    every r of a sequence, with households rewired with probability p_rw,
    by one bisection (see the module docstring); Infeasible, naming the
    first such r in grid order, where R* <= 1 even at p_i = 1."""
    order = [r] if np.ndim(r) == 0 else list(r)

    def root(r, p_i):
        infection = InfectionSpec.constant(p_i)
        return _decided_root(BranchingModel(ModelParams(h, g, r, n_q,
                                                        infection, p_rw)))
    for r in order:
        if root(r, 1.0) <= 1.0:
            raise Infeasible(f"no supercritical transmission probability "
                             f"exists at r={r}")

    def threshold(p_i):
        for k, r in enumerate(order):
            value = root(r, p_i)
            if value <= 1.0:
                # the r that held p_i back is likeliest to again
                order.insert(0, order.pop(k))
                break
        return value
    return _bisect(threshold, 1.0, 0.0, 1.0)[1]


def mu_for_rho(gamma: float, rho_target: float, n_q: int) -> float:
    """Template mu with correlation rho_target at r = -1, where rho rises
    with mu (at r > 0 it need not); Infeasible outside rho's range."""
    table = poisson_stub_table(gamma, n_q)

    def rho(mu):
        return template_c_rho(table, gamma, mu, -1.0)[1]
    lo, hi = rho(0.0), rho(gamma)
    if not lo <= rho_target <= hi:
        raise Infeasible(f"rho={rho_target} not attainable at r=-1: "
                         f"range [{lo:.6f}, {hi:.6f}]", lo=lo, hi=hi)
    lo, hi, _ = _bisect(rho, rho_target, 0.0, gamma)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TuneResult:
    mu: float
    r: float
    c: float
    rho: float


def tune_poisson(gamma: float, c_target: float, rho_target: float,
                 n_q: int) -> TuneResult:
    """Pick (mu, r) so the Poisson template hits (c, rho) at fixed gamma.

    Clustering pins mu = gamma sqrt(c) at any r; rho then increases with
    r, so a bisection on [-1, 1] to within 1e-8 closes the loop.  A target
    over half that outside the envelope raises Infeasible with its ends."""
    if gamma <= 0.0:
        raise InvalidTarget("gamma must be positive")
    if not 0.0 <= c_target < 1.0:
        raise InvalidTarget("feasible clustering targets lie in [0, 1)")
    mu = gamma * math.sqrt(c_target)
    table = poisson_stub_table(gamma, n_q)

    def c_rho(r):
        return template_c_rho(table, gamma, mu, r)
    c, rho_lo = c_rho(-1.0)
    _, rho_hi = c_rho(1.0)
    # a target this close to an end is met within the tolerance near it
    slack = 0.5 * _TUNE_RHO_TOL
    if not rho_lo - slack <= rho_target <= rho_hi + slack:
        raise Infeasible(f"rho={rho_target} outside the attainable range "
                         f"[{rho_lo:.6f}, {rho_hi:.6f}] at c={c_target}",
                         lo=rho_lo, hi=rho_hi)
    r, _, rho = _bisect(lambda r: c_rho(r)[1], rho_target, -1.0, 1.0,
                        tol=_TUNE_RHO_TOL)
    return TuneResult(mu, r, c, rho)
