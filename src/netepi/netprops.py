"""Structural properties of the generated networks.

Analytic functions give the large-n limits implied by the model inputs
(household law H, global degree law G, correlation strength r, block
count n_q); empirical functions measure the same quantities on a finite
Network so the two can be compared.

Clustering is the global (transitive-triple) coefficient.  All triangles
come from households, all length-2 paths from total degree; rewiring a
fraction p_rw of households dilutes clustering by exactly that factor.
The empirical coefficient counts triangles once per edge in node order
(the ordered-edge count of Chiba & Nishizeki 1985): each triangle
u < v < w once, from the upper-triangular adjacency of the simple graph.

Degree correlation is the Pearson correlation of the total degrees at
the two ends of a uniformly chosen edge.  Conditioning on whether that
edge is local or global splits the covariance and variance into a
within-kind part and a between-kind part (the law of total covariance),
which is what degree_corr_components exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .distributions import (
    DiscreteDist,
    QuantileTable,
    check_n_q,
    check_p_rw,
    check_r,
    edge_bias,
    poisson,
    quantile_table,
    size_bias,
    stub_degree_law,
)
from .errors import DegenerateNetwork, NoTriplets, ZeroVariance
from .netgen import Network, index_dtype, sorted_pair_keys

_VAR_FLOOR = 1e-300


def analytic_degree_dist(household: DiscreteDist,
                         global_degree: DiscreteDist) -> DiscreteDist:
    """Total degree of a uniformly chosen node: G + size_bias(H) - 1."""
    h_tilde = size_bias(household)
    dense = np.convolve(global_degree.dense_probs(), h_tilde.dense_probs())[1:]
    support = np.flatnonzero(dense > 0.0)
    return DiscreteDist(support, dense[support] / dense[support].sum())


def analytic_clustering(household: DiscreteDist,
                        global_degree: DiscreteDist) -> float:
    """Fraction of length-2 paths closed into triangles, in the limit.

    Triangles only arise inside households, so the count of closed
    ordered triples at a node is H(H-1)(H-2) against (D)(D-1) ordered
    pairs of distinct neighbours with D = G + H - 1.
    """
    h = household.support.astype(np.float64)
    ph = household.probs
    g = global_degree.support.astype(np.float64)
    pg = global_degree.probs
    closed = float(np.dot(h * (h - 1) * (h - 2), ph))
    d = g[None, :] + h[:, None] - 1.0
    weights = ph[:, None] * pg[None, :]
    paths = float(np.sum(weights * h[:, None] * d * (d - 1.0)))
    if paths <= 0.0:
        raise NoTriplets("no length-2 paths: clustering undefined")
    return closed / paths


def rewired_clustering(household: DiscreteDist, global_degree: DiscreteDist,
                       p_rw: float) -> float:
    """Clustering after rewiring each household w.p. p_rw: scaled by 1 - p_rw."""
    check_p_rw(p_rw)
    return (1.0 - p_rw) * analytic_clustering(household, global_degree)


@dataclass(frozen=True)
class DegreeCorrComponents:
    """Law-of-total-covariance split of the edge-endpoint degree law,
    conditioning on the edge kind (local vs global)."""

    expected_conditional_cov: float
    cov_of_conditional_means: float
    covariance: float
    variance: float
    p_global: float
    block_dispersion: float

    @property
    def rho(self) -> float:
        if self.variance <= _VAR_FLOOR:
            raise ZeroVariance("endpoint degrees are constant")
        return self.covariance / self.variance


def degree_corr_components(household: DiscreteDist, global_degree: DiscreteDist,
                           r: float, n_q: int) -> DegreeCorrComponents:
    check_r(r)
    check_n_q(n_q)
    h_tilde = size_bias(household)
    mu_ht, var_ht = h_tilde.mean(), h_tilde.variance()
    mu_g, var_g = global_degree.mean(), global_degree.variance()

    if household.prob_at_least(2) > 0.0:
        h_hat = edge_bias(household)
        mu_hh, var_hh = h_hat.mean(), h_hat.variance()
    else:
        mu_hh, var_hh = 0.0, 0.0  # no local edges: weight (1 - p_global) is 0

    denom_pg = mu_g + mu_ht - 1.0
    p_global = mu_g / denom_pg if denom_pg > 0.0 else 0.0

    if mu_g > 0.0:
        d_tilde = stub_degree_law(household, global_degree)
        table = quantile_table(d_tilde, n_q)
        dispersion = table.block_dispersion(r)
        g_tilde = size_bias(global_degree)
        var_gt = g_tilde.variance()
        shift = mu_hh - mu_ht - var_g / mu_g
    else:
        dispersion = 0.0
        var_gt = 0.0
        shift = 0.0  # weight p_global (1 - p_global) is 0

    between = p_global * (1.0 - p_global) * shift * shift
    within = (1.0 - p_global) * var_hh + p_global * dispersion
    covariance = within + between
    variance = ((1.0 - p_global) * (var_hh + var_g)
                + p_global * (var_ht + var_gt)
                + between)
    return DegreeCorrComponents(within, between, covariance, variance,
                                p_global, dispersion)


def analytic_degree_corr(household: DiscreteDist, global_degree: DiscreteDist,
                         r: float, n_q: int) -> float:
    return degree_corr_components(household, global_degree, r, n_q).rho


def poisson_c_rho(gamma: float, mu: float, r: float, n_q: int) -> tuple[float, float]:
    """Closed forms for the Poisson template H ~ Poi+(mu), G ~ Poi(gamma - mu).

    Total degree is Poi(gamma) regardless of the split, clustering is
    (mu/gamma)^2, and the endpoint-degree correlation reduces to
    [mu^2 + (gamma - mu) g(r)] / gamma^2 with g the block dispersion of
    the stub degree law 1 + Poi(gamma).
    """
    table = poisson_stub_table(gamma, n_q)
    if not 0.0 <= mu <= gamma:
        raise ValueError("mu must lie in [0, gamma]")
    check_r(r)
    return template_c_rho(table, gamma, mu, r)


def poisson_stub_table(gamma: float, n_q: int) -> QuantileTable:
    """Quantile table of the Poisson template's stub degree law
    1 + Poi(gamma).  It depends on neither mu nor r, so an inversion over
    either builds it once and evaluates `template_c_rho` on it."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    base = poisson(gamma)
    d_tilde = DiscreteDist(base.support + 1, base.probs, base.tail_mass_bound)
    return quantile_table(d_tilde, n_q)


def template_c_rho(table: QuantileTable, gamma: float, mu: float,
                   r: float) -> tuple[float, float]:
    """`poisson_c_rho` on the `poisson_stub_table` of gamma, with mu taken
    as checked (`QuantileTable.block_dispersion` checks r)."""
    dispersion = table.block_dispersion(r)
    c = (mu / gamma) ** 2
    rho = (mu * mu + (gamma - mu) * dispersion) / (gamma * gamma)
    return c, rho


# -- empirical measures --------------------------------------------------


def _simple_adjacency(net: Network) -> sparse.csr_matrix:
    """Upper triangle of the simple reduction (parallel edges merged,
    self-loops dropped): one entry at (a, b), a < b, per adjacent pair.

    The pair keys a * n + b are sorted and deduplicated by comparing
    neighbours (np.unique costs far more on wide keys), and the sorted
    keys are already in CSR order: rows from a bincount, columns b.
    """
    n = net.n
    keep = net.edges_u != net.edges_v
    key = sorted_pair_keys(n, net.edges_u[keep], net.edges_v[keep])
    key = key[np.diff(key, prepend=-1) != 0]
    rows, cols = np.divmod(key, n)
    index = index_dtype(n, key.size)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_matrix(
        (np.ones(key.size, dtype=np.int32), cols.astype(index), indptr),
        shape=(n, n))


def empirical_clustering(net: Network) -> float:
    """Global clustering of the simple reduction (parallel edges merged,
    self-loops dropped): closed ordered triples / ordered length-2 paths.

    Each triangle u < v < w is counted once, as the path u-v-w of the
    upper triangle U closed by the edge (u, w): the sum of U @ U masked
    by U.  It closes six ordered triples.
    """
    upper = _simple_adjacency(net)
    deg = np.bincount(upper.indices, minlength=net.n) + np.diff(upper.indptr)
    paths = float(np.dot(deg, deg - 1))
    if paths <= 0.0:
        raise NoTriplets("no length-2 paths in the simple reduction")
    triangles = int((upper @ upper).multiply(upper).sum(dtype=np.int64))
    return 6 * triangles / paths


def empirical_degree_corr(net: Network) -> float:
    """Pearson correlation of stub-based endpoint degrees over ordered
    edge slots; parallel edges count with multiplicity, self-loops are
    excluded."""
    deg = net.degrees()
    mask = net.edges_u != net.edges_v
    if not np.any(mask):
        raise DegenerateNetwork("no non-loop edges to correlate")
    du = deg[net.edges_u[mask]].astype(np.float64)
    dv = deg[net.edges_v[mask]].astype(np.float64)
    x = np.concatenate([du, dv])
    y = np.concatenate([dv, du])
    x -= x.mean()
    y -= y.mean()
    var = float(np.dot(x, x))
    if var <= _VAR_FLOOR:
        raise ZeroVariance("endpoint degrees are constant")
    return float(np.dot(x, y)) / var
