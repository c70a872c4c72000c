"""Finite random networks with household cliques and labelled global stubs.

Construction: household sizes are drawn iid (the last household truncated
so sizes sum to n) and each household forms a complete graph of "local"
edges.  Each node independently draws a number g of "global" stubs and
labels each X=1 with probability |r|, else X=0.  X=0 stubs are paired
uniformly.  X=1 stubs are sorted by owner total degree (uniform random
tie-break), cut into n_q near-equal blocks (larger blocks first), and
paired within a block when r > 0 or between mirror-image blocks i and
n_q + 1 - i when r < 0 (the middle block pairing internally when n_q is
odd).  Unpairable leftovers are discarded and counted: at most one X=0
stub and at most n_q X=1 stubs.

One shuffle of every global stub, laid out by owner, serves three of
those draws.  Labels drawn per stub have the law of a Binomial(S, |r|)
count of the S stubs taken as a uniformly random subset, so the first n1
stubs of the shuffle, n1 drawn from that binomial, are the X=1 stubs.
The rest, in uniform order, pair consecutively as the X=0 matching with
no second shuffle.  A stable grouping of the X=1 stubs by owner degree
ranks them, each degree class in the shuffle's order, which is the
uniform tie-break.  Every shuffle permutes a stub array the generator
owns in place (`Generator.shuffle` draws the same order as indexing by
`Generator.permutation`, without the gather).  One pairing step,
`_pair_blocks`, pairs the X=1 blocks, each with itself or with its
mirror block, and the stubs `rewire` frees, one block per
household-size class.  It shuffles each block once: a block pairs
consecutive stubs of its shuffle, and a mirror pair shuffles only its
larger block, since a uniform order of one side against a fixed order of
the other is already a uniform matching.  `rewire` writes its new pairs
into the slots of the edges it breaks.  The ranking, the rewiring's
size classes and the adjacency build all use `_group_by`, a counting
scatter (count each key, prefix-sum the counts, then drop every value
into the next free slot of its key) in compiled code, which takes its
input as (keys, values) parts rather than their concatenation.  Where
the keys span more of the output than a cache holds (the adjacency from
about n = 1e5), it scatters in two passes, first by block of keys and
then by key, so that each block's writes stay in cache.  It runs in
linear time where a comparison sort of nodes, stubs or edge ends does
not, and gives the same order as a stable argsort of the keys.

Node ids, edge ends and CSR offsets have one dtype rule,
`index_dtype`: int32 while every count involved (n, and 2 * n_edges for
the adjacency) is below 2**31 - 1, else int64.  `build_network`,
`rewire` and `read_network` store the edge ends in it, and the adjacency
uses it whatever the edge arrays' own dtype.  The stub arrays the
generator shuffles stay int64, because `Generator.shuffle` has a fast
path only for items the size of intp (the permutation drawn is the same
at any item size); each pair is narrowed once, as `np.concatenate`
writes it into the edge arrays.

Self-loops and parallel edges are kept (they vanish in proportion as n
grows).  A `Network` stores the household sizes and the discard counts;
`household_index` and `imperfections` (self-loops and parallel edges)
are derived the first time they are read, so runs that never look (the
Monte Carlo estimator) never pay for them.  The CSR adjacency that
epidemics walk is built once per `Network` and cached as
`Network.adjacency`.

`write_network` and `read_network` round-trip a plain-text edge list
(format and grammar in the comment above them) without a Python step per
edge: the writer makes each chunk of 2**16 edges one matrix of four-byte
words, one row per line, with every number right-aligned in words looked
up in one table of four-digit words and every gap padded with NUL, and
drops the NULs from the matrix's bytes in one pass; the reader parses
blocks of whole lines with a numpy tokenizer and integer parser.  A path
is read as raw bytes and an open text file as its UTF-8 encoding, 2**18
bytes or characters at a time, so memory stays bounded by the block
size, and both take one line-end rule.  A bad file's error names its
first bad line, at any block size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, TextIO, Union

import numpy as np
from scipy.sparse import _sparsetools

from .distributions import (MAX_BLOCKS, DiscreteDist, check_integer,
                            check_n_q, check_p_rw, check_r)

Seed = Union[int, np.random.SeedSequence, None]


def index_dtype(*counts: int) -> np.dtype:
    """The dtype of node ids and CSR offsets for arrays of these counts:
    int32 when every count is below 2**31 - 1, else int64 (the rule
    scipy.sparse applies to its own index arrays)."""
    return np.dtype(np.int32 if max(counts) < np.iinfo(np.int32).max
                    else np.int64)


@dataclass(frozen=True)
class GenSpec:
    """Everything the generator needs: network size and the four
    structural knobs (household law, global degree law, target degree
    correlation sign/strength r, number of sorting blocks n_q)."""

    n: int
    household: DiscreteDist
    global_degree: DiscreteDist
    r: float = 0.0
    n_q: int = 1

    def __post_init__(self):
        check_integer("n", self.n)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_structure(self.household, self.r, self.n_q)


def check_structure(household: DiscreteDist, r: float, n_q: int) -> None:
    """The checks GenSpec and ModelParams share, with the same messages."""
    if household.min_support() < 1:
        raise ValueError("household sizes must be >= 1")
    check_r(r)
    check_n_q(n_q)


@dataclass(frozen=True)
class Imperfections:
    self_loops: int = 0
    parallel_edges: int = 0
    discarded_x0: int = 0
    discarded_x1: int = 0
    discarded_local: int = 0


# a scatter keeps at most one cache line of its output busy per key
_LINE_BYTES = 64
# _group_by scatters in one pass while its keys span at most _CACHE_BYTES
# of the output, and beyond that in about _BLOCKS key blocks.  Measured on
# int32 adjacencies (about 40 B a node), two passes took 2.2x the one-pass
# time at n = 1e4 and 1.0-1.2x at 3e4 to 5e4; from 1e5 to 2e6 they took
# 0.45-0.68x, fastest at 25 to 37 blocks: blocks spanning 256 KiB took
# 0.52x at n = 1e6 (245 blocks, 0.47x at 31) and blocks spanning 2 MiB
# 1.07-1.18x at 1e5 (4 blocks, 0.68x at 25).
_CACHE_BYTES = 1 << 21
_BLOCKS = 32


def _group_by(parts: list[tuple[np.ndarray, np.ndarray]],
              n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, grouped): the values of `parts`, a list of (keys, values)
    pairs, grouped stably by integer key.

    grouped[indptr[k]:indptr[k + 1]] holds the values whose key is k, part
    by part and in input order within a part, so with keys and values the
    concatenations of the parts, grouped equals
    values[np.argsort(keys, kind="stable")] and np.diff(indptr) equals
    np.bincount(keys, minlength=n_keys).  A counting scatter, linear in
    the values and n_keys: scipy's COO->CSR kernel with the values as both
    its column indices and its data, so it writes each value twice into
    `grouped` and needs no payload array; it keeps repeated (key, value)
    pairs.  Being stable, it keeps values in uniform random order in
    uniform order within each key, which is the ranking's tie-break.

    Where the keys span more of `grouped` than a cache holds, counting a
    key's span as its share of `grouped` but at most a cache line, a
    scatter in input order misses on nearly every write.  There the keys
    are cut into about _BLOCKS blocks, a power of two wide; a first
    stable scatter of each part by block, with the keys riding as column
    indices, puts the values in block order, and the scatter by key over
    those then writes one block's slice of `grouped` at a time.
    Otherwise the parts are joined and scattered once.  Either way, the
    buffers alive at once are three arrays the size of the values.  Both
    outputs take the values' dtype, widened to the index dtype of n_keys
    and the number of values.
    """
    parts = [(np.asarray(keys), np.asarray(values)) for keys, values in parts]
    # the kernel checks neither lengths nor indices: a short values array
    # would be read past its end, and a key outside 0..n_keys-1 would
    # write past the end of indptr.  The keys are checked as given, since
    # a narrowing cast could wrap one from outside the range into it.
    for keys, values in parts:
        if keys.shape != values.shape:
            raise ValueError("keys and values must have one shape")
        if keys.size and (keys.min() < 0 or keys.max() >= n_keys):
            raise ValueError(f"keys must lie in 0..{n_keys - 1}, got "
                             f"{int(keys.min())}..{int(keys.max())}")
    size = sum(keys.size for keys, _ in parts)
    dtype = np.result_type(*(values.dtype for _, values in parts),
                           index_dtype(n_keys, size))
    indptr = np.empty(n_keys + 1, dtype=dtype)
    grouped = np.empty(size, dtype=dtype)
    key_bytes = min(max(grouped.nbytes // max(n_keys, 1), 1), _LINE_BYTES)
    if n_keys * key_bytes <= _CACHE_BYTES:
        keys, values = (arrays[0].astype(dtype, copy=False) if len(arrays) == 1
                        else np.concatenate(arrays, dtype=dtype)
                        for arrays in zip(*parts))
    else:
        keys = np.empty(size, dtype=dtype)
        values = np.empty(size, dtype=dtype)
        shift = max(round(math.log2(n_keys / _BLOCKS)), 0)
        n_blocks = ((n_keys - 1) >> shift) + 1
        bounds = np.empty(n_blocks + 1, dtype=dtype)
        at = 0
        for part_keys, part_values in parts:
            m = part_keys.size
            part_keys = part_keys.astype(dtype, copy=False)
            # the block ids go in `grouped`, which the last scatter fills
            block = np.right_shift(part_keys, shift, out=grouped[:m])
            _sparsetools.coo_tocsr(n_blocks, n_keys, m, block, part_keys,
                                   part_values.astype(dtype, copy=False),
                                   bounds, keys[at : at + m],
                                   values[at : at + m])
            at += m
    _sparsetools.coo_tocsr(n_keys, 1, size, keys, values, values,
                           indptr, grouped, grouped)
    return indptr, grouped


@dataclass(frozen=True)
class Network:
    """An undirected multigraph with household structure.

    Nodes 0..n-1 are laid out household by household.  Edge arrays are
    aligned; edge_local marks household edges.  stub_q_u/stub_q_v carry
    the 1-based sorting-block labels of the two stubs of an X=1 global
    edge and are 0 everywhere else.  The discarded_* fields count the
    stubs the generator (x0, x1) could not pair, and discarded_local any
    count a file carries: rewiring pairs every stub it frees, so it never
    adds to it.
    """

    n: int
    household_sizes: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray
    edge_local: np.ndarray
    stub_q_u: np.ndarray
    stub_q_v: np.ndarray
    discarded_x0: int = 0
    discarded_x1: int = 0
    discarded_local: int = 0

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.size)

    @cached_property
    def household_index(self) -> np.ndarray:
        """The household of each node, derived on first read."""
        households = np.arange(self.household_sizes.size,
                               dtype=index_dtype(self.n))
        return np.repeat(households, self.household_sizes)

    @cached_property
    def imperfections(self) -> Imperfections:
        """Discard counts plus self-loops and parallel edges, counted on
        first read."""
        key = sorted_pair_keys(self.n, self.edges_u, self.edges_v)
        return Imperfections(int(np.sum(self.edges_u == self.edges_v)),
                             int(np.sum(np.diff(key) == 0)),
                             self.discarded_x0, self.discarded_x1,
                             self.discarded_local)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over directed edge ends, built on first read.

        The neighbours of v are heads[indptr[v]:indptr[v + 1]]: first the
        v ends of edges (v, w) in edge order, then those of edges (w, v).
        A self-loop lists its node twice.  Both arrays are read-only and
        of the index dtype of n and 2 * n_edges, whatever the edges' own.
        The two directions go to `_group_by` as two parts, so no array of
        all edge ends is made beside its own buffers: 6 index words per
        edge at the peak, as with one scatter.
        """
        # the keys go as given, for _group_by to check before any cast;
        # they hold the same ends as the values, so that covers both
        ids = index_dtype(self.n, 2 * self.n_edges)
        u, v = self.edges_u, self.edges_v
        indptr, heads = _group_by([(u, v.astype(ids, copy=False)),
                                   (v, u.astype(ids, copy=False))], self.n)
        indptr.flags.writeable = False
        heads.flags.writeable = False
        return indptr, heads

    def degrees(self) -> np.ndarray:
        """Stub-based degrees: a self-loop adds 2 to its node."""
        deg = np.bincount(self.edges_u, minlength=self.n)
        deg += np.bincount(self.edges_v, minlength=self.n)
        return deg

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(Network))


def sorted_pair_keys(n, edges_u, edges_v) -> np.ndarray:
    """min(u, v) * n + max(u, v) per edge as int64, sorted: parallel edges
    sit side by side, and distinct keys come in CSR order of the pairs."""
    key = (np.minimum(edges_u, edges_v).astype(np.int64) * n
           + np.maximum(edges_u, edges_v))
    key.sort()
    return key


def _draw_household_sizes(household: DiscreteDist, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    sizes = []
    total = 0
    mean = max(household.mean(), 1.0)
    while total < n:
        batch = household.sample(rng, max(64, int((n - total) / mean) + 16))
        sizes.append(batch)
        total += int(batch.sum())
    sizes = np.concatenate(sizes)
    cum = np.cumsum(sizes)
    last = int(np.searchsorted(cum, n))
    sizes = sizes[: last + 1].copy()
    # truncate the final household so the sizes sum to exactly n
    sizes[last] = n - (cum[last - 1] if last > 0 else 0)
    return sizes[sizes > 0]


@lru_cache(maxsize=64)
def _clique_offsets(size: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """np.triu_indices(size, k=1) in `dtype`; read-only, as every build
    shares it."""
    offsets = tuple(t.astype(dtype) for t in np.triu_indices(size, k=1))
    for t in offsets:
        t.flags.writeable = False
    return offsets


def _household_edges(sizes: np.ndarray, starts: np.ndarray):
    chunks_u, chunks_v = [], []
    # the sizes present, ascending, as np.unique gives them
    for s in np.flatnonzero(np.bincount(sizes)):
        if s < 2:
            continue
        hs = starts[sizes == s]
        ti, tj = _clique_offsets(int(s), starts.dtype)
        chunks_u.append((hs[:, None] + ti[None, :]).ravel())
        chunks_v.append((hs[:, None] + tj[None, :]).ravel())
    if not chunks_u:
        empty = np.empty(0, dtype=starts.dtype)
        return empty, empty.copy()
    return np.concatenate(chunks_u), np.concatenate(chunks_v)


def _pair_consecutive(stubs: np.ndarray):
    """(u, v, unpaired) of stubs in uniform random order: the pairs
    (stubs[0], stubs[1]), (stubs[2], stubs[3]), ... as views, a uniform
    matching, and the count of stubs left unpaired (0 or 1)."""
    half = stubs.size // 2
    return stubs[: 2 * half : 2], stubs[1 : 2 * half : 2], stubs.size % 2


def _pair_blocks(stubs: np.ndarray, bounds: np.ndarray,
                 rng: np.random.Generator, mirror: bool = False):
    """Uniform matchings of the blocks stubs[bounds[b]:bounds[b + 1]].

    Block b pairs with itself, or with its mirror block k - 1 - b of the
    k blocks when `mirror` is set; a mirror pair is matched when the loop
    reaches its first block.  That block is shuffled in place once, as is
    a block paired with itself: a block paired with itself pairs
    consecutive stubs, and one paired with a mirror block at most as
    large (larger blocks first) matches its first stubs against that
    block as it stands, since a uniform order of one side against any
    fixed order of the other is already a uniform matching.
    Returns (us, vs, unpaired): for each visited block the two ends of its
    pairs, as views of `stubs`, and the count of stubs left unpaired.
    """
    k = bounds.size - 1
    us, vs = [], []
    for b in range(k):
        m = k - 1 - b if mirror else b
        if m < b:
            break
        block = stubs[bounds[b] : bounds[b + 1]]
        rng.shuffle(block)
        if m == b:
            u, v, _ = _pair_consecutive(block)
        else:
            v = stubs[bounds[m] : bounds[m + 1]]
            u = block[: v.size]
        us.append(u)
        vs.append(v)
    unpaired = int(bounds[-1] - bounds[0]) - 2 * sum(u.size for u in us)
    return us, vs, unpaired


def build_network(spec: GenSpec, seed: Seed) -> Network:
    rng = np.random.default_rng(seed)
    n = spec.n
    ids = index_dtype(n)

    sizes = _draw_household_sizes(spec.household, n, rng)
    size_of_node = np.repeat(sizes, sizes)

    local_u, local_v = _household_edges(sizes,
                                        (np.cumsum(sizes) - sizes).astype(ids))

    g = spec.global_degree.sample(rng, n)
    # every global stub by owner, in one uniform order: labelling each
    # X=1 with probability |r| on its own takes a Binomial count of them
    # as a uniform subset, so the first n1 are the X=1 stubs, and the rest,
    # already in uniform order, pair consecutively as the X=0 matching
    stubs = np.repeat(np.arange(n, dtype=np.int64), g)
    rng.shuffle(stubs)
    n1 = int(rng.binomial(stubs.size, abs(spec.r)))
    g0_u, g0_v, disc_x0 = _pair_consecutive(stubs[n1:])

    # rank X=1 stubs by owner degree, the ties in the shuffle's order, and
    # cut them into n_q blocks, the rem larger ones first; the ranking is
    # copied back over the X=1 stubs, so that no second stub array is
    # alive when the edge arrays are written; a degree is at most
    # n - 1 + g, so the index dtype of n + stubs.size holds it
    degree = np.add(size_of_node - 1, g, dtype=index_dtype(n + stubs.size))
    ranked = stubs[:n1]
    ranked[:] = _group_by([(degree[ranked], ranked)],
                          int(degree.max()) + 1)[1]
    base, rem = divmod(n1, spec.n_q)
    j = np.arange(spec.n_q + 1)
    g1_u, g1_v, disc_x1 = _pair_blocks(ranked, j * base + np.minimum(j, rem),
                                       rng, mirror=spec.r < 0)

    # each pair is narrowed once, from the stubs into the edge arrays
    edges_u = np.concatenate([local_u, g0_u, *g1_u], dtype=ids)
    edges_v = np.concatenate([local_v, g0_v, *g1_v], dtype=ids)
    edge_local = np.zeros(edges_u.size, dtype=bool)
    edge_local[: local_u.size] = True
    # the X=1 pairs come last; the 1-based labels of their two ends:
    # visited block b pairs with itself, or with its mirror block
    # n_q - 1 - b
    block = np.repeat(np.arange(len(g1_u), dtype=np.int16),
                      [u.size for u in g1_u])
    labelled = slice(edges_u.size - block.size, None)
    stub_q_u = np.zeros(edges_u.size, dtype=np.int16)
    stub_q_v = np.zeros(edges_u.size, dtype=np.int16)
    stub_q_u[labelled] = block + 1
    stub_q_v[labelled] = spec.n_q - block if spec.r < 0 else block + 1

    return Network(n, sizes, edges_u, edges_v, edge_local, stub_q_u,
                   stub_q_v, disc_x0, disc_x1)


def rewire(net: Network, p_rw: float, seed: Seed) -> Network:
    """Break each household's local edges with probability p_rw and
    re-pair the freed stubs uniformly within their household-size class.

    Degrees are preserved exactly; clustering is diluted by the factor
    (1 - p_rw) in expectation.  Meant for freshly built networks, where
    every local edge lies inside a single household.  Both stubs of a
    broken edge join the size class of its first end, so every class
    pairs off whole: nothing is discarded, and the new pairs fill the
    broken edges' slots as unlabelled local edges.  Every other slot keeps
    its edge, and edge_local and discarded_local do not change: the new
    network shares the input's arrays that it does not change.
    """
    check_p_rw(p_rw)
    if p_rw == 0.0 or not np.any(net.edge_local):
        return net
    rng = np.random.default_rng(seed)
    chosen = rng.random(net.household_sizes.size) < p_rw

    local_idx = np.flatnonzero(net.edge_local)
    edge_household = net.household_index[net.edges_u[local_idx]]
    # about 30% dense: at 43% of 1e7 intp, np.compress takes 34 ms where
    # a boolean index takes 81 ms
    broken = np.compress(chosen[edge_household], local_idx)
    if broken.size == 0:
        return net

    label = net.household_sizes[net.household_index[net.edges_u[broken]]]
    # the freed stubs grouped by household size, ascending, as int64 for
    # the shuffles
    indptr, stubs = _group_by(
        [(label, ends[broken].astype(np.int64))
         for ends in (net.edges_u, net.edges_v)],
        int(label.max()) + 1)
    new_u, new_v, _ = _pair_blocks(stubs, indptr, rng)

    # copies in the network's own id dtype
    ids = np.promote_types(net.edges_u.dtype, net.edges_v.dtype)
    edges_u, edges_v = net.edges_u.astype(ids), net.edges_v.astype(ids)
    edges_u[broken] = np.concatenate(new_u)
    edges_v[broken] = np.concatenate(new_v)
    stub_q_u, stub_q_v = net.stub_q_u, net.stub_q_v
    if np.any(stub_q_u[broken] | stub_q_v[broken]):
        # local edges labelled by hand or by a file
        stub_q_u, stub_q_v = stub_q_u.copy(), stub_q_v.copy()
        stub_q_u[broken] = stub_q_v[broken] = 0

    return Network(net.n, net.household_sizes,
                   edges_u, edges_v, net.edge_local, stub_q_u, stub_q_v,
                   net.discarded_x0, net.discarded_x1, net.discarded_local)


# -- plain-text edge list format ----------------------------------------
#
#   #n 12
#   #households 4,4,3,1
#   #discarded 1 0 0          (optional: x0 x1 local counts)
#   0 1 local
#   4 9 global 2 7            (block labels of the two stubs, if any)
#
# A line ends at "\n", "\r" or "\r\n", in a file named by its path as in
# an open text file.  Every line is read with its leading and trailing
# whitespace stripped; blank lines are skipped.  A line whose first
# character is "#" is a header or a comment: #n (n >= 1), #households
# (sizes >= 1 summing to n) and #discarded (three counts >= 0) are
# headers, the last of each kind wins, and any other "#" line is skipped,
# so callers may prepend their own provenance comments.  Every other line
# is an edge: three or five fields split on whitespace, the endpoints, the
# kind ("local" or "global") and optionally the two block labels
# (0..MAX_BLOCKS).  Numbers are ASCII decimal integers with an optional
# sign; a "#" after an edge is not a comment, so the line is rejected.
# Non-ASCII text, which must be UTF-8 in a file named by its path, may
# appear only in "#" lines.  Nodes are numbered household by household,
# matching the generator's layout.  The error for a file with several bad
# lines names the first of them.
#
# Both directions work in bounded blocks.  The writer takes _IO_CHUNK
# edges at a time and makes them one uint32 matrix, one row of four-byte
# words per line (_word_matrix).  Each number takes as many words as the
# largest in its column needs, looked up in one read-only table of 20,001
# words (_digit_words): 0000-9999, the same with NULs for leading zeros,
# and an all-NUL word for the places above a short number's first digit;
# a sign word goes first only where a column holds a negative value
# (_decimal_words).  The spaces, " loc" + "al" or " glo" + "bal" and the
# newline are constant words, and the label block is all NUL on unlabelled
# edges.  The matrix's bytes with every NUL dropped, one bytes.translate
# pass, are the chunk's lines (_format_edges).  It hands the chunk to the
# text file as one str, so a caller's own lines before it stay in order.
# The reader reads a path in binary and an open text file encoded to
# UTF-8, _READ_BLOCK bytes or characters at a time, and cuts each block
# after its last line end (_byte_blocks).  The parser finds the tokens
# of a block in numpy, decodes only the "#" lines for _read_header,
# parses the edge lines' integers in numpy, and raises the first bad
# line's first fault (_parse_block, _parse_ints).

_IO_CHUNK = 1 << 16
_READ_BLOCK = 1 << 18  # bytes, or characters of a text file
_LOCAL = np.frombuffer(b"local", dtype=np.uint8)
_GLOBAL = np.frombuffer(b"global", dtype=np.uint8)
_MAX_DIGITS = 18  # any 18-digit decimal fits in int64
# the constant words of a line, NUL-padded: a space, " loc" + "al",
# " glo" + "bal", the newline and a minus sign
_SPACE, _LOC, _AL, _GLO, _BAL, _NEWLINE, _MINUS = np.frombuffer(
    b" \0\0\0 local\0\0 global\0\n\0\0\0-\0\0\0", dtype=np.uint32)


def write_network(net: Network, out: Union[str, os.PathLike, TextIO]) -> None:
    """Write `net` in the edge-list format above to a path or an open
    text file, at the file's current position."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w") as fh:
            write_network(net, fh)
        return
    out.write(f"#n {net.n}\n")
    out.write("#households "
              + ",".join(map(str, net.household_sizes.tolist())) + "\n")
    out.write(f"#discarded {net.discarded_x0} {net.discarded_x1} "
              f"{net.discarded_local}\n")
    for lo in range(0, net.n_edges, _IO_CHUNK):
        part = slice(lo, lo + _IO_CHUNK)
        out.write(_format_edges(net.edges_u[part], net.edges_v[part],
                                net.edge_local[part], net.stub_q_u[part],
                                net.stub_q_v[part]))


@lru_cache(maxsize=1)
def _digit_words() -> np.ndarray:
    """The 20,001 four-byte words numbers are written in, read-only: word
    k < 10,000 is k in four digits, word 10,000 + k is k with NULs for its
    leading zeros (0 keeps its "0"), and word 20,000 is all NUL."""
    k = np.arange(10_000)
    places = 10 ** np.arange(3, -1, -1)
    digits = (k[:, None] // places % 10 + ord("0")).astype(np.uint8)
    padded = np.where(k[:, None] >= places, digits, 0)
    padded[:, -1] = digits[:, -1]
    words = np.concatenate([digits, padded, np.zeros((1, 4), np.uint8)])
    table = words.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _format_edges(u, v, local, q_u, q_v) -> str:
    """The edge lines of aligned, non-empty edge columns: the rows of
    their word matrix with the NULs dropped.  The matrix goes as soon as
    its bytes are taken, before the NULs are dropped."""
    return (_word_matrix(u, v, local, q_u, q_v).tobytes()
            .translate(None, b"\0").decode("ascii"))


def _word_matrix(u, v, local, q_u, q_v) -> np.ndarray:
    """A uint32 matrix of four-byte words, one row per edge line: "u v
    kind", then " qu qv" on labelled edges, then the newline, each number
    right-aligned in its column's words and every gap padded with NUL."""
    local = np.asarray(local, dtype=bool)
    # the label block, all NUL on unlabelled edges
    labelled = (q_u | q_v) != 0
    labels = [labelled * word for word in [_SPACE, *_decimal_words(q_u),
                                           _SPACE, *_decimal_words(q_v)]]
    columns = [*_decimal_words(u), _SPACE, *_decimal_words(v),
               np.where(local, _LOC, _GLO), np.where(local, _AL, _BAL),
               *labels, _NEWLINE]
    # one row per word place, each written contiguously, transposed
    words = np.empty((len(columns), u.size), dtype=np.uint32)
    for i, column in enumerate(columns):
        words[i] = column
    return words.T


def _decimal_words(x: np.ndarray) -> list[np.ndarray]:
    """The word columns that write str(x[i]) right-aligned, NUL-padded on
    the left: a sign word where any x[i] is negative, then as many
    four-digit words as the largest magnitude needs, most significant
    first.  A word above a number's leading digit is all NUL."""
    table = _digit_words()
    lo, hi = int(x.min()), int(x.max())
    top = max(hi, -lo)
    # magnitudes in unsigned integers, which divide several times faster
    # than int64 and negate -2**63 exactly
    rest = x.astype(np.uint32 if top < 2**32 else np.uint64)
    if lo < 0:
        np.negative(rest, out=rest, where=x < 0)
    words = []
    for place in range((len(str(top)) + 3) // 4):
        quotient = rest // 10_000
        # the word's value, moved up 10,000 into the NUL-padded words
        # where it holds the number's leading digit, and 10,000 more to the
        # all-NUL word where the number ends below it (never in the last
        # place, so that 0 keeps its "0")
        word = rest - quotient * 10_000
        lead = (quotient == 0).view(np.uint8)
        if place:
            lead += rest == 0
        word += lead * np.uint32(10_000)
        words.append(table.take(word))
        rest = quotient
    if lo < 0:
        words.append((x < 0) * _MINUS)
    return words[::-1]


def read_network(src: Union[str, os.PathLike, TextIO]) -> Network:
    """Read the edge-list format above from a path or an open text file.

    Raises ValueError for anything outside that format, naming the
    file's first bad line where a line is at fault, and TypeError for a
    `src` that is neither.
    """
    header = {"n": None, "sizes": None, "discarded": (0, 0, 0)}
    not_a_source = TypeError("read_network takes a path or an open text "
                             f"file, not {type(src).__name__}")

    def read_text(size: int) -> bytes:
        text = src.read(size)
        if not isinstance(text, str):  # a binary file
            raise not_a_source
        return text.encode("utf-8", "surrogatepass")

    if isinstance(src, (str, os.PathLike)):
        with open(src, "rb") as fh:
            blocks = [_parse_block(*block, header)
                      for block in _byte_blocks(fh.read)]
    elif hasattr(src, "read"):
        blocks = [_parse_block(*block, header)
                  for block in _byte_blocks(read_text)]
    else:
        raise not_a_source
    n, sizes = header["n"], header["sizes"]
    if n is None or sizes is None:
        raise ValueError("missing #n or #households header")
    if int(sizes.sum()) != n:
        raise ValueError("household sizes do not sum to n")
    edges_u, edges_v, edge_local, stub_q_u, stub_q_v = (
        np.concatenate(column) for column in zip(*blocks))
    # the ends are checked as parsed, in int64, and then narrowed
    for ends in (edges_u, edges_v):
        if ends.size and (ends.min() < 0 or ends.max() >= n):
            raise ValueError("edge endpoint out of range")
    edges_u, edges_v = (ends.astype(index_dtype(n))
                        for ends in (edges_u, edges_v))
    return Network(n, sizes, edges_u, edges_v, edge_local, stub_q_u,
                   stub_q_v, *header["discarded"])


def _byte_blocks(read: Callable[[int], bytes]):
    """(data, line_end) blocks of whole lines of the bytes that
    `read(size)` returns, read _READ_BLOCK at a time: data holds the
    lines' bytes as uint8 and line_end[i] is the offset just past line i.
    A line ends after "\n" or "\r", so "\r\n" leaves a blank line, which
    is skipped; the last line needs no end.  A line longer than a block
    is carried into the next."""
    carry = b""
    while chunk := read(_READ_BLOCK):
        raw = np.frombuffer(chunk, dtype=np.uint8)
        ends = np.flatnonzero((raw == ord("\n")) | (raw == ord("\r")))
        if ends.size == 0:
            carry += chunk
            continue
        cut = int(ends[-1]) + 1
        yield (np.frombuffer(carry + chunk[:cut], dtype=np.uint8),
               ends + (len(carry) + 1))
        carry = chunk[cut:]
    if carry:
        yield np.frombuffer(carry, dtype=np.uint8), np.array([len(carry)])


def _read_header(line: str, header: dict) -> None:
    """Apply one stripped "#" line to `header`; other comments are skipped."""
    try:
        if line.startswith("#n "):
            header["n"] = int(line[3:])
            ok = header["n"] >= 1
        elif line.startswith("#households "):
            sizes = [int(s) for s in line[12:].split(",")]
            header["sizes"] = np.array(sizes, dtype=np.int64)
            ok = min(sizes) >= 1
        elif line.startswith("#discarded "):
            header["discarded"] = tuple(int(s) for s in line[11:].split())
            ok = (len(header["discarded"]) == 3
                  and min(header["discarded"]) >= 0)
        else:
            return
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"bad header line {line!r}")


def _parse_block(data: np.ndarray, line_end: np.ndarray, header: dict):
    """(edges_u, edges_v, edge_local, stub_q_u, stub_q_v) of a block of
    whole lines from _byte_blocks, in which every line but the last ends
    in a space.  Its "#" lines go to _read_header in order up to its first
    faulty line, whose first fault is then raised."""

    def line(i, errors="surrogatepass"):
        text = data[line_end[i - 1] if i else 0 : line_end[i]].tobytes()
        return text.decode("utf-8", errors).strip()

    # a token is a run of non-spaces, the spaces being the ASCII
    # characters str.split() splits on (9..13 and 28..32); with a space
    # padded on each side the mask changes at token starts and ends in turn
    pad = np.ones(data.size + 2, dtype=bool)
    pad[1:-1] = ((data - np.uint8(9)) <= 4) | ((data - np.uint8(28)) <= 4)
    bounds = np.flatnonzero(pad[1:] != pad[:-1])
    start, end = bounds[::2], bounds[1::2]

    through = np.searchsorted(start, line_end)
    per_line = np.diff(through, prepend=0)
    first = through - per_line
    comment = per_line > 0
    comment[comment] = data[start[first[comment]]] == ord("#")
    # a line with non-ASCII bytes is judged on its decoded text: a
    # comment if that starts with "#" once stripped, else rejected; one
    # that does not decode is rejected either way
    non_ascii = np.unique(np.searchsorted(
        line_end, np.flatnonzero(data >= 0x80), side="right"))
    not_utf8 = []
    for i in non_ascii:
        try:
            comment[i] = line(i).startswith("#")
        except UnicodeDecodeError:
            not_utf8.append(i)
    edge = (per_line > 0) & ~comment
    shaped = edge & ((per_line == 3) | (per_line == 5))

    # the kind and integers of each edge line with three or five fields
    rows = np.flatnonzero(shaped)
    row_first, five = first[rows], per_line[rows] == 5
    kind_end = end[row_first + 2]
    width = kind_end - start[row_first + 2]
    local, glob = width == 5, width == 6
    # read each kind backwards from its end; two tokens and two spaces
    # come before it, so kind_end - j >= -1 and never leaves the data
    for j in range(1, 7):
        char = data[kind_end - j]
        if j <= 5:
            local &= char == _LOCAL[-j]
        glob &= char == _GLOBAL[-j]
    # endpoints and labels apart, so that short labels take no more
    # Horner passes than their own digits
    m, k = rows.size, int(five.sum())
    end_token = np.concatenate([row_first, row_first + 1])
    ends, ends_valid = _parse_ints(data, start[end_token], end[end_token])
    label_token = np.concatenate([row_first[five] + 3, row_first[five] + 4])
    labels, labels_valid = _parse_ints(data, start[label_token],
                                       end[label_token])
    outside = (labels < 0) | (labels > MAX_BLOCKS)

    # a line's first fault is the first entry here that holds it, and
    # each entry's lines are in file order
    faults = [
        ("invalid UTF-8 in line", np.array(not_utf8, dtype=np.int64)),
        ("non-ASCII character in line", non_ascii[edge[non_ascii]]),
        ("bad edge line", np.flatnonzero(edge & ~shaped)),
        ("bad edge kind in line", rows[~(local | glob)]),
        ("bad edge line", rows[~(ends_valid[:m] & ends_valid[m:])]),
        ("bad edge line", rows[five][~(labels_valid[:k] & labels_valid[k:])]),
        (f"block label outside 0..{MAX_BLOCKS} in line",
         rows[five][outside[:k] | outside[k:]]),
    ]
    bad = min(((lines[0], order) for order, (_, lines) in enumerate(faults)
               if lines.size), default=None)
    stop = line_end.size if bad is None else bad[0]
    for i in np.flatnonzero(comment[:stop]):
        _read_header(line(i), header)
    if bad is not None:
        i, order = bad
        text = line(i, "replace" if i in not_utf8 else "surrogatepass")
        raise ValueError(f"{faults[order][0]} {text!r}")

    stub_q_u = np.zeros(m, dtype=np.int16)
    stub_q_v = np.zeros(m, dtype=np.int16)
    stub_q_u[five] = labels[:k]
    stub_q_v[five] = labels[k:]
    return ends[:m], ends[m:], local, stub_q_u, stub_q_v


def _parse_ints(data: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Values of the tokens data[start:end] read as decimal integers with
    an optional sign, and a mask of the tokens that are such integers.

    Like int(), leading zeros are allowed; a token with more than
    _MAX_DIGITS significant digits is marked invalid (no file value that
    large can be a node or a block label).
    """
    sign = data[start]
    negative = sign == ord("-")
    start = start + (negative | (sign == ord("+")))
    width = end - start
    w = min(int(width.max(initial=1)), _MAX_DIGITS)
    # zeros before the data keep end - j in range for every j <= w
    padded = np.full(w + data.size, ord("0"), dtype=np.uint8)
    padded[w:] = data
    # uint32 holds any 9-digit decimal and multiplies faster than int64
    values = np.zeros(start.size, dtype=np.uint32 if w <= 9 else np.int64)
    largest = np.zeros(start.size, dtype=np.uint8)
    # Horner over the last w characters of each token, the j-th from the
    # right read as 0 where the token is shorter than j; a non-digit
    # reads as more than 9
    for j in range(w, 0, -1):
        digit = padded[w - j:][end] - np.uint8(ord("0"))
        digit *= width >= j
        np.maximum(largest, digit, out=largest)
        values *= 10
        values += digit
    valid = (width > 0) & (largest <= 9)
    long = np.flatnonzero(width > w)
    if long.size:
        # characters before the last w must all be zeros
        nonzero = np.concatenate(([0], np.cumsum(data != ord("0"))))
        valid[long] &= nonzero[end[long] - w] == nonzero[start[long]]
    values = values.astype(np.int64, copy=False)
    np.negative(values, out=values, where=negative)
    return values, valid
