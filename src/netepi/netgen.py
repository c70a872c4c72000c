"""Finite random networks with household cliques and labelled global stubs.

Construction: household sizes are drawn iid (the last household truncated
so sizes sum to n) and each household forms a complete graph of "local"
edges.  Each node independently draws a number g of "global" stubs and
labels each X=1 with probability |r|, else X=0; a node's stubs being
exchangeable, that is one Binomial(g, |r|) draw of its X=1 count.  X=0
stubs are paired uniformly.  X=1 stubs are sorted by owner total degree
(uniform random tie-break), cut into n_q near-equal blocks (larger blocks
first), and paired within a block when r > 0 or between mirror-image
blocks i and n_q + 1 - i when r < 0 (the middle block pairing internally
when n_q is odd).  Unpairable leftovers are discarded and counted: at
most one X=0 stub and at most n_q X=1 stubs.

The ranking shuffles the X=1 stubs and then groups them stably by owner
degree, so ties keep the uniform random order of the shuffle.  Every
shuffle permutes a stub array the generator owns in place
(`Generator.shuffle` draws the same order as indexing by
`Generator.permutation`, without the gather).  One pairing step,
`_pair_blocks`, forms every edge that is not a household clique edge: it
pairs the X=0 stubs as one block, the X=1 blocks each with itself or with
its mirror block, and the stubs `rewire` frees by household-size class.
It shuffles each block once: a block pairs consecutive stubs of its
shuffle, and a mirror pair shuffles only its larger block, since a
uniform order of one side against a fixed order of the other is already
a uniform matching.  The ranking, the rewiring's size classes and the
adjacency build all use `_group_by`, one counting scatter
(count each key, prefix-sum the counts, then drop every value into the
next free slot of its key) in compiled code.  It runs in linear time
where a comparison sort of labelled stubs or edge ends does not, and
gives the same order as a stable argsort of the keys.

Self-loops and parallel edges are kept (they vanish in proportion as n
grows).  A `Network` stores only the discard counts; `imperfections`
counts self-loops and parallel edges the first time it is read, so runs
that never look (the Monte Carlo estimator) never pay for the count.  The
CSR adjacency that epidemics walk is built once per `Network` and cached
as `Network.adjacency`.

`write_network` and `read_network` round-trip a plain-text edge list
(format and grammar in the comment above them) without a Python step per
edge: the writer lays out chunks of 2**16 edges in a byte buffer and
writes the decimal digits of each column with numpy, one pass per digit
place, and the reader parses blocks of whole lines with a numpy
tokenizer and integer parser.  A path is read as raw bytes and an open
text file as its UTF-8 encoding, 2**18 bytes or characters at a time, so
memory stays bounded by the block size, and both take one line-end rule.
A bad file's error names its first bad line, at any block size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TextIO, Union

import numpy as np
from scipy.sparse import _sparsetools

from .distributions import DiscreteDist

Seed = Union[int, np.random.SeedSequence, None]

# stub block labels are stored as int16: 0 for unlabelled, 1..n_q otherwise
MAX_BLOCKS = int(np.iinfo(np.int16).max)


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.household.min_support() < 1:
            raise ValueError("household sizes must be >= 1")
        if not -1.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [-1, 1]")
        if not 1 <= self.n_q <= MAX_BLOCKS:
            raise ValueError(f"n_q must lie in 1..{MAX_BLOCKS}")


@dataclass(frozen=True)
class Imperfections:
    self_loops: int = 0
    parallel_edges: int = 0
    discarded_x0: int = 0
    discarded_x1: int = 0
    discarded_local: int = 0


def _group_by(keys: np.ndarray, values: np.ndarray,
              n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, grouped): `values` grouped stably by integer key.

    grouped[indptr[k]:indptr[k + 1]] holds the values whose key is k, in
    input order, so grouped equals values[np.argsort(keys, kind="stable")]
    and np.diff(indptr) equals np.bincount(keys, minlength=n_keys).  One
    counting scatter, linear in keys.size + n_keys: scipy's COO->CSR
    kernel with the values as column indices and an ignored int8 payload;
    it keeps repeated (key, value) pairs.  Both outputs are int64.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    # the kernel checks neither lengths nor indices: a short values array
    # would be read past its end, and a key outside 0..n_keys-1 would
    # write past the end of indptr
    if keys.shape != values.shape:
        raise ValueError("keys and values must have one shape")
    if keys.size and (keys.min() < 0 or keys.max() >= n_keys):
        raise ValueError(f"keys must lie in 0..{n_keys - 1}, got "
                         f"{int(keys.min())}..{int(keys.max())}")
    indptr = np.empty(n_keys + 1, dtype=np.int64)
    grouped = np.empty(keys.size, dtype=np.int64)
    # the payload is all zeros, so one buffer can be both its input and
    # its output
    payload = np.zeros(keys.size, dtype=np.int8)
    _sparsetools.coo_tocsr(n_keys, 1, keys.size, keys, values, payload,
                           indptr, grouped, payload)
    return indptr, grouped


@dataclass(frozen=True)
class Network:
    """An undirected multigraph with household structure.

    Nodes 0..n-1 are laid out household by household.  Edge arrays are
    aligned; edge_local marks household edges.  stub_q_u/stub_q_v carry
    the 1-based sorting-block labels of the two stubs of an X=1 global
    edge and are 0 everywhere else.  The discarded_* fields count the
    stubs the generator (x0, x1) and rewiring (local) could not pair.
    """

    n: int
    household_index: np.ndarray
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
    def imperfections(self) -> Imperfections:
        """Discard counts plus self-loops and parallel edges, counted on
        first read."""
        self_loops, parallel = _count_imperfections(self.n, self.edges_u,
                                                    self.edges_v)
        return Imperfections(self_loops, parallel, self.discarded_x0,
                             self.discarded_x1, self.discarded_local)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency over directed edge ends, built on first read.

        The neighbours of v are heads[indptr[v]:indptr[v + 1]]: first the
        v ends of edges (v, w) in edge order, then those of edges (w, v).
        A self-loop lists its node twice.  Both arrays are read-only.
        """
        indptr, heads = _group_by(
            np.concatenate([self.edges_u, self.edges_v]),
            np.concatenate([self.edges_v, self.edges_u]), self.n)
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
        return (
            self.n == other.n
            and np.array_equal(self.household_sizes, other.household_sizes)
            and np.array_equal(self.edges_u, other.edges_u)
            and np.array_equal(self.edges_v, other.edges_v)
            and np.array_equal(self.edge_local, other.edge_local)
            and np.array_equal(self.stub_q_u, other.stub_q_u)
            and np.array_equal(self.stub_q_v, other.stub_q_v)
            and self.discarded_x0 == other.discarded_x0
            and self.discarded_x1 == other.discarded_x1
            and self.discarded_local == other.discarded_local
        )


def _count_imperfections(n, edges_u, edges_v) -> tuple[int, int]:
    if edges_u.size == 0:
        return 0, 0
    self_loops = int(np.sum(edges_u == edges_v))
    a = np.minimum(edges_u, edges_v).astype(np.int64)
    b = np.maximum(edges_u, edges_v).astype(np.int64)
    key = np.sort(a * n + b)
    parallel = int(np.sum(np.diff(key) == 0))
    return self_loops, parallel


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


def _household_edges(sizes: np.ndarray, starts: np.ndarray):
    chunks_u, chunks_v = [], []
    # the sizes present, ascending, as np.unique gives them
    for s in np.flatnonzero(np.bincount(sizes)):
        if s < 2:
            continue
        hs = starts[sizes == s]
        ti, tj = np.triu_indices(int(s), k=1)
        chunks_u.append((hs[:, None] + ti[None, :]).ravel())
        chunks_v.append((hs[:, None] + tj[None, :]).ravel())
    if not chunks_u:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(chunks_u), np.concatenate(chunks_v)


def _pair_blocks(stubs: np.ndarray, bounds: np.ndarray,
                 rng: np.random.Generator, mirror: bool = False):
    """Uniform matchings of the blocks stubs[bounds[b]:bounds[b + 1]].

    Block b pairs with itself, or with its mirror block k - 1 - b of the
    k blocks when `mirror` is set; a mirror pair is matched when the loop
    reaches its first block.  That block is shuffled in place once, as is
    a block paired with itself: a block paired
    with itself pairs consecutive stubs, and one paired with a mirror
    block at most as large (larger blocks first) matches its first stubs
    against that block as it stands, since a uniform order of one side
    against any fixed order of the other is already a uniform matching.
    Returns (u, v, q_u, q_v, unpaired): the ends of each pair, each end's
    1-based block, and the count of stubs left unpaired.
    """
    k = bounds.size - 1
    # household sizes key rewire's blocks, so k can outgrow int16 there
    label = np.int16 if k <= MAX_BLOCKS else np.int64
    us, vs, qs_u, qs_v = [], [], [], []
    for b in range(k):
        m = k - 1 - b if mirror else b
        if m < b:
            break
        block = stubs[bounds[b] : bounds[b + 1]]
        rng.shuffle(block)
        if m == b:
            half = block.size // 2
            u, v = block[: 2 * half : 2], block[1 : 2 * half : 2]
        else:
            v = stubs[bounds[m] : bounds[m + 1]]
            u = block[: v.size]
        us.append(u)
        vs.append(v)
        qs_u.append(np.full(u.size, b + 1, dtype=label))
        qs_v.append(np.full(u.size, m + 1, dtype=label))
    u = np.concatenate(us)
    unpaired = int(bounds[-1] - bounds[0]) - 2 * u.size
    return (u, np.concatenate(vs), np.concatenate(qs_u),
            np.concatenate(qs_v), unpaired)


def build_network(spec: GenSpec, seed: Seed) -> Network:
    rng = np.random.default_rng(seed)
    n = spec.n

    sizes = _draw_household_sizes(spec.household, n, rng)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    household_index = np.repeat(np.arange(sizes.size), sizes)
    size_of_node = np.repeat(sizes, sizes)

    local_u, local_v = _household_edges(sizes, starts)

    g = spec.global_degree.sample(rng, n)
    degree = size_of_node - 1 + g
    # a node's stubs are exchangeable, so labelling each X=1 with
    # probability |r| only fixes how many of them are
    g1 = rng.binomial(g, abs(spec.r))
    nodes = np.arange(n, dtype=np.int64)
    x0_owners = np.repeat(nodes, g - g1)
    x1_owners = np.repeat(nodes, g1)

    g0_u, g0_v, _, _, disc_x0 = _pair_blocks(
        x0_owners, np.array([0, x0_owners.size]), rng)

    # rank X=1 stubs by owner degree, uniform tie-break: shuffle, then a
    # stable grouping keeps the shuffled order within each degree; cut
    # into n_q blocks, the rem larger ones first
    rng.shuffle(x1_owners)
    ranked = _group_by(degree[x1_owners], x1_owners,
                       int(degree.max()) + 1)[1]
    base, rem = divmod(ranked.size, spec.n_q)
    j = np.arange(spec.n_q + 1)
    g1_u, g1_v, q_u, q_v, disc_x1 = _pair_blocks(
        ranked, j * base + np.minimum(j, rem), rng, mirror=spec.r < 0)

    edges_u = np.concatenate([local_u, g0_u, g1_u])
    edges_v = np.concatenate([local_v, g0_v, g1_v])
    edge_local = np.zeros(edges_u.size, dtype=bool)
    edge_local[: local_u.size] = True
    unlabelled = np.zeros(local_u.size + g0_u.size, dtype=np.int16)
    stub_q_u = np.concatenate([unlabelled, q_u])
    stub_q_v = np.concatenate([unlabelled, q_v])

    return Network(n, household_index, sizes, edges_u, edges_v, edge_local,
                   stub_q_u, stub_q_v, disc_x0, disc_x1)


def rewire(net: Network, p_rw: float, seed: Seed) -> Network:
    """Break each household's local edges with probability p_rw and
    re-pair the freed stubs uniformly within their household-size class.

    Degrees are preserved exactly; clustering is diluted by the factor
    (1 - p_rw) in expectation.  Meant for freshly built networks, where
    every local edge lies inside a single household.
    """
    if not 0.0 <= p_rw <= 1.0:
        raise ValueError("p_rw must lie in [0, 1]")
    if p_rw == 0.0 or not np.any(net.edge_local):
        return net
    rng = np.random.default_rng(seed)
    chosen = rng.random(net.household_sizes.size) < p_rw

    local_idx = np.flatnonzero(net.edge_local)
    edge_household = net.household_index[net.edges_u[local_idx]]
    broken = local_idx[chosen[edge_household]]
    if broken.size == 0:
        return net

    keep = np.ones(net.n_edges, dtype=bool)
    keep[broken] = False
    label = net.household_sizes[net.household_index[net.edges_u[broken]]]
    # the freed stubs grouped by household size, ascending
    indptr, stubs = _group_by(
        np.concatenate([label, label]),
        np.concatenate([net.edges_u[broken], net.edges_v[broken]]),
        int(label.max()) + 1)
    new_u, new_v, _, _, disc_local = _pair_blocks(stubs, indptr, rng)

    edges_u = np.concatenate([net.edges_u[keep], new_u])
    edges_v = np.concatenate([net.edges_v[keep], new_v])
    edge_local = np.concatenate(
        [net.edge_local[keep], np.ones(new_u.size, dtype=bool)]
    )
    stub_q_u = np.concatenate(
        [net.stub_q_u[keep], np.zeros(new_u.size, dtype=np.int16)]
    )
    stub_q_v = np.concatenate(
        [net.stub_q_v[keep], np.zeros(new_v.size, dtype=np.int16)]
    )

    return Network(net.n, net.household_index, net.household_sizes,
                   edges_u, edges_v, edge_local, stub_q_u, stub_q_v,
                   net.discarded_x0, net.discarded_x1,
                   net.discarded_local + disc_local)


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
# edges at a time: it counts the decimal digits of every number in the
# chunk, takes each line's length and offset from one cumsum, and fills a
# byte buffer by position: spaces, the kind and the newline, then the
# digits, one divide-by-ten pass per digit place (_format_edges,
# _put_decimal).  It hands the chunk to the text file as one str, so a
# caller's own lines before it stay in order.  The reader reads a path in
# binary and an open text file encoded to UTF-8, _READ_BLOCK bytes or
# characters at a time, and cuts each block after its last line end
# (_byte_blocks).  The parser finds the tokens of a block in numpy,
# decodes only the "#" lines for _read_header, parses the edge lines'
# integers in numpy, and raises the first bad line's first fault
# (_parse_block, _parse_ints).

_IO_CHUNK = 1 << 16
_READ_BLOCK = 1 << 18  # bytes, or characters of a text file
_LOCAL = np.frombuffer(b"local", dtype=np.uint8)
_LOCAL_PADDED = np.frombuffer(b"local ", dtype=np.uint8)
_GLOBAL = np.frombuffer(b"global", dtype=np.uint8)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
_MAX_DIGITS = 18  # any 18-digit decimal fits in int64


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


def _format_edges(u, v, local, q_u, q_v) -> str:
    """The edge lines of aligned, non-empty edge columns."""
    u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
    labelled = np.flatnonzero(q_u | q_v)
    q_u = np.asarray(q_u[labelled], np.int64)
    q_v = np.asarray(q_v[labelled], np.int64)
    w_u, w_v = _decimal_width(u), _decimal_width(v)
    w_qu, w_qv = _decimal_width(q_u), _decimal_width(q_v)
    # "u v kind", then " qu qv" on labelled edges, then the newline
    kind_offset = w_u + w_v + 2
    line_len = kind_offset + np.where(local, 6, 7)
    line_len[labelled] += w_qu + w_qv + 2
    line_end = np.cumsum(line_len)
    kind = line_end - line_len + kind_offset
    # one spare byte at the end takes the writes that land nowhere
    buf = np.full(int(line_end[-1]) + 1, ord(" "), dtype=np.uint8)
    buf[kind[:, None] + np.arange(6)] = np.where(local[:, None],
                                                 _LOCAL_PADDED, _GLOBAL)
    buf[line_end - 1] = ord("\n")
    _put_decimal(buf, kind - 2 - w_v, u, w_u)
    _put_decimal(buf, kind - 1, v, w_v)
    q_end = line_end[labelled] - 1
    _put_decimal(buf, q_end - 1 - w_qv, q_u, w_qu)
    _put_decimal(buf, q_end, q_v, w_qv)
    return buf[:-1].tobytes().decode("ascii")


def _decimal_width(x: np.ndarray) -> np.ndarray:
    """len(str(x[i])) for each int64 x[i]."""
    magnitude = np.abs(x)
    width = 1 + (x < 0)
    for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= magnitude.max(initial=0)]:
        width += magnitude >= power
    return width


def _put_decimal(buf: np.ndarray, end: np.ndarray, x: np.ndarray,
                 width: np.ndarray) -> None:
    """Write str(x[i]) into buf[end[i] - width[i]:end[i]] for each i.

    One pass per digit place; a place beyond a number's digits writes to
    buf's last byte instead, which the caller drops.
    """
    spare = buf.size - 1
    negative = x < 0
    digits = width - negative
    most = int(digits.max(initial=0))
    # uint32 divides by 10 several times faster than int64
    rest = np.abs(x).astype(np.uint32 if most <= 9 else np.uint64)
    for place in range(most):
        quotient = rest // 10
        buf[np.where(digits > place, end - 1 - place, spare)] = (
            rest - quotient * 10 + ord("0"))
        rest = quotient
    buf[np.where(negative, end - width, spare)] = ord("-")


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
    for ends in (edges_u, edges_v):
        if ends.size and (ends.min() < 0 or ends.max() >= n):
            raise ValueError("edge endpoint out of range")
    household_index = np.repeat(np.arange(sizes.size), sizes)
    return Network(n, household_index, sizes, edges_u, edges_v, edge_local,
                   stub_q_u, stub_q_v, *header["discarded"])


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
