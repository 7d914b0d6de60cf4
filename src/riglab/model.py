"""Random intersection graph model.

A graph G(n, m, p) is built from a random bipartite attachment: each of n
vertices picks each of m objects independently with probability p, and two
vertices are adjacent when their object sets intersect.  This module holds
the parameter and graph types, the seeded sampler, the bipartite-to-graph
projection, connectivity read from the vertex-object graph without
projecting, and the plain-text exchange formats.

Every draw is made here.  One per-vertex loop, ``_object_rows``, draws
every attachment row, and ``sample_degree`` counts vertex 0's attachments
on the same stream and its adjacencies on the reserved stream n.
``_pair_hits`` decides the two-vertex trials of a stream of seeds in
groups: it computes a group's streams' raw words in one numpy pass of
Philox4x64-10 (``_PhiloxStreams``) rather than reseating a Philox per
stream.  One function, ``_below``, reads every stream's raw words and
holds the compare that decides them all, one byte per word, so a point
too large to hold its decisions fails with MemoryError before drawing.
One routine, ``_rows_connected``, reads connectivity off such rows, or an
assignment's sets, on numpy alone.  It stops at the first vertex with no
objects (that vertex is isolated), so ``sample_connected`` draws no row after it.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from ._version import __version__

__all__ = [
    "ModelParams",
    "BipartiteAssignment",
    "IntersectionGraph",
    "vertex_substream",
    "sample_assignment",
    "conditional_adjacency_prob",
    "sample_degree",
    "pair_adjacent",
    "project",
    "is_connected",
    "sample_connected",
    "format_edgelist",
    "parse_edgelist",
    "format_assignment",
    "parse_assignment",
]

_MASK64 = (1 << 64) - 1
_ZERO4 = (0, 0, 0, 0)
_FLOAT_MAX = sys.float_info.max
# the largest n and m: the largest array sized by n and m together,
# _rows_connected's labels, then has n + m < 2**60 eight-byte entries, which
# numpy can address
_MAX_SIZE = (1 << 59) - 1
# the most raw words per stream _below asks of one random_raw call, and the
# most four-word Philox blocks _pair_hits computes in one pass, so that the
# raw words in flight stay small at any n and m
_BLOCK = 8192
# Philox4x64-10's round multipliers and key increments (Salmon et al., SC
# 2011), one row per multiply of a round, and the 32-bit halves the
# multiplies are done in
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL_LOW = _PHILOX_MUL & _LOW32
_MUL_HIGH = _PHILOX_MUL >> _SHIFT32
_HEADER_RE = re.compile(
    r"^#\s*rig\s+n=(?P<n>\S+)\s+m=(?P<m>\S+)\s+p=(?P<p>\S+)\s+seed=(?P<seed>\S+)\s*$"
)
# an integer as the writers print one; int() would also take 1_0, +7 and non-ASCII digits
_INT_RE = re.compile(r"-?[0-9]+")


# The one set of validators for the package: each returns the checked value
# and raises ValueError naming `name`, a parameter or a spec key path such as
# points[0].p.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _prefixed(prefix: str, func, *args):
    """func(*args), with `prefix` before the message of any ValueError it raises.

    The prefix is a spec key path such as ``points[0].`` or a reader's name
    such as ``edge list: ``; the checks called already name the field at fault.
    """
    try:
        return func(*args)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _check_int(value, name: str, minimum: int | None = None, maximum: float | None = None) -> int:
    """An int (not a bool), at least `minimum` and at most `maximum` when given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum!r}, got {value!r}")
    return value


def _check_real(value, name: str) -> float:
    """A finite int or float (not a bool), returned as a float."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -_FLOAT_MAX <= value <= _FLOAT_MAX
    ):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_prob(value, name: str) -> float:
    """A real in [0, 1], returned as a float."""
    value = _check_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: n vertices, m objects, attachment probability p.

    n and m lie in [1, 2**59 - 1].  Each error message starts with the field's name.
    """

    n: int
    m: int
    p: float

    def __post_init__(self) -> None:
        _check_int(self.n, "n", 1, _MAX_SIZE)
        _check_int(self.m, "m", 1, _MAX_SIZE)
        object.__setattr__(self, "p", _check_prob(self.p, "p"))


@dataclass(frozen=True)
class BipartiteAssignment:
    """Per-vertex object sets, stored as strictly increasing index tuples."""

    params: ModelParams
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.sets) != self.params.n:
            raise ValueError(
                f"expected {self.params.n} object sets, got {len(self.sets)}"
            )
        m = self.params.m
        for v, objects in enumerate(self.sets):
            prev = -1
            for w in objects:
                if type(w) is not int or not 0 <= w < m:
                    raise ValueError(
                        f"vertex {v}: object index {w!r} outside [0, {m})"
                    )
                if w <= prev:
                    raise ValueError(
                        f"vertex {v}: object indices must be strictly increasing"
                    )
                prev = w


@dataclass(frozen=True)
class IntersectionGraph:
    """Simple undirected graph on vertices 0..n-1 with canonical (i, j), i < j edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        _check_int(self.n, "n", 1)
        for edge in self.edges:
            try:
                i, j = edge
                if type(i) is int and type(j) is int and 0 <= i < j < self.n:
                    continue
            except (TypeError, ValueError):  # not a pair
                pass
            raise ValueError(f"edge {edge!r} is not canonical for n={self.n}")


def _unchecked(cls, **values):
    """An instance of the frozen dataclass `cls` with these field values, its ``__post_init__`` not run.

    Only for values valid by construction: the public constructors and the
    ``# rig`` readers keep every check.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(values)  # what the frozen __init__ sets, minus the check
    return instance


def vertex_substream(
    seed: int, index: int, *, bit_generator: np.random.Philox | None = None
) -> np.random.Generator:
    """Return the dedicated random stream for one substream index.

    Streams are Philox counter-based generators keyed by the 128-bit pair
    (seed mod 2**64, index mod 2**64), starting at counter 0.  Distinct
    indices give independent streams, so any vertex's attachments can be
    regenerated in isolation and sampling is reproducible under any parallel
    schedule.  This derivation is part of the sampling contract and must not
    change.

    The given Philox, or a fresh one when `bit_generator` is None, is
    reseated to that key at counter 0 with its output buffer emptied, and the
    returned generator draws on it.  A Philox stream is a pure function of
    (key, counter), so the draws are bit-for-bit those of a Philox built with
    that key.  A fresh Philox makes the stream independent of every other
    call; a passed-in one saves the cost of building a bit generator, but the
    stream lasts only until that Philox is reseated again.  The samplers here
    reuse one Philox per thread this way; handed that Philox, this returns
    the thread's one Generator on it instead of building another.
    """
    if bit_generator is None:
        bit_generator = np.random.Philox(key=0)
    per_thread = _PER_THREAD
    per_thread.key_state["key"] = (seed & _MASK64, index & _MASK64)
    bit_generator.state = per_thread.reseat
    if bit_generator is per_thread.philox:
        return per_thread.generator
    return np.random.Generator(bit_generator)


class _PerThread(threading.local):
    """Each thread's reusable Philox, the one Generator on it, and its reseat state.

    ``__init__`` runs once in each thread that reads them.  One per thread,
    because a reseated stream is only valid until the next reseat and trials
    may run on a thread pool.  ``reseat`` is the Philox state at counter 0
    with the output buffer empty; ``vertex_substream`` writes the key into
    ``key_state`` and assigns it, and the Philox copies the values out.
    """

    def __init__(self) -> None:
        self.philox = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.philox)
        self.key_state = {"counter": _ZERO4, "key": (0, 0)}
        self.reseat = {
            "bit_generator": "Philox",
            "state": self.key_state,
            "buffer": _ZERO4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_PER_THREAD = _PerThread()


@lru_cache(maxsize=256)
def _raw_limit(p: float) -> np.uint64 | None:
    """The bound under which a raw 64-bit word's uniform falls below p; None at p = 1.

    ``Generator.random`` makes a uniform of a raw word as (word >> 11) * 2**-53.
    For p < 1 that is below p exactly when word >> 11 < ceil(p * 2**53), that
    is when word < ceil(p * 2**53) << 11, so the raw words decide bit for bit
    what the uniforms would.  The bound is an np.uint64, so the compare stays
    in unsigned integers and no float takes part.  At p = 1 every uniform is
    below p, and the bound, 2**64, would not fit.  The bound is cached, since
    trials ask for the same few p again and again and an np.uint64 is immutable.
    """
    return np.uint64(math.ceil(p * 2**53) << 11) if p < 1.0 else None


def _below(bit_generator, shape: tuple[int, ...], limit: np.uint64 | None) -> np.ndarray:
    """Whether each of the streams' next uniforms falls below p, for limit = _raw_limit(p).

    `shape` is (count,), or (streams, count) for a ``_PhiloxStreams``, and
    the words are `bit_generator`'s raw words: no Generator takes part.
    None are drawn when every uniform is below p.  A count longer than
    ``_BLOCK`` is decided block by block, the words one call would give,
    into one bool array made before the first draw, so a count too large
    to hold fails at once with MemoryError.  This is the package's only
    raw-word reader, for attachment rows, degree counts and ``_pair_hits``.
    """
    if limit is None:
        return np.ones(shape, dtype=bool)
    if shape[-1] <= _BLOCK:
        return bit_generator.random_raw(shape) < limit
    below = np.empty(shape, dtype=bool)
    for start in range(0, shape[-1], _BLOCK):
        block = below[..., start : start + _BLOCK]
        block[...] = _below(bit_generator, block.shape, limit)
    return below


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of each row of `x` times that row's Philox multiplier.

    numpy has no 128-bit product, so the high word is summed from the four
    products of 32-bit halves, in sums that cannot wrap; the low word is
    the wrapping 64-bit product.  Every operand is an array, since numpy
    warns on a scalar that wraps.
    """
    low, high = x & _LOW32, x >> _SHIFT32
    middle = high * _MUL_LOW
    middle += (low * _MUL_LOW) >> _SHIFT32
    carry = middle & _LOW32
    carry += low * _MUL_HIGH
    hi = high * _MUL_HIGH
    hi += middle >> _SHIFT32
    hi += carry >> _SHIFT32
    return hi, x * _PHILOX_MUL


class _PhiloxStreams:
    """Philox4x64-10 streams at counter 0, one per column of `keys`, computed together in numpy.

    `keys` is a (2, streams) uint64 array of (seed, index) pairs: the keys
    ``vertex_substream`` gives its Philox.  ``random_raw((streams, count))``
    returns each stream's next `count` raw words, one row per stream, bit
    for bit the words that Philox would draw (numpy's Philox bumps its
    counter before each four-word block, so the first block is counter 1).
    A call starts at the next four-word block, so successive calls give the
    words of one call as long as each but the last asks for whole blocks.
    Each (stream, block) is one lane of a (2, lanes) state: a round
    multiplies words 0 and 2 of every lane at once.  This is the
    ``random_raw`` that ``_below`` reads for ``_pair_hits``.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.drawn = 0  # four-word blocks per stream

    def random_raw(self, size: tuple[int, int]) -> np.ndarray:
        streams, count = size
        blocks = -(-count // 4)
        key = self.keys.repeat(blocks, axis=1)
        even = np.zeros_like(key)  # words 0 and 2 of each lane's counter
        even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), streams) + self.drawn
        self.drawn += blocks
        odd = np.zeros_like(key)  # words 1 and 3
        for round_index in range(10):
            if round_index:
                key += _PHILOX_BUMP
            hi, lo = _mulhilo(even)
            # (hi of word 2 ^ word 1 ^ key 0, lo of 2, hi of 0 ^ word 3 ^ key 1, lo of 0)
            even = hi[::-1]
            even ^= odd
            even ^= key
            odd = lo[::-1]
        words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
        return words.reshape(streams, 4 * blocks)[:, :count]


def _object_rows(params: ModelParams, seed: int):
    """Yield each vertex's attached objects, in vertex order, as an intp index array.

    Vertex v reads its m uniforms from ``vertex_substream(seed, v)``, reseated
    on the thread's Philox; object w is attached when the w-th uniform falls
    below p, which ``_below`` decides on that Philox's raw words.  Each row is
    drawn in full before it is yielded, so a suspended generator holds no
    stream state that a later reseat of the thread's Philox could disturb.
    """
    philox = _PER_THREAD.philox
    m, limit = params.m, _raw_limit(params.p)
    for v in range(params.n):
        vertex_substream(seed, v, bit_generator=philox)
        yield _below(philox, (m,), limit).nonzero()[0]


def _pair_hits(params: ModelParams, seeds):
    """Yield ``pair_adjacent(sample_assignment(params, seed), 0, 1)`` per seed, in order; n >= 2.

    Vertices 0 and 1 are adjacent when some object is attached to both.
    The seeds, any iterable, are taken in groups, and the rows of streams
    (seed, 0) and (seed, 1) of a group's seeds are decided by ``_below`` on
    one ``_PhiloxStreams``, the words and the compare exactly those of
    ``_object_rows``, so the answers are too.  A group holds at most
    ``_BLOCK`` four-word blocks, so no array grows with the number of
    seeds.  Nothing is drawn at p = 1.
    """
    m, limit = params.m, _raw_limit(params.p)
    group = max(1, _BLOCK // (2 * -(-m // 4)))
    seeds = iter(seeds)
    while batch := list(islice(seeds, group)):
        keys = np.zeros((2, 2 * len(batch)), dtype=np.uint64)
        keys[0] = np.array(batch, dtype=np.uint64).repeat(2)  # streams (seed, 0) and (seed, 1)
        keys[1, 1::2] = 1
        rows = _below(_PhiloxStreams(keys), (len(keys[0]), m), limit).reshape(-1, 2, m)
        yield from (rows[:, 0] & rows[:, 1]).any(axis=1).tolist()


def sample_assignment(params: ModelParams, seed: int) -> BipartiteAssignment:
    """Draw a bipartite attachment: each (vertex, object) pair kept with probability p.

    The rows come from ``_object_rows``, so the same seed with a larger p
    attaches a superset of objects.  Each row is the strictly increasing
    in-range indices of a nonzero(), as Python ints, so the assignment is
    built by ``_unchecked`` without the constructor's per-object check.
    """
    sets = tuple([tuple(row.tolist()) for row in _object_rows(params, seed)])
    return _unchecked(BipartiteAssignment, params=params, sets=sets)


def conditional_adjacency_prob(size: int, p: float) -> float:
    """P[another vertex touches a fixed set of `size` objects] = 1 - (1-p)^size."""
    _check_int(size, "size", 0, _FLOAT_MAX)
    p = _check_prob(p, "p")
    if size == 0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(size * math.log1p(-p))


def sample_degree(params: ModelParams, seed: int) -> int:
    """Draw the degree of vertex 0 in one G(n, m, p) sample.

    Vertex 0's objects are those of the first row of ``_object_rows``: its
    m uniforms from ``vertex_substream(seed, 0)``.  Given s of them, the
    other n-1 adjacency indicators are independent Bernoulli(1 - (1-p)^s):
    indicator j is set when the j-th uniform of reserved substream index n
    falls below that share.  Each is counted on ``_below``'s decisions, m
    then n - 1 bytes, so a point too large to hold them fails with
    MemoryError before drawing; at p = 1, or a share that rounds to 1,
    every indicator is set and none is drawn or held.  No graph is built,
    and the result follows the projected-graph degree law exactly.
    """
    philox, n, m = _PER_THREAD.philox, params.n, params.m
    vertex_substream(seed, 0, bit_generator=philox)
    limit = _raw_limit(params.p)
    size = m if limit is None else int(np.count_nonzero(_below(philox, (m,), limit)))
    if n == 1 or size == 0:
        return 0
    limit = _raw_limit(conditional_adjacency_prob(size, params.p))
    vertex_substream(seed, n, bit_generator=philox)
    return n - 1 if limit is None else int(np.count_nonzero(_below(philox, (n - 1,), limit)))


def pair_adjacent(assignment: BipartiteAssignment, i: int, j: int) -> bool:
    """True when vertices i and j share at least one object."""
    n = assignment.params.n
    for v in (i, j):
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"vertex index {v!r} outside [0, {n})")
    if i == j:
        raise ValueError(f"adjacency is undefined for a vertex with itself (i=j={i})")
    return not set(assignment.sets[i]).isdisjoint(assignment.sets[j])


def project(assignment: BipartiteAssignment) -> IntersectionGraph:
    """Project the bipartite attachment to the intersection graph.

    Uses an inverted object-to-owners index, so the cost is the sum of
    squared object degrees rather than n**2 set intersections.  The edges are
    pairs of the assignment's checked vertex indices, canonical by
    construction, so the graph is built by ``_unchecked``.
    """
    owners: list[list[int]] = [[] for _ in range(assignment.params.m)]
    for v, objects in enumerate(assignment.sets):
        for w in objects:
            owners[w].append(v)
    edges: set[tuple[int, int]] = set()
    for vs in owners:
        # vertices were appended in increasing order, so pairs are canonical
        edges.update(combinations(vs, 2))
    return _unchecked(IntersectionGraph, n=assignment.params.n, edges=frozenset(edges))


def _rows_connected(params: ModelParams, rows) -> bool:
    """True when the vertex-object graph of these object rows joins all n vertices.

    `rows` gives each vertex's objects in vertex order, as the arrays of
    ``_object_rows`` or the tuples of ``BipartiteAssignment.sets``, read
    lazily: when n > 1 an empty row is an isolated vertex, so the answer is
    False and no later row is read.  Otherwise vertex v is node v and object
    w is node n + w, and the components are found by hooking and pointer
    jumping (Shiloach and Vishkin, 1982).  Each node's label is a node of its
    component no larger than itself, so the labels form a forest whose roots
    label themselves.  A round hooks, for each edge, the larger of its two
    ends' roots onto the smaller, then jumps every label to its root; the
    rounds stop when every edge joins a single root.  The graph is connected
    exactly when every vertex's root is node 0.
    """
    n, m = params.n, params.m
    kept = []
    for row in rows:
        if not len(row) and n > 1:
            return False
        kept.append(row)
    vertices = np.repeat(np.arange(n), [len(row) for row in kept])
    objects = np.concatenate(kept).astype(np.intp, copy=False) + n
    labels = np.arange(n + m)
    while True:
        a, b = labels[vertices], labels[objects]
        if np.array_equal(a, b):
            return not labels[:n].any()
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def is_connected(assignment: BipartiteAssignment) -> bool:
    """True when the intersection graph of the assignment is connected.

    Two vertices are adjacent exactly when their object sets intersect, so
    the graph is connected exactly when the bipartite vertex-object graph
    joins all n vertices.  Only vertex labels count: an object nobody picked
    is a component of its own and disconnects nothing, while a vertex with
    no objects is isolated.  n=1 counts as connected.
    """
    return _rows_connected(assignment.params, assignment.sets)


def sample_connected(params: ModelParams, seed: int) -> bool:
    """is_connected(sample_assignment(params, seed)), drawn up to the first isolated vertex only."""
    return _rows_connected(params, _object_rows(params, seed))


def _rig_text(params: ModelParams, seed: int, body_lines) -> str:
    """The `# rig ...` header, the `# riglab <version>` line, then `body_lines`, one per line."""
    _check_int(seed, "seed")
    header = f"# rig n={params.n} m={params.m} p={params.p!r} seed={seed}"
    return "\n".join([header, f"# riglab {__version__}", *body_lines]) + "\n"


def _rig_int(field: str, what: str, line: str) -> int:
    """One integer field of `line`, written as the writers print integers."""
    if not _INT_RE.fullmatch(field):
        raise ValueError(f"{what}: malformed line {line!r}")
    return int(field)


def _read_rig(text: str, what: str) -> tuple[ModelParams, int, list[str]]:
    """Params, seed and body; the first header counts, blank and other `#` lines are skipped.

    Only blank and `#` lines may come before the header; a data line there is an error.
    Every error message starts with `what`.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    for line in lines:
        match = _HEADER_RE.match(line)
        if match:
            n, m, seed = (_rig_int(match[key], what, line) for key in ("n", "m", "seed"))
            try:
                p = float(match["p"])
            except ValueError:
                p = None
            # p as repr(float) writes it; float() would also take 0.5_0, +.5 and non-ASCII digits
            _require(p is not None and repr(p) == match["p"], f"{what}: malformed line {line!r}")
            body = [line for line in lines if not line.startswith("#")]
            return _prefixed(f"{what}: ", ModelParams, n, m, p), seed, body
        if not line.startswith("#"):
            raise ValueError(f"{what}: line {line!r} before the `# rig ...` header")
    raise ValueError(f"{what}: missing `# rig n=... m=... p=... seed=...` header")


def format_edgelist(graph: IntersectionGraph, params: ModelParams, seed: int) -> str:
    """Render a graph as the `# rig ...` header, the version line and one `i j` line per edge.

    Edges appear in ascending lexicographic order with i < j.
    """
    if graph.n != params.n:
        raise ValueError(f"graph has n={graph.n} but params have n={params.n}")
    return _rig_text(params, seed, [f"{i} {j}" for i, j in sorted(graph.edges)])


def parse_edgelist(text: str) -> tuple[IntersectionGraph, ModelParams, int]:
    """Parse ``format_edgelist`` output back into a graph.

    Returns the graph together with the header parameters and seed.
    """
    params, seed, body = _read_rig(text, "edge list")
    edges = set()
    for line in body:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"edge list: malformed line {line!r}")
        edge = tuple(_rig_int(field, "edge list", line) for field in fields)
        if edge in edges:
            raise ValueError(f"edge list: duplicate edge {line!r}")
        edges.add(edge)
    graph = _prefixed("edge list: ", IntersectionGraph, params.n, frozenset(edges))
    return graph, params, seed


def format_assignment(assignment: BipartiteAssignment, seed: int) -> str:
    """Render per-vertex object sets, one `v: w1 w2 ...` line per vertex."""
    rows = []
    for v, objects in enumerate(assignment.sets):
        body = " ".join(str(w) for w in objects)
        rows.append(f"{v}: {body}".rstrip())
    return _rig_text(assignment.params, seed, rows)


def parse_assignment(text: str) -> tuple[BipartiteAssignment, int]:
    """Parse ``format_assignment`` output back into an assignment."""
    params, seed, body = _read_rig(text, "assignment")
    sets: dict[int, tuple[int, ...]] = {}
    for line in body:
        head, _, tail = line.partition(":")
        if not _:
            raise ValueError(f"assignment: malformed line {line!r}")
        v = _rig_int(head.strip(), "assignment", line)
        if v in sets:
            raise ValueError(f"assignment: duplicate vertex {v}")
        sets[v] = tuple(_rig_int(w, "assignment", line) for w in tail.split())
    if sorted(sets) != list(range(params.n)):
        raise ValueError("assignment: vertex lines do not cover 0..n-1 exactly")
    ordered = tuple(sets[v] for v in range(params.n))
    return _prefixed("assignment: ", BipartiteAssignment, params, ordered), seed
