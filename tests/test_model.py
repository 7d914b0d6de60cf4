import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riglab import (
    __version__,
    BipartiteAssignment,
    IntersectionGraph,
    ModelParams,
    conditional_adjacency_prob,
    format_assignment,
    format_edgelist,
    is_connected,
    pair_adjacent,
    parse_assignment,
    parse_edgelist,
    project,
    sample_assignment,
    sample_connected,
    sample_degree,
    vertex_substream,
)

import riglab.model
from riglab.model import (
    _BLOCK, _LANE_BLOCKS, _PER_THREAD, _below, _pair_hits, _philox, _raw_limit,
)
from riglab.montecarlo import _BATCH_OBJECTS, derive_trial_seed

from oracles import pairwise_project, philox4x64_block, philox4x64_raw, reachability_connected


# ---------------------------------------------------------------- parameters

# vertices 0 and 1 share object 2; vertex 2 shares nothing
_THREE = BipartiteAssignment(ModelParams(3, 4, 0.5), ((0, 2), (2, 3), (1,)))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ModelParams(n=0, m=1, p=0.5), "n must be an integer >= 1, got 0",
                     id="n-zero"),
        pytest.param(lambda: ModelParams(n=-3, m=1, p=0.5), "n must be an integer >= 1, got -3",
                     id="n-negative"),
        pytest.param(lambda: ModelParams(n=1, m=0, p=0.5), "m must be an integer >= 1, got 0",
                     id="m-zero"),
        pytest.param(lambda: ModelParams(n=1, m=1, p=-0.1), "p must lie in [0, 1], got -0.1",
                     id="p-negative"),
        pytest.param(lambda: ModelParams(n=1, m=1, p=1.0001), "p must lie in [0, 1], got 1.0001",
                     id="p-above-1"),
        pytest.param(lambda: ModelParams(n=1, m=1, p=math.nan),
                     "p must be a finite real number, got nan", id="p-nan"),
        pytest.param(lambda: ModelParams(n=2.0, m=1, p=0.5), "n must be an integer, got 2.0",
                     id="n-float"),
        pytest.param(lambda: BipartiteAssignment(ModelParams(2, 3, 0.5), ((0,),)),
                     "expected 2 object sets, got 1", id="set-count"),
        pytest.param(lambda: BipartiteAssignment(ModelParams(2, 3, 0.5), ((0, 0), ())),
                     "vertex 0: object indices must be strictly increasing", id="repeated-object"),
        pytest.param(lambda: BipartiteAssignment(ModelParams(2, 3, 0.5), ((2, 1), ())),
                     "vertex 0: object indices must be strictly increasing",
                     id="decreasing-objects"),
        pytest.param(lambda: BipartiteAssignment(ModelParams(2, 3, 0.5), ((3,), ())),
                     "vertex 0: object index 3 outside [0, 3)", id="object-past-m"),
        # a bool is not an index
        pytest.param(lambda: BipartiteAssignment(ModelParams(2, 3, 0.5), ((True,), ())),
                     "vertex 0: object index True outside [0, 3)", id="bool-object"),
        pytest.param(lambda: IntersectionGraph(n=3, edges=frozenset({(1, 1)})),
                     "edge (1, 1) is not canonical for n=3", id="self-loop"),
        pytest.param(lambda: IntersectionGraph(n=3, edges=frozenset({(2, 1)})),
                     "edge (2, 1) is not canonical for n=3", id="reversed-edge"),
        pytest.param(lambda: IntersectionGraph(n=3, edges=frozenset({(0, 3)})),
                     "edge (0, 3) is not canonical for n=3", id="edge-past-n"),
        pytest.param(lambda: IntersectionGraph(n=3, edges=frozenset({1})),
                     "edge 1 is not canonical for n=3", id="edge-not-a-pair"),
        pytest.param(lambda: IntersectionGraph(n=3, edges=frozenset({(None, 2)})),
                     "edge (None, 2) is not canonical for n=3", id="edge-not-comparable"),
        pytest.param(lambda: pair_adjacent(_THREE, 1, 1),
                     "adjacency is undefined for a vertex with itself (i=j=1)",
                     id="pair-with-itself"),
        pytest.param(lambda: pair_adjacent(_THREE, 0, 3), "vertex index 3 outside [0, 3)",
                     id="pair-past-n"),
        pytest.param(lambda: pair_adjacent(_THREE, -1, 0), "vertex index -1 outside [0, 3)",
                     id="pair-negative"),
        # bools are not vertex indices
        pytest.param(lambda: pair_adjacent(_THREE, False, True),
                     "vertex index False outside [0, 3)", id="pair-of-bools"),
    ],
)
def test_bad_values_are_rejected_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_params_accepts_boundaries():
    assert ModelParams(1, 1, 0.0).p == 0.0
    assert ModelParams(1, 1, 1.0).p == 1.0
    assert ModelParams(1, 1, 1).p == 1.0  # integer probability is coerced


def test_graph_rejects_non_canonical_edges():
    # each would be written as a line that parse_edgelist rejects
    for edge in ((0.5, 1), (False, True), (0, 1.0)):
        with pytest.raises(ValueError, match="is not canonical"):
            IntersectionGraph(n=3, edges=frozenset({edge}))


# ------------------------------------------------------------------ sampling

def _uniform(word: int) -> float:
    """Generator.random's uniform from one raw 64-bit word."""
    return (word >> 11) * 2**-53


def _assert_follows_independent_philox(make_stream, seed, index):
    # 11 words span three blocks, so the counter increments are checked too;
    # a uint32 draw takes a word's low half, then its high half
    raw = philox4x64_raw(seed, index, 11)
    halves = [half for w in raw[:2] for half in (w & 0xFFFFFFFF, w >> 32)]
    assert make_stream().bit_generator.random_raw(11).tolist() == raw
    assert make_stream().random(11).tolist() == [_uniform(w) for w in raw]
    assert make_stream().integers(0, 2**32, size=4, dtype=np.uint32).tolist() == halves


# (seed, index) keys for the stream contract; seed 2**64 - 1 fills the key's first word
_PHILOX_KEYS = [(7, 3), (123456789, 40000), (0, 0), (2**64 - 1, 5), (2**64 - 1, 2**64 - 1)]


@pytest.mark.parametrize(("seed", "index"), _PHILOX_KEYS)
def test_substream_matches_independent_philox(seed, index):
    _assert_follows_independent_philox(lambda: vertex_substream(seed, index), seed, index)


@pytest.mark.parametrize("leftover", ["fresh", "mid-buffer", "after-uint32", "thread-philox"])
@pytest.mark.parametrize("index", [0, 1, 7, 1600])  # 1600: sample_degree's reserved index at n=1600
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 + 3, -5])
def test_reseated_substream_matches_fresh_philox(seed, index, leftover):
    # a passed-in Philox's buffer, counter and pending uint32 must all be dropped,
    # so the stream is the independent oracle's words for a fresh key; handed the
    # thread's own Philox, the thread's one Generator must draw on it
    def reseated():
        if leftover == "thread-philox":
            philox = _PER_THREAD.philox
            np.random.Generator(philox).random(3)
            return vertex_substream(seed, index, bit_generator=philox)
        philox = np.random.Philox(key=12345)
        if leftover == "mid-buffer":
            np.random.Generator(philox).random(3)
        elif leftover == "after-uint32":
            np.random.Generator(philox).integers(0, 2**32, dtype=np.uint32)
        return vertex_substream(seed, index, bit_generator=philox)

    _assert_follows_independent_philox(reseated, seed, index)


def test_independent_philox_pinned_words():
    # literals, so the oracle and numpy cannot drift together unseen
    assert philox4x64_raw(7, 3, 6) == [
        0x7B6CC7B1862CC5F2, 0xB960F2EA4B3F8D9F, 0x0CDD72E015DEB1A6, 0x50EDB0D22A6A6FD5,
        0xAE45891BF7AB4DF3, 0x32005AAE5C700F2C,
    ]
    assert philox4x64_raw(123456789, 40000, 1) == [0x99DEBBEBE042B78F]
    assert philox4x64_raw(2**64 - 1, 2**64 - 1, 1) == [0x6D46CC0E71F0BE7E]


# p at the edges of the raw-word compare: the least subnormal, the least
# uniform step, and the largest float below 1
_EDGE_PS = [0.0, 5e-324, 1e-300, 2**-53, 0.3, 0.5, 1 - 2**-53, 1.0]


class _RawWords:
    """A stand-in bit generator that hands out the given raw words, in turn, to successive draws."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.drawn = 0

    def random_raw(self, shape):
        (count,) = shape
        assert self.drawn + count <= len(self.words)
        self.drawn += count
        return self.words[self.drawn - count : self.drawn]


@pytest.mark.parametrize("p", _EDGE_PS)
def test_raw_compare_matches_the_uniform_compare_at_the_bound(p):
    # the first word whose uniform is not below p, worked out in rationals
    limit = math.ceil(Fraction(p) * 2**53) * 2**11
    words = [w for w in (0, limit - 1, limit, limit + 1, 2**64 - 1) if 0 <= w < 2**64]
    below = [_uniform(w) < p for w in words]
    assert _below(_RawWords(words).random_raw, (len(words),), _raw_limit(p)).tolist() == below
    assert below == [w < limit for w in words]
    # the degree counts: within one block, and over two blocks with the
    # bound words on both sides of the seam
    counted = _below(_RawWords(words).random_raw, (len(words),), _raw_limit(p))
    assert np.count_nonzero(counted) == sum(below)
    stream = [0] * (_BLOCK - len(words)) + words + words
    expected = sum(_uniform(w) < p for w in stream)
    counted = _below(_RawWords(stream).random_raw, (len(stream),), _raw_limit(p))
    assert np.count_nonzero(counted) == expected


@pytest.mark.parametrize("p", [5e-324, 0.5])
def test_below_makes_its_decision_array_before_the_first_draw(p):
    # 2**59 - 1 decisions cannot be held; the stand-in fails any draw at all
    with pytest.raises(MemoryError):
        _below(_RawWords([]).random_raw, (2**59 - 1,), _raw_limit(p))


@pytest.mark.parametrize("p", _EDGE_PS)
@pytest.mark.parametrize("seed", [11, 2**64 - 1])
def test_object_rows_follow_independent_philox(seed, p):
    # vertex v attaches object w exactly when the w-th uniform of stream (seed, v)
    # is below p, whatever n is; sample_assignment skips the constructor's check,
    # so the validating constructor must take its sets as they are (exact ints)
    for n in (3, 10):
        a = sample_assignment(ModelParams(n, 13, p), seed)
        assert BipartiteAssignment(a.params, a.sets) == a
        for v, objects in enumerate(a.sets):
            uniforms = [_uniform(w) for w in philox4x64_raw(seed, v, 13)]
            assert list(objects) == [w for w, u in enumerate(uniforms) if u < p]
    # rows longer than one block, read through _below's blocks, the last one partial
    m = _BLOCK + 13
    for v, objects in enumerate(sample_assignment(ModelParams(2, m, p), seed).sets):
        uniforms = [_uniform(w) for w in philox4x64_raw(seed, v, m)]
        assert list(objects) == [w for w, u in enumerate(uniforms) if u < p]


# (n, m, p): at (9, 200, 0.5) and (9, 80, 1.0) vertex 0's share rounds to 1;
# (1, 5, 0.9) has no other vertex and at (6, 3, 0.0) vertex 0 has no objects;
# (20000, 17000, 0.0064) draws both streams in 8192-word blocks, the last one
# partial; its share is near 0.5, so a word lost at a seam of stream n's
# blocks moves the degree half the time
@pytest.mark.parametrize(
    ("n", "m", "p"),
    [(40, 13, 1e-300), (40, 13, 0.3), (9, 200, 0.5), (9, 80, 1.0), (200, 5, 0.05),
     (1, 5, 0.9), (6, 3, 0.0), (20000, 17000, 0.0064)],
)
@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_sample_degree_follows_independent_philox(n, m, p, seed):
    size = sum(_uniform(w) < p for w in philox4x64_raw(seed, 0, m))
    share = conditional_adjacency_prob(size, p)
    assert (share == 1.0) == (m in (80, 200))
    expected = sum(_uniform(w) < share for w in philox4x64_raw(seed, n, n - 1)) if size else 0
    assert sample_degree(ModelParams(n, m, p), seed) == expected


@pytest.mark.parametrize(("n", "m", "p"), [(4, 2**59 - 1, 1.0), (2**59 - 1, 200, 0.5)])
def test_sample_degree_holds_nothing_for_a_stream_of_sure_indicators(n, m, p):
    # at p = 1 every object is attached, and at (2**59 - 1, 200, 0.5) the
    # share rounds to 1, so every indicator is set: the degree is n - 1 with
    # no decision array made, where 2**59 - 1 bytes of one could not be held
    assert [sample_degree(ModelParams(n, m, p), seed) for seed in (3, 2**64 - 1)] == [n - 1] * 2


def test_batched_philox_matches_independent_philox():
    # one call of lanes in reverse order, each a (stream, block) of the six
    # streams, at blocks inside, past and far past a row of _pair_hits; the
    # arguments are left as they were
    keys = [(seed, index) for seed in (0, 1, 2**64 - 1) for index in (0, 1)]
    lanes = [(key, block) for key in keys for block in (1, 2, 3, 7, 25, 2**20)][::-1]
    key = np.array([key for key, _ in lanes], dtype=np.uint64).T
    counter = np.array([block for _, block in lanes], dtype=np.uint64)
    given = key.copy(), counter.copy()
    expected = [philox4x64_block(seed, index, block) for (seed, index), block in lanes]
    assert _philox(key, counter).tolist() == expected
    assert np.array_equal(key, given[0]) and np.array_equal(counter, given[1])


# hand-picked seeds at p = 0.3, where the kernel keeps a (seed, block) lane
# for stream (seed, 1) only when stream (seed, 0) attaches in it: the pair's
# only shared object is word 3 of a block in which stream 0 attaches nothing
# else, or sits in the last, partial block; or the pair shares no object, yet
# a word past m in the last block is below p in both streams
_PAIR_SEEDS = {
    1: {"last": 9, "past m": 6},
    2: {"last": 6, "past m": 12},
    3: {"last": 6, "past m": 21},
    4: {"word 3": 21},
    5: {"word 3": 21, "last": 5, "past m": 11},
    17: {"word 3": 44, "last": 7, "past m": 18},
    48: {"word 3": 57, "last": 16},
    49: {"word 3": 57, "last": 947, "past m": 559},
    50: {"word 3": 57, "last": 559, "past m": 1125},
    52: {"word 3": 144, "last": 559},
    53: {"word 3": 551, "last": 440, "past m": 210},
    100: {"word 3": 7987},
    101: {"word 3": 7987, "last": 390410, "past m": 58572},
    128: {"word 3": 149126},
    512: {},  # at p = 0.3 two rows of 512 objects share about 46
}


@pytest.mark.parametrize("p", [0.0, 5e-324, 0.3, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 17, 48, 49, 50, 52, 53, 100, 101, 128, 512])
def test_batched_pair_trials_match_the_assignment(m, p):
    # 2000 seeds cross _pair_hits' groups of _BLOCK // ceil(m / 4) seeds at
    # m >= 17; stream (seed, 0) is computed in lanes up to m = 48 and drawn
    # row by row from m = 49, and m = 512 is the batch rule's bound.  The
    # first 16 seeds, the hand-picked ones among them, are also decided on
    # the independent oracle's words, which share no code with _below or
    # _raw_limit
    assert 4 * _LANE_BLOCKS == 48 and _BATCH_OBJECTS == 512
    params = ModelParams(2, m, p)
    seeds = [*_PAIR_SEEDS[m].values(), 0, 2**64 - 1, *(int(s) for s in np.random.default_rng(m).integers(
        0, 2**64, size=1998, dtype=np.uint64))]
    expected = [pair_adjacent(sample_assignment(params, seed), 0, 1) for seed in seeds]
    hits = list(_pair_hits(params, seeds))
    assert hits == expected
    words = 4 * -(-m // 4)  # whole four-word blocks, so the last one's words past m too
    kinds = {seed: kind for kind, seed in _PAIR_SEEDS[m].items()} if p == 0.3 else {}
    for seed, hit in zip(seeds[:16], hits):
        rows = [[_uniform(w) < p for w in philox4x64_raw(seed, v, words)] for v in (0, 1)]
        shared = [w for w, (a, b) in enumerate(zip(*rows)) if a and b]
        inside = [w for w in shared if w < m]
        assert hit == bool(inside), seed
        kind = kinds.get(seed)
        if kind == "past m":
            assert shared and not inside
        elif kind:
            [w] = inside
            assert w >= words - 4 if kind == "last" else w % 4 == 3 and not any(rows[0][w - 3 : w])
    if p != 0.3:
        assert set(expected) == {p == 1.0}


def test_batched_pair_trials_stop_at_one_block():
    # the kernel serves rows of at most _BLOCK words: the batch rule's rows
    # of 512 words (groups of 64 seeds) and rows of _BLOCK words (groups of
    # 4 seeds), over 130 seeds, are decided as the assignment decides them,
    # and a longer row raises
    assert _BATCH_OBJECTS == 512 and _BATCH_OBJECTS <= _BLOCK
    for m in (_BATCH_OBJECTS, _BLOCK):
        params = ModelParams(2, m, 1 / math.isqrt(m))  # about 0.6 of the pairs adjacent
        seeds = range(130)
        expected = [pair_adjacent(sample_assignment(params, seed), 0, 1) for seed in seeds]
        assert list(_pair_hits(params, seeds)) == expected
        assert len(set(expected)) == 2
    with pytest.raises(ValueError):
        list(_pair_hits(ModelParams(2, _BLOCK + 1, 0.5), range(3)))


def test_long_rows_reseat_the_threads_philox_for_stream_0_only(monkeypatch):
    # rows of up to _LANE_BLOCKS blocks are computed in _philox lanes, with
    # no reseat; a longer row's stream (seed, 0) is drawn from the thread's
    # Philox, one reseat per seed in seed order, and stream (seed, 1) stays
    # on lanes, at fewer lanes than stream 0 has blocks
    reseats, passes = [], []
    substream, philox = riglab.model.vertex_substream, riglab.model._philox

    def recording_substream(seed, index, *, bit_generator=None):
        reseats.append((seed, index, bit_generator is _PER_THREAD.philox))
        return substream(seed, index, bit_generator=bit_generator)

    def recording_philox(key, counter):
        passes.append((set(key[1].tolist()), len(counter)))
        return philox(key, counter)

    monkeypatch.setattr(riglab.model, "vertex_substream", recording_substream)
    monkeypatch.setattr(riglab.model, "_philox", recording_philox)
    seeds = [*range(300), 2**64 - 1]
    for m in (4 * _LANE_BLOCKS, 4 * _LANE_BLOCKS + 1):
        params = ModelParams(2, m, 0.02)
        reseats.clear()
        passes.clear()
        hits = list(_pair_hits(params, seeds))
        kernel_reseats, kernel_passes = reseats[:], passes[:]
        assert hits == [pair_adjacent(sample_assignment(params, seed), 0, 1) for seed in seeds]
        assert 0 < sum(hits) < len(seeds)
        if m <= 4 * _LANE_BLOCKS:
            assert kernel_reseats == [] and len(kernel_passes) == 2
            assert kernel_passes[0] == ({0}, m // 4 * len(seeds))
            assert kernel_passes[1][0] == {1}
        else:
            assert kernel_reseats == [(seed, 0, True) for seed in seeds]
            [(indices, lanes)] = kernel_passes
            assert indices == {1} and 0 < lanes < -(-m // 4) * len(seeds)


def test_batched_pair_trials_draw_nothing_at_p_one(monkeypatch):
    def no_draw(key, counter):
        raise AssertionError("drew at p = 1")

    monkeypatch.setattr(riglab.model, "_philox", no_draw)
    assert list(_pair_hits(ModelParams(2, 7, 1.0), range(300))) == [True] * 300


def test_plain_substream_survives_internal_sampling():
    # the samplers reseat a shared per-thread Philox; a caller's own stream must not move
    stream = vertex_substream(77, 3)
    first = stream.random(5)
    sample_assignment(ModelParams(4, 9, 0.5), 77)
    sample_degree(ModelParams(50, 9, 0.5), 77)
    second = stream.random(5)
    expected = [_uniform(w) for w in philox4x64_raw(77, 3, 10)]
    assert np.concatenate([first, second]).tolist() == expected


@given(
    p_small=st.floats(min_value=0.0, max_value=1.0),
    p_large=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**63),
)
@settings(max_examples=60, deadline=None)
def test_probability_coupling_is_monotone(p_small, p_large, seed):
    if p_small > p_large:
        p_small, p_large = p_large, p_small
    lo = sample_assignment(ModelParams(5, 4, p_small), seed)
    hi = sample_assignment(ModelParams(5, 4, p_large), seed)
    for sl, sh in zip(lo.sets, hi.sets):
        assert set(sl) <= set(sh)
    assert project(lo).edges <= project(hi).edges


# ---------------------------------------------------------------- projection

def test_pair_adjacent_basics():
    assert pair_adjacent(_THREE, 0, 1)
    assert pair_adjacent(_THREE, 1, 0)
    assert not pair_adjacent(_THREE, 0, 2)


def test_projection_extremes():
    assert project(sample_assignment(ModelParams(5, 3, 0.0), 7)).edges == frozenset()
    complete = project(sample_assignment(ModelParams(5, 3, 1.0), 7))
    assert len(complete.edges) == 10


def test_projection_matches_pairwise_oracle():
    for seed in range(200):
        a = sample_assignment(ModelParams(6, 3, 0.5), seed)
        assert project(a) == pairwise_project(a)


# -------------------------------------------------------------- connectivity

def _assignment(m, *sets):
    return BipartiteAssignment(params=ModelParams(n=len(sets), m=m, p=0.5), sets=sets)


def test_single_vertex_is_connected():
    assert is_connected(_assignment(3, ()))
    assert is_connected(_assignment(3, (0, 2)))


def test_connectivity_examples():
    # two vertices that share no object
    assert not is_connected(_assignment(2, (0,), (1,)))
    assert is_connected(_assignment(2, (0, 1), (1,)))
    # a vertex with an empty object set is isolated
    assert not is_connected(_assignment(2, (0,), (0,), ()))
    # a path 0 - 1 - 2 - 3 through objects 0, 1, 2
    assert is_connected(_assignment(3, (0,), (0, 1), (1, 2), (2,)))
    assert not is_connected(_assignment(3, (0,), (0,), (2,), (2,)))
    # objects nobody owns disconnect nothing
    assert is_connected(_assignment(3, (1,), (1,)))


def test_connectivity_matches_reachability_closure():
    # includes m > n with unowned objects, both degenerate p, and n = 1
    # without objects (p = 0) and with them; the connectivity trial, which
    # stops sampling at the first empty set, must agree as well
    shapes = ((8, 3, 0.35), (5, 12, 0.15), (6, 4, 0.0), (6, 4, 1.0),
              (1, 4, 0.0), (1, 4, 1.0), (1, 5, 0.5))
    for n, m, p in shapes:
        params = ModelParams(n, m, p)
        for seed in range(300):
            a = sample_assignment(params, seed)
            graph = pairwise_project(a)
            connected = reachability_connected(graph)
            assert is_connected(a) == connected
            assert sample_connected(params, seed) == connected
            for i, j in combinations(range(n), 2):
                assert pair_adjacent(a, i, j) == ((i, j) in graph.edges)


# The cases below have no empty object set, so the exit at the first isolated
# vertex cannot decide them and the component labelling must.

def _oracle_connected(assignment):
    return reachability_connected(pairwise_project(assignment))


@pytest.mark.parametrize(
    "m, sets",
    [
        # two components of two vertices, interleaved in vertex order
        (2, ((0,), (1,), (0,), (1,))),
        # three components, vertex 0's the smallest
        (6, ((5,), (0, 1), (2,), (1,), (2, 3), (0,), (3,), (4,), (4,))),
        # joined only through the last vertex
        (4, ((0,), (1,), (2,), (3,), (0, 1, 2, 3))),
        # the same without that vertex's last object
        (4, ((0,), (1,), (2,), (3,), (0, 1, 2))),
        # a chain whose objects run against the vertex order
        (5, ((4,), (3, 4), (2, 3), (1, 2), (0, 1))),
        (5, ((4,), (3, 4), (2, 3), (1,), (0, 1))),
    ],
)
def test_connectivity_with_no_isolated_vertex(m, sets):
    a = _assignment(m, *sets)
    assert all(a.sets)
    assert is_connected(a) == _oracle_connected(a)


@pytest.mark.parametrize(("last", "connected"), [((999_996, 999_999), True), ((999_996,), False)])
def test_connectivity_with_high_unowned_objects(last, connected):
    # m much larger than n: object 0 and a few near the top are owned, the rest unowned
    a = _assignment(10**6, (999_992,), (999_992, 999_999), (999_999,), (0, 999_996), last)
    assert _oracle_connected(a) is connected
    assert is_connected(a) is connected


@pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
@pytest.mark.parametrize("n", [200, 2000])
def test_connectivity_of_a_path_in_any_vertex_order(n, order):
    # vertex v holds objects v - 1 and v, so labels must travel the path's
    # whole length, one way or the other
    path = [tuple(w for w in (v - 1, v) if 0 <= w < n - 1) for v in range(n)]
    if order == "reversed":
        path.reverse()
    elif order == "shuffled":
        path = [path[v] for v in np.random.default_rng(n).permutation(n).tolist()]
    cut = [tuple(w for w in objects if w != n // 3) for objects in path]
    for sets, connected in ((path, True), (cut, False)):
        a = _assignment(n, *sets)
        assert is_connected(a) is connected
        if n < 256:
            # the matrix oracle is cubic in n
            assert _oracle_connected(a) is connected


@pytest.mark.parametrize("n", [256, 300])
def test_reachability_oracle_past_255_vertices(n):
    # on K256 every entry of (I + A)^2 is 256, which a uint8 product wraps to 0
    complete = IntersectionGraph(n, frozenset(combinations(range(n), 2)))
    path = IntersectionGraph(n, frozenset((v, v + 1) for v in range(n - 1)))
    cut = IntersectionGraph(n, path.edges - {(n // 3, n // 3 + 1)})
    assert reachability_connected(complete)
    assert reachability_connected(path)
    assert not reachability_connected(cut)


def test_connectivity_near_the_threshold_without_isolated_vertices():
    # m * p between log(n) and 2 log(n): vertices rarely lack objects, yet the
    # graph is often split
    rng = np.random.default_rng(2024)
    split = joined = 0
    for seed in range(400):
        n, m = (int(x) for x in rng.integers(2, 61, 2))
        params = ModelParams(n, m, min(1.0, math.log(n) / m * float(rng.uniform(1.0, 2.0))))
        a = sample_assignment(params, seed)
        connected = _oracle_connected(a)
        assert is_connected(a) == sample_connected(params, seed) == connected
        if all(a.sets):
            split += not connected
            joined += connected
    assert split >= 25 and joined >= 100, (split, joined)


def _read_connected(monkeypatch, params, seed):
    """sample_connected's answer, (vertex, raw words read) per reseat, each labelling's n, the sets.

    The reseats are listed in order.  The answer is checked against
    ``is_connected`` of the sampled assignment, whose object sets are returned.
    """
    assignment = sample_assignment(params, seed)
    reads, labelled = [], []
    reseat, below, label = (
        riglab.model.vertex_substream, riglab.model._below, riglab.model._rows_connected)

    def reseating(seed, index, **kwargs):
        reads.append([index, 0])
        return reseat(seed, index, **kwargs)

    def reading(draw, shape, limit):
        reads[-1][1] += shape[-1]
        return below(draw, shape, limit)

    def labelling(n, m, rows):
        labelled.append(n)
        return label(n, m, rows)

    with monkeypatch.context() as patch:
        patch.setattr(riglab.model, "vertex_substream", reseating)
        patch.setattr(riglab.model, "_below", reading)
        patch.setattr(riglab.model, "_rows_connected", labelling)
        answer = sample_connected(params, seed)
    assert answer == is_connected(assignment)
    return answer, [tuple(read) for read in reads], labelled, assignment.sets


def _later_reads(params, sets, owned_at):
    """[vertex, words] per vertex read once the first `owned_at` rows own every object and are joined.

    Those rows are read in full; each later row in steps of int(2/p) words,
    capped at m, up to the step holding its first attachment, and an empty
    row, read in full, is the last one read.
    """
    m = params.m
    step = int(min(m, _BLOCK, 2 / params.p))
    reads = []
    for v, objects in enumerate(sets):
        first = objects[0] if objects else m - 1
        reads.append((v, m if v < owned_at else min(m, (first // step + 1) * step)))
        if not objects:
            break
    return reads


def _owned_at(params, sets):
    """The first multiple of 8 rows that own every object, or None."""
    owned = set()
    for v, objects in enumerate(sets, 1):
        owned.update(objects)
        if v % 8 == 0 and len(owned) == params.m:
            return v
    return None


def test_sample_connected_reads_later_rows_to_their_first_attachment_once_joined(monkeypatch):
    # at n = m = 400 and alpha = 0.3, p is about 0.0203, so rows are read in
    # 98-word steps once every object is owned, after about (ln m)/p = 295 rows
    params = ModelParams(400, 400, 400 ** -0.65)
    joined = 0
    for seed in range(10):
        answer, reads, labelled, sets = _read_connected(monkeypatch, params, seed)
        owned_at = _owned_at(params, sets)
        if owned_at is not None and all(sets[:owned_at]):
            assert labelled == [owned_at]  # the rows that own every object are joined
            assert reads == _later_reads(params, sets, owned_at)
            joined += answer
    assert joined >= 7


def test_sample_connected_answers_false_at_an_empty_later_row(monkeypatch):
    # m = 4 and p = 0.7: every object is owned within 8 rows, the rows are
    # joined, and 1 row in 123 is empty; later rows are read 2 words at a time
    params = ModelParams(300, 4, 0.7)
    stopped = 0
    for seed in range(10):
        answer, reads, labelled, sets = _read_connected(monkeypatch, params, seed)
        first_empty = next((v for v, objects in enumerate(sets) if not objects), params.n)
        if labelled == [8] and 8 <= first_empty < params.n:
            assert answer is False
            assert reads == _later_reads(params, sets, 8)
            stopped += 1
    assert stopped >= 7


def test_sample_connected_goes_on_with_full_rows_when_the_owning_rows_are_split(monkeypatch):
    # m = 2 and p = 0.5: 1 seed in about 256 has its first 8 rows each holding
    # one object, both objects owned, so those vertices form two components
    # and later rows are read in full, up to the first empty one
    params = ModelParams(12, 2, 0.5)
    seeds = [s for s in range(2000)
             if set(sample_assignment(ModelParams(8, 2, 0.5), s).sets) == {(0,), (1,)}]
    outcomes = set()
    for seed in seeds:
        answer, reads, labelled, sets = _read_connected(monkeypatch, params, seed)
        first_empty = next((v for v, objects in enumerate(sets) if not objects), None)
        assert labelled == [8, params.n]
        last = params.n - 1 if first_empty is None else first_empty
        assert reads == [(v, 2) for v in range(last + 1)]
        outcomes.add((answer, first_empty is None))
    assert len(seeds) >= 5
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_sample_connected_reads_full_rows_while_some_object_is_unowned(monkeypatch):
    # 20 rows of about 20 objects each leave about a third of m = 400 unowned
    params = ModelParams(20, 400, 0.05)
    connected = 0
    for seed in range(5):
        answer, reads, labelled, sets = _read_connected(monkeypatch, params, seed)
        assert _owned_at(params, sets) is None
        assert labelled == [params.n]
        assert reads == [(v, 400) for v in range(params.n)]
        connected += answer
    assert connected == 5


@pytest.mark.parametrize(("trial", "words"), [(0, 1_460_642), (1, 1_515_002)])
def test_sample_connected_raw_words_at_the_dense_workload_point(monkeypatch, trial, words):
    # n = m = 1600, alpha = 0.3: the words read are a pure function of the
    # seed; drawing every row would read n * m = 2 560 000
    params = ModelParams(1600, 1600, 1600 ** -0.65)
    seed = derive_trial_seed(0, 3, trial)
    answer, reads, _, _ = _read_connected(monkeypatch, params, seed)
    assert answer is True
    assert [v for v, _ in reads] == list(range(params.n))
    assert sum(count for _, count in reads) == words < params.n * params.m


# ------------------------------------------------------------------- formats

def test_edgelist_round_trip():
    params = ModelParams(6, 4, 0.45)
    assignment = sample_assignment(params, 17)
    graph = project(assignment)
    text = format_edgelist(graph, params, 17)
    assert text.splitlines()[1] == f"# riglab {__version__}"
    parsed, parsed_params, parsed_seed = parse_edgelist(text)
    assert parsed == graph
    assert parsed_params == params
    assert parsed_seed == 17
    with pytest.raises(ValueError, match="graph has n=6 but params have n=7"):
        format_edgelist(graph, ModelParams(7, 4, 0.45), 17)
    for seed in (True, 1.5):  # the header would read `seed=True`, which the reader rejects
        with pytest.raises(ValueError, match="seed must be an integer"):
            format_edgelist(graph, params, seed)


def test_edgelist_header_and_order():
    params = ModelParams(4, 2, 1.0)
    graph = project(sample_assignment(params, 3))
    text = format_edgelist(graph, params, 3)
    lines = text.splitlines()
    assert lines[0] == "# rig n=4 m=2 p=1.0 seed=3"
    body = [line for line in lines if not line.startswith("#")]
    assert body == sorted(body, key=lambda s: tuple(map(int, s.split())))
    assert len(body) == 6


def test_assignment_round_trip():
    params = ModelParams(5, 6, 0.3)
    assignment = sample_assignment(params, 8)
    text = format_assignment(assignment, 8)
    assert text.splitlines()[:2] == ["# rig n=5 m=6 p=0.3 seed=8", f"# riglab {__version__}"]
    parsed, seed = parse_assignment(text)
    assert parsed == assignment
    assert seed == 8
    # empty sets must survive the trip
    sparse = sample_assignment(ModelParams(4, 3, 0.0), 1)
    again, _ = parse_assignment(format_assignment(sparse, 1))
    assert again == sparse
    for seed in (True, 1.5):
        with pytest.raises(ValueError, match="seed must be an integer"):
            format_assignment(assignment, seed)


def test_rig_reader_skips_blank_lines_and_comments():
    # the header need not come first; blank lines and every other `#` line,
    # a second header included, are skipped wherever they fall
    edges = (
        "\n# before\n\n  # rig n=3 m=2 p=0.5 seed=7  \n# after\n0 1\n\n"
        "# rig n=9 m=9 p=1.0 seed=9\n1 2\n"
    )
    graph, params, seed = parse_edgelist(edges)
    assert graph == IntersectionGraph(3, frozenset({(0, 1), (1, 2)}))
    assert (params, seed) == (ModelParams(3, 2, 0.5), 7)
    sets = "# before\n\n# rig n=2 m=2 p=0.25 seed=1\n# after\n0: 0 1\n\n# between\n1:\n# end\n"
    assignment, seed = parse_assignment(sets)
    assert assignment == BipartiteAssignment(ModelParams(2, 2, 0.25), ((0, 1), ()))
    assert seed == 1


@pytest.mark.parametrize(
    "parse, body, message",
    [
        (parse_edgelist, "0 1 2\n", "edge list: malformed line '0 1 2'"),
        (parse_edgelist, "0 1\n0 1\n", "edge list: duplicate edge '0 1'"),
        (parse_assignment, "0: 1\n1 0\n", "assignment: malformed line '1 0'"),
        (parse_assignment, "0: 1\n0: 0\n1:\n", "assignment: duplicate vertex 0"),
        (parse_assignment, "0: 1\n", "assignment: vertex lines do not cover 0..n-1 exactly"),
        # a field int() would take: non-digits, then 1_0, +1 and an Arabic-Indic 3
        (parse_edgelist, "a b\n", "edge list: malformed line 'a b'"),
        (parse_edgelist, "0 1_0\n", "edge list: malformed line '0 1_0'"),
        (parse_edgelist, "+0 1\n", "edge list: malformed line '+0 1'"),
        (parse_edgelist, "0 \u0663\n", "edge list: malformed line '0 \u0663'"),
        (parse_assignment, "x: 1\n1:\n", "assignment: malformed line 'x: 1'"),
        (parse_assignment, "0: a\n1:\n", "assignment: malformed line '0: a'"),
        (parse_assignment, "0: 1_0\n1:\n", "assignment: malformed line '0: 1_0'"),
        (parse_assignment, "+0: 1\n1:\n", "assignment: malformed line '+0: 1'"),
        (parse_assignment, "0: \u0661\n1:\n", "assignment: malformed line '0: \u0661'"),
        # the graph's and the assignment's own checks, after the reader's name
        (parse_edgelist, "1 0\n", "edge list: edge (1, 0) is not canonical for n=2"),
        (parse_assignment, "0: 5\n1:\n", "assignment: vertex 0: object index 5 outside [0, 2)"),
    ],
)
def test_rig_reader_errors(parse, body, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse("# rig n=2 m=2 p=0.5 seed=0\n" + body)


@pytest.mark.parametrize(
    "header, message",
    [
        ("# rig n=1_0 m=2 p=0.5 seed=0", "malformed line '# rig n=1_0 m=2 p=0.5 seed=0'"),
        ("# rig n=2 m=+2 p=0.5 seed=0", "malformed line '# rig n=2 m=+2 p=0.5 seed=0'"),
        ("# rig n=2 m=2 p=0.5 seed=\u0667", "malformed line '# rig n=2 m=2 p=0.5 seed=\u0667'"),
        ("# rig n=2 m=2 p=x seed=0", "malformed line '# rig n=2 m=2 p=x seed=0'"),
        # a p float() would take: 0.5_0, +.5, Arabic-Indic 0.5 and 1_0e-1
        ("# rig n=2 m=2 p=0.5_0 seed=0", "malformed line '# rig n=2 m=2 p=0.5_0 seed=0'"),
        ("# rig n=2 m=2 p=+.5 seed=0", "malformed line '# rig n=2 m=2 p=+.5 seed=0'"),
        ("# rig n=2 m=2 p=\u0660.\u0665 seed=0",
         "malformed line '# rig n=2 m=2 p=\u0660.\u0665 seed=0'"),
        ("# rig n=2 m=2 p=1_0e-1 seed=0", "malformed line '# rig n=2 m=2 p=1_0e-1 seed=0'"),
        ("# rig n=0 m=2 p=0.5 seed=0", "n must be an integer >= 1, got 0"),
    ],
)
def test_rig_header_errors(header, message):
    for parse, what in ((parse_edgelist, "edge list"), (parse_assignment, "assignment")):
        with pytest.raises(ValueError, match=re.escape(f"{what}: {message}")):
            parse(header + "\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_edgelist, "0 1\n# rig n=2 m=1 p=0.5 seed=0\n", "edge list: line '0 1' before"),
        (parse_assignment, "# a\n\n0: 0\n# rig n=1 m=1 p=0.5 seed=0\n", "assignment: line '0: 0' before"),
        # no header at all: empty text, then comments only
        (parse_edgelist, "", "edge list: missing `# rig"),
        (parse_assignment, "", "assignment: missing `# rig"),
        (parse_edgelist, "# a\n\n# rig\n", "edge list: missing `# rig"),
        (parse_assignment, "# a\n\n# rig\n", "assignment: missing `# rig"),
    ],
)
def test_rig_reader_rejects_a_data_line_before_the_header(parse, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text)
