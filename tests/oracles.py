"""Independent reference computations used only by the test suite.

Everything here is deliberately brute force: the Philox4x64-10 stream of the
sampling contract in plain integers (``philox4x64_raw``, the one reference
for every sampler's draws), exhaustive enumeration over all bipartite
outcomes, quadratic pairwise projection, matrix-style reachability, and one
binomial tail in exact rational arithmetic.  Slow and obviously correct, so
the fast library paths can be judged against them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from riglab import BipartiteAssignment, IntersectionGraph


# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2**64 - 1


def philox4x64_raw(seed: int, index: int, count: int) -> list[int]:
    """The first `count` 64-bit words of Philox4x64-10 keyed by (seed, index), in plain ints.

    The sampling contract's stream: key (seed mod 2**64, index mod 2**64) and a
    256-bit counter that starts at 0 and is incremented before each block, as
    numpy's Philox does, so the first block is counter 1.  Each block of ten
    rounds yields four words in order.
    """
    key = (seed & _MASK64, index & _MASK64)
    words: list[int] = []
    block = 0
    while len(words) < count:
        block += 1
        x = [(block >> (64 * i)) & _MASK64 for i in range(4)]
        k0, k1 = key
        for r in range(10):
            if r:
                k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
            lo, hi = _PHILOX_M[0] * x[0], _PHILOX_M[1] * x[2]
            x = [(hi >> 64) ^ x[1] ^ k0, hi & _MASK64, (lo >> 64) ^ x[3] ^ k1, lo & _MASK64]
        words.extend(x)
    return words[:count]


def pairwise_project(assignment: BipartiteAssignment) -> IntersectionGraph:
    """O(n^2) projection: intersect the object sets of every pair."""
    n = assignment.params.n
    sets = [set(objects) for objects in assignment.sets]
    edges = frozenset((i, j) for i, j in combinations(range(n), 2) if sets[i] & sets[j])
    return IntersectionGraph(n=n, edges=edges)


def reachability_connected(graph: IntersectionGraph) -> bool:
    """Connectivity via boolean closure of the adjacency matrix.

    The product is taken on booleans, so an entry says whether a walk exists
    and no count of walks can wrap.
    """
    n = graph.n
    reach = np.eye(n, dtype=bool)
    for i, j in graph.edges:
        reach[i, j] = reach[j, i] = True
    for _ in range(n):
        updated = reach @ reach
        if np.array_equal(updated, reach):
            break
        reach = updated
    return bool(reach.all())


def enum_two_vertex_share_prob(m: int, p: float) -> float:
    """P[two vertices share an object], summed over all 4**m joint outcomes."""
    total = 0.0
    for bits_a in product((0, 1), repeat=m):
        for bits_b in product((0, 1), repeat=m):
            weight = 1.0
            for b in bits_a + bits_b:
                weight *= p if b else (1.0 - p)
            if any(a and b for a, b in zip(bits_a, bits_b)):
                total += weight
    return total


def enum_degree_pmf(n: int, m: int, p: float) -> np.ndarray:
    """Degree law of vertex 0 over all 2**(n*m) attachment outcomes."""
    pmf = np.zeros(n)
    for bits in product((0, 1), repeat=n * m):
        weight = 1.0
        for b in bits:
            weight *= p if b else (1.0 - p)
        sets = [
            frozenset(w for w in range(m) if bits[v * m + w]) for v in range(n)
        ]
        deg = sum(1 for u in range(1, n) if sets[0] & sets[u])
        pmf[deg] += weight
    return pmf


def enum_connected_prob(n: int, m: int, p: float) -> Fraction:
    """P[the intersection graph is connected], summed over all 2**(n*m) attachment outcomes.

    Exact: the outcomes are counted by their number of attachments, and p is
    taken exactly from its float.
    """
    counts = [0] * (n * m + 1)
    for bits in range(2 ** (n * m)):
        sets = [{w for w in range(m) if bits >> (v * m + w) & 1} for v in range(n)]
        reached, frontier = {0}, [0]
        while frontier:
            v = frontier.pop()
            for u in range(n):
                if u not in reached and sets[v] & sets[u]:
                    reached.add(u)
                    frontier.append(u)
        if len(reached) == n:
            counts[bin(bits).count("1")] += 1
    p = Fraction(p)
    return sum(count * p**k * (1 - p) ** (n * m - k) for k, count in enumerate(counts))


def gilbert_connected_prob(n: int, m: int, p: float) -> Fraction:
    """Exact P[the intersection graph is connected] by Gilbert's recursion (1959).

    W(t, j) is the probability that t vertices and j objects form one
    connected vertex-object graph.  Vertex 1's component has some t' vertices
    and j' objects and no edge to the rest, so with q = 1 - p

        W(t, j) = 1 - sum over (t', j') != (t, j) of
                  C(t-1, t'-1) C(j, j') W(t', j') q**(t'(j-j') + (t-t')j'),

    with W(1, 0) = 1.  For n >= 2 the graph is connected when all n vertices
    and the j objects they touch form one component and the other m - j
    objects are touched by no vertex.  p is taken exactly from its float.
    """
    if n == 1:
        return Fraction(1)
    q = 1 - Fraction(p)
    w = {}
    for t in range(1, n + 1):
        for j in range(m + 1):
            w[t, j] = 1 - sum(
                comb(t - 1, a - 1) * comb(j, b) * w[a, b] * q ** (a * (j - b) + (t - a) * b)
                for a in range(1, t + 1)
                for b in range(j + 1)
                if (a, b) != (t, j)
            )
    return sum(comb(m, j) * w[n, j] * q ** (n * (m - j)) for j in range(m + 1))


def decimal_threshold_p(alpha: float, m: int, n: int) -> Decimal:
    """(m * n**alpha) ** -1/2 in 60-digit decimal arithmetic, far past the float range."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(m) * Decimal(n) ** Decimal(alpha)) ** Decimal("-0.5")


def envelope_residual(a: float, c: float) -> float:
    """|a*log(a) - a + 1 - c|, the four terms summed by math.fsum with one rounding."""
    return abs(math.fsum((a * math.log(a), -a, 1.0, -c)))


def binom_tail(trials: int, p: float, cutoff: int, direction: str) -> Fraction:
    """Exact P[X >= cutoff] ("upper") or P[X <= cutoff] ("lower") for X ~ Binomial(trials, p).

    A rational number: p is taken exactly as Fraction(p), and the terms are
    summed without rounding.
    """
    p = Fraction(p)
    q = 1 - p
    ks = range(cutoff, trials + 1) if direction == "upper" else range(0, cutoff + 1)
    return sum(comb(trials, k) * p**k * q ** (trials - k) for k in ks)


def wilson_interval_exact(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval in 80-digit decimal arithmetic, each bound rounded once.

    z is 1.959963984540054, the interval's contract, written here rather than
    imported.  The bounds are (center -+ half) / (1 + z**2/n) with center
    phat + z**2/(2n) and half z * sqrt(phat(1 - phat)/n + z**2/(4n**2)).  At
    0 successes center equals half, and at n successes center + half equals
    the denominator, so those bounds are exactly 0 and 1.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        s, n, z = Decimal(successes), Decimal(trials), Decimal("1.959963984540054")
        phat, z2 = s / n, z * z
        denom = 1 + z2 / n
        center = phat + z2 / (2 * n)
        half = z * (phat * (1 - phat) / n + z2 / (4 * n * n)).sqrt()
        lower = 0 if s == 0 else (center - half) / denom
        upper = 1 if s == n else (center + half) / denom
        return float(lower), float(upper)


def mixture_degree_pmf(n: int, m: int, p: float) -> list[float]:
    """Degree law of vertex 0 as a mixture over its object count S ~ Binomial(m, p).

    Given S = s, each of the other n - 1 vertices shares one of those objects
    independently with probability r = 1 - (1 - p)**s, so the degree is
    Binomial(n - 1, r).  Each term uses exact integer binomial coefficients and
    each degree's mass is summed by math.fsum.
    """
    q = 1.0 - p
    weights = [comb(m, s) * p**s * q ** (m - s) for s in range(m + 1)]
    shares = [1.0 - q**s for s in range(m + 1)]
    return [
        math.fsum(
            weight * comb(n - 1, k) * r**k * (1.0 - r) ** (n - 1 - k)
            for weight, r in zip(weights, shares)
        )
        for k in range(n)
    ]
