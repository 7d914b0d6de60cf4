"""Independent reference computations used only by the test suite.

Everything here is deliberately brute force: exhaustive enumeration over all
bipartite outcomes, quadratic pairwise projection, matrix-style reachability,
and rational-arithmetic tails.  Slow and obviously correct, so the fast
library paths can be judged against them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from riglab import BipartiteAssignment, IntersectionGraph


def pairwise_project(assignment: BipartiteAssignment) -> IntersectionGraph:
    """O(n^2) projection: intersect the object sets of every pair."""
    n = assignment.params.n
    sets = [set(objects) for objects in assignment.sets]
    edges = frozenset((i, j) for i, j in combinations(range(n), 2) if sets[i] & sets[j])
    return IntersectionGraph(n=n, edges=edges)


def reachability_connected(graph: IntersectionGraph) -> bool:
    """Connectivity via boolean closure of the adjacency matrix."""
    n = graph.n
    reach = np.eye(n, dtype=np.uint8)
    for i, j in graph.edges:
        reach[i, j] = reach[j, i] = 1
    for _ in range(n):
        updated = ((reach @ reach) > 0).astype(np.uint8)
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


def envelope_residual(a: float, c: float) -> float:
    """|a*log(a) - a + 1 - c|, the four terms summed by math.fsum with one rounding."""
    return abs(math.fsum((a * math.log(a), -a, 1.0, -c)))


def rational_binom_tail(trials: int, p_num: int, p_den: int, cutoff: int, direction: str) -> Fraction:
    """Exact binomial tail as a rational number, for p = p_num / p_den."""
    p = Fraction(p_num, p_den)
    q = 1 - p
    ks = range(cutoff, trials + 1) if direction == "upper" else range(0, cutoff + 1)
    return sum(comb(trials, k) * p**k * q ** (trials - k) for k in ks)


def binom_tail_exact(trials: int, p: float, cutoff: int, direction: str) -> float:
    """Exact P[X >= cutoff] or P[X <= cutoff] for X ~ Binomial(trials, p).

    Sums pmf terms with math.fsum; each term uses the exact integer binomial
    coefficient, so the result is accurate to a few ulps even deep in a tail.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not isinstance(cutoff, int) or not 0 <= cutoff <= trials:
        raise ValueError(f"cutoff must be an integer in [0, {trials}], got {cutoff!r}")
    if direction == "upper":
        ks = range(cutoff, trials + 1)
    elif direction == "lower":
        ks = range(0, cutoff + 1)
    else:
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    q = 1.0 - p
    return min(1.0, math.fsum(comb(trials, k) * p**k * q ** (trials - k) for k in ks))
