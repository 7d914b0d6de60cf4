"""Independent reference computations used only by the test suite.

Everything here is deliberately brute force: exhaustive enumeration over all
bipartite outcomes, quadratic pairwise projection, matrix-style reachability,
and rational-arithmetic tails.  Slow and obviously correct, so the fast
library paths can be judged against them.
"""

from __future__ import annotations

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


def rational_binom_tail(trials: int, p_num: int, p_den: int, cutoff: int, direction: str) -> Fraction:
    """Exact binomial tail as a rational number, for p = p_num / p_den."""
    p = Fraction(p_num, p_den)
    q = 1 - p
    ks = range(cutoff, trials + 1) if direction == "upper" else range(0, cutoff + 1)
    return sum(comb(trials, k) * p**k * q ** (trials - k) for k in ks)
