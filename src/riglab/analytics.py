"""Closed-form quantities for the intersection graph model.

Covers the exact and second-order edge probability, the binomial tail bound
(np/k)^k * exp(k - np) with its rate-function form, the envelope roots of
a*log(a) - a + 1 = c, the probe curve p(alpha) = (m * n**alpha) ** -1/2, and
the two competing degree laws for a single vertex.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import _FLOAT_MAX, _check_int, _check_prob, _check_real, _require
from .model import conditional_adjacency_prob

__all__ = [
    "DEGREE_MODEL_KINDS",
    "q_exact",
    "q_approx",
    "zeta_bound",
    "rate_H",
    "tail_bound",
    "solve_a",
    "threshold_p",
    "degree_pmf",
    "total_variation",
]

_RESIDUAL_TOL = 1e-12
# ln of half the smallest subnormal, 2**-1075, is -745.13; the binomial pmf
# is skipped where its large-deviation bound is below e^-765
_WINDOW_EXPONENT = 765.0
# boost's binomial pmf (scipy.special's ufunc, see _binom_pmf) raises
# OverflowError at some k only where q is below about 3.2e-304 (at 10**6
# trials; the limit grows about as sqrt(trials)), and those k need not lie in
# the window
_PMF_OVERFLOW_BELOW = 1e-290
# consecutive mixture terms are evaluated in one _binom_pmf call, whose boost
# loop runs with the GIL released, while their windows hold at most this many
# values in all; a longer window is a call of its own
_RUN_VALUES = 8192
DEGREE_MODEL_KINDS = ("binomial-approx", "exact-mixture")


def q_exact(m: int, p: float) -> float:
    """Exact probability 1 - (1 - p^2)^m that two vertices share an object.

    m = 1 and m = 2 are returned through the plain polynomial so that the
    second-order sandwich holds as written even where it is mathematically
    tight; larger m is ``conditional_adjacency_prob(m, p^2)``, accurate at small p.
    Where p^2 is below the normal float range it is not formed: the result is
    (m * p) * p, or -expm1(-(m * p) * p) for m >= 3, since log1p(-p^2) is
    -p^2 to double precision there.
    """
    _check_int(m, "m", 1, _FLOAT_MAX)
    p = _check_prob(p, "p")
    s = p * p
    if p > 0.0 and s < sys.float_info.min:
        first = (m * p) * p
        return first if m <= 2 else -math.expm1(-first)
    if m == 1:
        return s
    if m == 2:
        return 2.0 * s - s * s
    return conditional_adjacency_prob(m, s)


def q_approx(m: int, p: float) -> float:
    """First-order edge probability m * p^2.  May exceed 1 for large m*p^2.

    Where p^2 is below the normal float range, (m * p) * p keeps the digits
    that m * (p * p) would lose.
    """
    _check_int(m, "m", 1, _FLOAT_MAX)
    p = _check_prob(p, "p")
    s = p * p
    if p > 0.0 and s < sys.float_info.min:
        return (m * p) * p
    return m * s


def zeta_bound(m: int, p: float) -> float:
    """Upper bound (m*(m-1)/2) * p^4 on the second-order remainder q_approx - q_exact."""
    _check_int(m, "m", 1, _FLOAT_MAX)
    p = _check_prob(p, "p")
    s = p * p
    bound = 0.5 * m * (m - 1) * (s * s)
    if bound == math.inf or s * s < sys.float_info.min:
        # m*(m-1) overflowed or p^4 underflowed; these two factors stay in the float range
        bound = 0.5 * (m * p * p) * ((m - 1) * p * p)
    return bound


def rate_H(t: float) -> float:
    """Rate function H(t) = (1/t)*log(t) + 1/t - 1 for t > 0, with H(inf) = -1.

    H increases on (0, 1), decreases on (1, inf), vanishes only at t = 1,
    and is negative elsewhere.
    """
    if t == math.inf:
        return -1.0
    t = _check_real(t, "t")
    _require(t > 0.0, f"t must be positive, got {t!r}")
    return (math.log(t) + 1.0) / t - 1.0


def tail_bound(trials: int, success_prob: float, cutoff: float, direction: str) -> float:
    """Evaluate (np/k)^k * exp(k - np) in log space, np = trials * success_prob, k = cutoff.

    Equals exp(np * H(np/k)) and dominates the exact binomial tail on the
    `direction` side of the mean.  The bound holds only on that side, so a
    cutoff on the wrong side of trials * success_prob is rejected.
    """
    _check_int(trials, "trials", 1, _FLOAT_MAX)
    success_prob = _check_real(success_prob, "success_prob")
    _require(0.0 < success_prob <= 1.0, f"success_prob must lie in (0, 1], got {success_prob!r}")
    mean = trials * success_prob
    k = _check_real(cutoff, "cutoff")
    _require(k > 0.0, f"cutoff must be positive, got {k!r}")
    _require(direction in ("upper", "lower"), f"direction must be 'upper' or 'lower', got {direction!r}")
    _require(
        direction == "lower" or k >= mean,
        f"upper tail bound requires cutoff >= trials * success_prob, got cutoff={k} < {mean}",
    )
    _require(
        direction == "upper" or k <= mean,
        "lower tail bound requires 0 < cutoff <= trials * success_prob, "
        f"got cutoff={k} > {mean}",
    )
    ratio = mean / k
    # log(mean) - log(k) only where the quotient leaves the float range, so every
    # other bound keeps its bits
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(mean) - math.log(k)
    return math.exp(k * log_ratio + (k - mean))


def solve_a(c: float, branch: str) -> float:
    """The root a of a*log(a) - a + 1 = c on the requested branch.

    The upper branch lives in [1, inf) and exists for every c >= 0; the lower
    branch lives in (0, 1] and exists only for 0 <= c < 1 because the left
    side tends to 1 as a -> 0.  Bracketed Newton iteration with bisection
    fallback; raises ValueError if the root's residual exceeds 1e-12 * max(1, c).
    """
    _require(branch in ("upper", "lower"), f"branch must be 'upper' or 'lower', got {branch!r}")
    c = _check_real(c, "c")
    _require(c >= 0.0, f"c must be >= 0, got {c!r}")
    if branch == "lower" and c >= 1.0:
        raise ValueError(
            f"lower branch requires c < 1 (the envelope tends to 1 as a -> 0), got c={c}"
        )
    if c == 0.0:
        # both branches meet at the double root a = 1
        return 1.0

    if branch == "upper":
        # exp(1 + c) already lands past the root; cap to avoid overflow
        lo, hi = 1.0, (1.0 + c + math.exp(1.0 + c)) if c < 5.5 else c + 2.0
    else:
        lo, hi = 1e-15, 1.0

    def g(a: float) -> float:
        return a * math.log(a) - (a - 1.0) - c

    lo_negative = g(lo) < 0.0
    if branch == "lower" and lo_negative:
        # envelope(1e-15) is within ~4e-14 of 1, so such c admits no
        # representable root above the bracket floor
        raise ValueError(f"c={c} is too close to 1; lower-branch root falls below 1e-15")
    x = 0.5 * (lo + hi)
    tol = 0.5 * _RESIDUAL_TOL
    for _ in range(256):
        gx = g(x)
        if abs(gx) <= tol:
            break
        if (gx < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        slope = math.log(x)
        trial = x - gx / slope if slope != 0.0 else x
        if not lo < trial < hi:
            trial = 0.5 * (lo + hi)
        if trial == x:
            break
        x = trial
    residual = abs(g(x))
    # for c > 1 the terms of g are as large as c, so g(x) carries rounding error
    # of about c * 2**-52; the loop still stops at the first x within the
    # absolute limit, and only this final check scales the limit by c
    limit = _RESIDUAL_TOL * max(1.0, c)
    _require(residual <= limit, f"residual {residual} exceeds {limit}; solver did not converge")
    return x


def threshold_p(alpha: float, m: int, n: int) -> float:
    """Probe curve p(alpha) = (m * n**alpha) ** -1/2; ValueError if p leaves the float range."""
    _check_real(alpha, "alpha")
    _check_int(m, "m", 1)
    _check_int(n, "n", 1)
    try:
        p = (m * float(n) ** alpha) ** -0.5
    except (OverflowError, ZeroDivisionError):
        p = 0.0
    try:
        # where m * n**alpha left the float range, p itself may still lie inside it
        p = p or math.exp(-0.5 * (math.log(m) + alpha * math.log(n)))
    except OverflowError:
        pass
    _require(0.0 < p < math.inf, f"p(alpha) is outside the float range at alpha={alpha}, "
             f"m={m}, n={n}")
    return p


def _binom_pmf(k, trials: int, p: float):
    """Binomial(trials, p) pmf at integer k in 0..trials, bit for bit scipy.stats.binom.pmf.

    It calls boost's binomial pmf, the private ufunc
    scipy.special._ufuncs._binom_pmf, which binom.pmf itself wraps, and clips
    it to [0, 1] as binom.pmf does (at k = 0 and small p the raw value exceeds
    1.0 by up to about 1.1e-13).  The ufunc is private so that riglab needs
    only scipy.special, which loads here: scipy.stats, about 45 MiB and 1 s
    more, never loads.  The ufunc raises OverflowError from its
    ibeta_derivative for some p at the bottom of the float range (from about
    5e-309 up to about 1e-304 at 40000 trials); those p are answered by exp of
    binom.logpmf's formula, in its order.
    """
    from scipy.special._ufuncs import _binom_pmf as boost_pmf
    try:
        return np.clip(boost_pmf(k, trials, p), 0.0, 1.0)
    except OverflowError:
        from scipy.special import gammaln, xlog1py, xlogy
        k = np.floor(k)
        return np.exp(gammaln(trials + 1) - (gammaln(k + 1) + gammaln(trials - k + 1))
                      + xlogy(k, p) + xlog1py(trials - k, -p))


def _binom_windows(trials: int, shares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last k at which each Binomial(trials, q) pmf, q in `shares`, can be nonzero.

    P(X = k) <= exp(-trials * D(k/trials || q)), D the Kullback-Leibler
    divergence of two Bernoulli laws (Chernoff, 1952; Arratia and Gordon,
    1989).  Outside the window trials * D exceeds _WINDOW_EXPONENT, so the true
    pmf is below e^-765, more than 2**28 times below half the smallest
    subnormal, and _binom_pmf there is 0.0.  D falls and then rises in k, so
    the window is an interval around the mode, and the end below the mode is
    found by bisection for every q at once.  The end above it is the end
    below the mode of the mirrored law (k -> trials - k, q -> 1 - q).  At
    q = 0 or 1 the window is the point mass at 0 or at trials.  For q below
    _PMF_OVERFLOW_BELOW it is all of 0..trials, so that _binom_pmf falls back
    to exp(logpmf) exactly where it would over the full grid.
    """
    inner = (shares > 0.0) & (shares < 1.0)
    q = np.where(inner, shares, 0.5)
    log_q, log_not_q = np.log(q), np.log1p(-q)
    log_trials = math.log(trials) if trials else 0.0
    mode = np.minimum(np.floor((trials + 1) * shares), trials).astype(np.int64)
    # row 0 is the law itself, row 1 its mirror; each searches [lo, hi] for the
    # first k within the bound, which hi, the mode, always is: its pmf is at
    # least 1/(trials + 1)
    log_a, log_b = np.stack((log_q, log_not_q)), np.stack((log_not_q, log_q))
    hi = np.stack((mode, trials - mode))
    lo = np.where(inner, 0, hi)
    for _ in range(trials.bit_length()):
        mid = (lo + hi) // 2
        rest = trials - mid
        exponent = (mid * (np.log(np.maximum(mid, 1)) - log_trials - log_a)
                    + rest * (np.log(np.maximum(rest, 1)) - log_trials - log_b))
        within = exponent <= _WINDOW_EXPONENT
        hi = np.where(within, mid, hi)
        lo = np.where(within, lo, mid + 1)
    tiny = (shares > 0.0) & (shares < _PMF_OVERFLOW_BELOW)
    return np.where(tiny, 0, hi[0]), np.where(tiny, trials, trials - hi[1])


def _term_runs(shares: np.ndarray, lengths: np.ndarray):
    """Yield (first, stop) for each run of consecutive terms evaluated in one _binom_pmf call.

    A run holds as many terms as fit in _RUN_VALUES values, `lengths` being
    their window lengths, or one longer window.  A term with q below
    _PMF_OVERFLOW_BELOW is a run of its own, so that _binom_pmf's
    exp(logpmf) fallback is taken for exactly the terms that would take it
    one call each.
    """
    start, held, alone = 0, 0, False
    for i, (q, length) in enumerate(zip(shares.tolist(), lengths.tolist())):
        tiny = q < _PMF_OVERFLOW_BELOW
        if start < i and (tiny or alone or held + length > _RUN_VALUES):
            yield start, i
            start, held = i, 0
        held, alone = held + length, tiny
    yield start, len(lengths)


def degree_pmf(n: int, m: int, p: float, kind: str) -> np.ndarray:
    """Degree law of a single vertex under one of two models, as a pmf over 0..n-1.

    'binomial-approx' treats the n-1 adjacency indicators as independent,
    giving Binomial(n-1, q_exact).  'exact-mixture' conditions on the vertex's
    own object count S ~ Binomial(m, p); given S = s the indicators really are
    independent with success probability 1 - (1-p)^s, so the mixture over s is
    the exact law, and 'binomial-approx' is its one-term case, weight 1.0.
    The terms are added in order, each only on the window of k where
    (n-1) * D(k/(n-1) || q) <= 765 (see _binom_windows): outside it the pmf is
    below e^-765, more than 2**28 times below half the smallest subnormal, so
    _binom_pmf's value there is 0.0, and the skipped w * 0.0 would leave every
    bit of the sum as it is.  Consecutive terms' windows are evaluated in
    runs (see _term_runs), one _binom_pmf call per run: the pmf is
    elementwise, so a term's values are those of a call of its own, and
    they are added term by term in the same order.
    """
    _check_int(n, "n", 1)
    _check_int(m, "m", 1)
    p = _check_prob(p, "p")
    _require(kind in DEGREE_MODEL_KINDS, f"kind must be one of {DEGREE_MODEL_KINDS}, got {kind!r}")
    if kind == "binomial-approx":
        weights, shares = np.ones(1), [q_exact(m, p)]
    else:
        weights = _binom_pmf(np.arange(m + 1), m, p)
        sizes = np.flatnonzero(weights)
        weights, shares = weights[sizes], [conditional_adjacency_prob(int(s), p) for s in sizes]
    shares = np.asarray(shares, dtype=float)
    los, his = _binom_windows(n - 1, shares)
    lengths = his - los + 1
    pmf = np.zeros(n)
    for first, stop in _term_runs(shares, lengths):
        run, length = slice(first, stop), lengths[first:stop]
        # the run's windows end to end, each term's starting at its offset
        offsets = np.cumsum(length) - length
        ks = np.arange(np.sum(length)) + np.repeat(los[run] - offsets, length)
        values = _binom_pmf(ks, n - 1, np.repeat(shares[run], length))
        # add.at adds in the order of ks, so each k takes its terms in turn
        np.add.at(pmf, ks, np.repeat(weights[run], length) * values)
    total = float(np.sum(pmf))
    _require(
        abs(total - 1.0) <= 1e-12 and not np.any(pmf < 0.0),
        f"pmf must be nonnegative and sum to 1, got sum={total}",
    )
    return pmf


def total_variation(pmf_a, pmf_b) -> float:
    """Total variation distance 0.5 * sum |a_k - b_k| between two pmfs."""
    a = np.asarray(pmf_a, dtype=float)
    b = np.asarray(pmf_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"pmf shapes differ: {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(a - b)))
