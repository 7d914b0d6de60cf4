import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riglab import analytics
from riglab import (
    conditional_adjacency_prob,
    degree_pmf,
    q_approx,
    q_exact,
    rate_H,
    solve_a,
    tail_bound,
    threshold_p,
    total_variation,
    zeta_bound,
)

from oracles import (
    binom_tail,
    decimal_threshold_p,
    enum_degree_pmf,
    enum_two_vertex_share_prob,
    envelope_residual,
)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: q_exact(0, 0.5), "m must be an integer >= 1, got 0",
                     id="q_exact-m-zero"),
        pytest.param(lambda: q_exact(2, -0.01), "p must lie in [0, 1], got -0.01",
                     id="q_exact-p-negative"),
        pytest.param(lambda: q_exact(2, 1.01), "p must lie in [0, 1], got 1.01",
                     id="q_exact-p-above-1"),
        pytest.param(lambda: q_approx(0, 0.5), "m must be an integer >= 1, got 0",
                     id="q_approx-m-zero"),
        pytest.param(lambda: q_approx(2, -0.01), "p must lie in [0, 1], got -0.01",
                     id="q_approx-p-negative"),
        pytest.param(lambda: q_approx(2, 1.01), "p must lie in [0, 1], got 1.01",
                     id="q_approx-p-above-1"),
        pytest.param(lambda: zeta_bound(0, 0.5), "m must be an integer >= 1, got 0",
                     id="zeta_bound-m-zero"),
        pytest.param(lambda: zeta_bound(2, -0.01), "p must lie in [0, 1], got -0.01",
                     id="zeta_bound-p-negative"),
        pytest.param(lambda: zeta_bound(2, 1.01), "p must lie in [0, 1], got 1.01",
                     id="zeta_bound-p-above-1"),
        pytest.param(lambda: tail_bound(10, 0.5, 0.0, "lower"), "cutoff must be positive, got 0.0",
                     id="tail_bound-cutoff-zero"),
        pytest.param(lambda: tail_bound(10, 0.0, 1, "upper"),
                     "success_prob must lie in (0, 1], got 0.0", id="tail_bound-success-prob-zero"),
        pytest.param(lambda: tail_bound(10, 0.5, 5, "sideways"),
                     "direction must be 'upper' or 'lower', got 'sideways'",
                     id="tail_bound-direction"),
        pytest.param(lambda: solve_a(-0.1, "upper"), "c must be >= 0, got -0.1",
                     id="solve_a-c-negative"),
        pytest.param(lambda: solve_a(math.inf, "upper"), "c must be a finite real number, got inf",
                     id="solve_a-c-inf"),
        pytest.param(lambda: solve_a(math.nan, "lower"), "c must be a finite real number, got nan",
                     id="solve_a-c-nan"),
        pytest.param(lambda: solve_a(0.5, "middle"),
                     "branch must be 'upper' or 'lower', got 'middle'", id="solve_a-branch"),
        pytest.param(lambda: threshold_p(math.nan, 2, 5),
                     "alpha must be a finite real number, got nan", id="threshold_p-alpha-nan"),
        pytest.param(lambda: threshold_p(math.inf, 2, 5),
                     "alpha must be a finite real number, got inf", id="threshold_p-alpha-inf"),
        pytest.param(lambda: threshold_p(1.0, 0, 5), "m must be an integer >= 1, got 0",
                     id="threshold_p-m-zero"),
        pytest.param(lambda: threshold_p(1.0, 2, 0), "n must be an integer >= 1, got 0",
                     id="threshold_p-n-zero"),
        pytest.param(lambda: conditional_adjacency_prob(-1, 0.5),
                     "size must be an integer >= 0, got -1", id="conditional_adjacency_prob-size"),
        pytest.param(lambda: degree_pmf(4, 2, 0.5, "exact"),
                     "kind must be one of ('binomial-approx', 'exact-mixture'), got 'exact'",
                     id="degree_pmf-kind"),
        pytest.param(lambda: total_variation([1.0], [0.5, 0.5]), "pmf shapes differ: (1,) vs (2,)",
                     id="total_variation-shapes"),
    ],
)
def test_bad_values_are_rejected_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ----------------------------------------------------------- edge probability

def test_q_exact_frozen_values():
    assert q_exact(2, 0.5) == 0.4375
    assert q_exact(1, 0.3) == 0.3 * 0.3
    assert q_exact(3, 0.0) == 0.0
    assert q_exact(4, 1.0) == 1.0


def test_q_exact_matches_two_vertex_enumeration():
    for m in (1, 2, 3):
        for p in (0.0, 0.1, 0.35, 0.5, 0.8, 1.0):
            expected = enum_two_vertex_share_prob(m, p)
            assert q_exact(m, p) == pytest.approx(expected, abs=1e-12)


def test_q_approx_and_zeta_frozen_values():
    assert q_approx(2, 0.5) == 0.5
    assert zeta_bound(2, 0.5) == 0.0625
    assert zeta_bound(1, 0.9) == 0.0
    # q_approx is only first order and may leave [0, 1]
    assert q_approx(50, 0.9) > 1.0


def test_sandwich_on_documented_sweep():
    # remainder bound brackets the exact value over a wide (m, p) sweep
    for m in range(2, 51):
        for p in np.geomspace(0.001, 0.2, 40):
            p = float(p)
            lower = q_approx(m, p) - zeta_bound(m, p)
            exact = q_exact(m, p)
            assert lower <= exact <= q_approx(m, p), (m, p)


@given(
    m=st.integers(min_value=1, max_value=60),
    p=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_sandwich_property(m, p):
    lower = q_approx(m, p) - zeta_bound(m, p)
    exact = q_exact(m, p)
    assert lower <= exact <= q_approx(m, p)


@pytest.mark.parametrize(
    ("m", "p"),
    [(10**200, 1e-170), (2**59 - 1, 1e-160), (10**6, 1e-158)],
    ids=["m=10**200", "m=2**59-1", "m=10**6"],
)
def test_edge_probability_where_p_squared_is_subnormal(m, p):
    # 1 - (1 - s)**m lies between m*s - C(m, 2)*s**2 and m*s (Bonferroni), s = p**2
    s = Fraction(p) ** 2
    first = m * s
    exact_low = first - Fraction(m * (m - 1), 2) * s * s
    for got, low, high in ((q_approx(m, p), first, first), (q_exact(m, p), exact_low, first)):
        slack = high / 10**15 + Fraction(2) ** -1074
        assert low - slack <= Fraction(got) <= high + slack, (m, p, got)


# -------------------------------------------------------------- rate function

def test_rate_H_identities():
    assert rate_H(1.0) == 0.0
    assert rate_H(float("inf")) == -1.0
    assert rate_H(math.e) == pytest.approx(2.0 / math.e - 1.0, abs=1e-15)


def test_rate_H_shape():
    rising = np.geomspace(1e-8, 0.999, 500)
    falling = np.geomspace(1.001, 1e8, 500)
    h_rising = [rate_H(float(t)) for t in rising]
    h_falling = [rate_H(float(t)) for t in falling]
    assert all(b > a for a, b in zip(h_rising, h_rising[1:]))
    assert all(b < a for a, b in zip(h_falling, h_falling[1:]))
    assert all(h < 0.0 for h in h_rising + h_falling)
    # -1 is the limit value at infinity and is approached from above
    assert all(h > -1.0 for h in h_falling)


# rate_H's rows: the rule each value breaks, and the message names the value's repr
@pytest.mark.parametrize(
    "bad, rule",
    [
        pytest.param(0.0, "positive", id="0.0"),
        pytest.param(-1.0, "positive", id="-1.0"),
        pytest.param(-math.inf, "a finite real number", id="-inf"),
        pytest.param(math.nan, "a finite real number", id="nan"),
        pytest.param("1.0", "a finite real number", id="1.0"),
        pytest.param(10**400, "a finite real number", id="10**400"),
        pytest.param(True, "a finite real number", id="True"),
    ],
)
def test_rate_H_domain_errors(bad, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f't must be {rule}, got {bad!r}')}$"):
        rate_H(bad)


# ----------------------------------------------------------------- tail bound

def test_tail_bound_frozen_values():
    assert tail_bound(10, 0.5, 10, "upper") == pytest.approx(math.exp(5.0) / 1024.0, rel=1e-12)
    assert tail_bound(10, 0.5, 5, "upper") == 1.0
    assert tail_bound(10, 0.5, 5, "lower") == 1.0
    # mean / cutoff overflows to inf here and underflows to 0 below; the bound
    # still dominates the exact tail (X <= 1e-320 means X = 0), and 0.0 is
    # right for X >= 1e300, an empty event
    assert tail_bound(10, 0.5, 1e-320, "lower") == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert Fraction(tail_bound(10, 0.5, 1e-320, "lower")) >= binom_tail(10, 0.5, 0, "lower")
    assert tail_bound(10, 1e-300, 1e300, "upper") == 0.0


def test_tail_bound_window_validation():
    with pytest.raises(ValueError, match=r"cutoff >= trials \* success_prob"):
        tail_bound(10, 0.5, 4, "upper")
    with pytest.raises(ValueError, match=r"cutoff <= trials \* success_prob"):
        tail_bound(10, 0.5, 6, "lower")


def test_tail_bound_dominates_exact_tail_small_grid():
    for trials in range(1, 13):
        for p in (0.2, 0.5, 0.8):
            for cutoff in range(1, trials + 1):
                for direction in ("upper", "lower"):
                    try:
                        bound = tail_bound(trials, p, cutoff, direction)
                    except ValueError:
                        continue
                    assert Fraction(bound) >= binom_tail(trials, p, cutoff, direction)


# ----------------------------------------------------------------- exact tail

def test_binom_tail_exact_frozen_values():
    assert binom_tail(10, 0.5, 10, "upper") == Fraction(1, 1024)
    assert binom_tail(10, 0.5, 0, "lower") == Fraction(1, 1024)
    assert binom_tail(5, Fraction(3, 10), 2, "lower") == Fraction(83692, 10**5)
    assert binom_tail(7, 0.0, 0, "lower") == 1
    assert binom_tail(7, 1.0, 7, "upper") == 1


def test_binom_tail_complement_identity():
    for cutoff in range(1, 11):
        assert binom_tail(10, 0.37, cutoff, "upper") + binom_tail(10, 0.37, cutoff - 1, "lower") == 1


# -------------------------------------------------------------- envelope root

def test_solve_a_double_root_at_zero():
    for branch in ("upper", "lower"):
        a = solve_a(0.0, branch)
        assert a == 1.0
        assert envelope_residual(a, 0.0) == 0.0


def test_solve_a_residuals_on_grid():
    for c in np.linspace(0.0, 50.0, 101).tolist():
        a = solve_a(c, "upper")
        assert envelope_residual(a, c) <= 1e-12
        assert a >= 1.0
    for c in np.linspace(0.0, 0.999, 101).tolist():
        a = solve_a(c, "lower")
        assert envelope_residual(a, c) <= 1e-12
        assert 0.0 < a <= 1.0
    # for large c the terms a*log(a) and a are as large as c, so the residual is
    # bounded relative to c
    for c in (1e6, 1e20, 1e300):
        a = solve_a(c, "upper")
        assert envelope_residual(a, c) <= 1e-12 * c
        assert a >= 1.0


def test_solve_a_branch_monotonicity():
    uppers = [solve_a(float(c), "upper") for c in np.linspace(0.0, 10.0, 41)]
    lowers = [solve_a(float(c), "lower") for c in np.linspace(0.0, 0.99, 41)]
    assert all(b > a for a, b in zip(uppers, uppers[1:]))
    assert all(b < a for a, b in zip(lowers, lowers[1:]))


@given(c=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_solve_a_upper_property(c):
    a = solve_a(c, "upper")
    assert envelope_residual(a, c) <= 1e-12
    assert a >= 1.0


@given(c=st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=200, deadline=None)
def test_solve_a_lower_property(c):
    a = solve_a(c, "lower")
    assert envelope_residual(a, c) <= 1e-12
    assert 0.0 < a <= 1.0


def test_solve_a_domain_errors():
    with pytest.raises(ValueError, match="lower branch requires c < 1"):
        solve_a(1.0, "lower")
    with pytest.raises(ValueError, match="too close to 1"):
        solve_a(1.0 - 1e-15, "lower")


def test_solve_a_reports_nonconvergence(monkeypatch):
    # no residual meets a negative tolerance, so the convergence check must fire
    monkeypatch.setattr(analytics, "_RESIDUAL_TOL", -1.0)
    with pytest.raises(ValueError, match="solver did not converge"):
        solve_a(0.5, "upper")


# ------------------------------------------------------------------ threshold

def test_threshold_p_frozen_values():
    assert threshold_p(2.0, 4, 10) == 0.05
    assert threshold_p(1.0, 100, 100) == pytest.approx(0.01, rel=1e-15)
    assert threshold_p(0.0, 1, 50) == 1.0


def test_threshold_p_monotone_in_alpha():
    values = [threshold_p(a, 7, 30) for a in np.linspace(0.0, 4.0, 17)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_threshold_p_domain_errors():
    # p itself leaves the float range: 10**500 and 10**-500
    for alpha in (-1000.0, 1000.0):
        with pytest.raises(ValueError, match="outside the float range"):
            threshold_p(alpha, 1, 10)


@pytest.mark.parametrize(
    ("alpha", "m", "n"),
    [
        (308.0, 100, 10),  # m * n**alpha overflows; p = 1e-155
        (-330.0, 1, 10),  # n**alpha underflows; p = 1e165
        (-600.0, 10**300, 10),  # n**alpha underflows; p = 1e150
        (1.0, 10**400, 10),  # m is past the float range
        (0.5, 4, 10**700),  # n is past the float range
    ],
    ids=["m-n-alpha-overflows", "n-alpha-underflows", "n-alpha-underflows-big-m", "big-m", "big-n"],
)
def test_threshold_p_where_m_n_alpha_leaves_the_float_range(alpha, m, n):
    exact = decimal_threshold_p(alpha, m, n)
    assert abs(Decimal(threshold_p(alpha, m, n)) - exact) <= Decimal("1e-12") * exact


def test_threshold_p_is_the_direct_form_in_range():
    for alpha in np.linspace(-60.0, 60.0, 41):
        for m in (1, 7, 10**6):
            for n in (1, 2, 10, 1000):
                assert threshold_p(alpha, m, n) == (m * float(n) ** alpha) ** -0.5


def test_zeta_bound_matches_exact_rationals():
    # m*(m-1) overflows from m ~ 1e154 on, and p^4 underflows below p ~ 1e-77
    for m in (1, 2, 3, 10**5, 10**100, 10**154, 10**200, 10**300, int(sys.float_info.max)):
        for p in (0.0, 5e-324, 1e-300, 1e-170, 1e-100, 1e-80, 1e-77, 1e-50, 1e-10, 0.3, 1.0):
            got = zeta_bound(m, p)
            exact = Fraction(m * (m - 1), 2) * Fraction(p) ** 4
            assert not math.isnan(got), (m, p)
            if exact > sys.float_info.max:
                assert got == math.inf, (m, p)
            else:
                assert abs(Fraction(got) - exact) <= exact / 10**12 + Fraction(2) ** -1074, (m, p)


# ---------------------------------------------------------------- degree laws

def test_conditional_adjacency_prob():
    assert conditional_adjacency_prob(0, 0.7) == 0.0
    assert conditional_adjacency_prob(3, 1.0) == 1.0
    assert conditional_adjacency_prob(1, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert conditional_adjacency_prob(2, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_degree_pmf_point_masses():
    for kind in ("binomial-approx", "exact-mixture"):
        at_zero = degree_pmf(5, 3, 0.0, kind)
        assert at_zero[0] == pytest.approx(1.0, abs=1e-12)
        at_full = degree_pmf(5, 3, 1.0, kind)
        assert at_full[-1] == pytest.approx(1.0, abs=1e-12)
        single = degree_pmf(1, 3, 0.6, kind)
        assert single.shape == (1,)
        assert single[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_mixture_matches_enumeration():
    for n, m, p in [(4, 2, 0.5), (3, 4, 0.3), (2, 6, 0.85), (4, 3, 0.6)]:
        mixture = degree_pmf(n, m, p, "exact-mixture")
        reference = enum_degree_pmf(n, m, p)
        assert np.max(np.abs(mixture - reference)) <= 1e-9


def test_binomial_approx_is_not_the_exact_law():
    # the independence approximation visibly misses for n > 2
    mixture = degree_pmf(4, 2, 0.5, "exact-mixture")
    binomial = degree_pmf(4, 2, 0.5, "binomial-approx")
    assert total_variation(mixture, binomial) > 0.01


def test_binomial_approx_is_exact_for_two_vertices():
    # with one indicator there is nothing to approximate
    mixture = degree_pmf(2, 5, 0.4, "exact-mixture")
    binomial = degree_pmf(2, 5, 0.4, "binomial-approx")
    assert np.max(np.abs(mixture - binomial)) <= 1e-12


def test_degree_pmf_rejects_a_law_that_is_not_a_pmf(monkeypatch):
    # halving every binomial term leaves a law that sums to 1/2 or 1/4
    original = analytics._binom_pmf
    monkeypatch.setattr(analytics, "_binom_pmf", lambda k, trials, p: 0.5 * original(k, trials, p))
    for kind in ("binomial-approx", "exact-mixture"):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            degree_pmf(4, 2, 0.5, kind)


def _full_grid_degree_pmf(n, m, p, kind):
    """degree_pmf as evaluated before the windows: every term over all of 0..n-1.

    Each Binomial term is one scipy call over the whole grid, with exp(logpmf)
    for the whole term when that call raises OverflowError, summed in the same
    order.  It shares q_exact and conditional_adjacency_prob with degree_pmf,
    so it checks the windows, not the law (oracles.mixture_degree_pmf does).
    Its terms come from the public scipy.stats.binom, so it also checks
    degree_pmf's direct boost ufunc call against the wrapper it reproduces.
    """
    from scipy.stats import binom

    def pmf(k, trials, q):
        try:
            return binom.pmf(k, trials, q)
        except OverflowError:
            return np.exp(binom.logpmf(k, trials, q))

    ks = np.arange(n)
    if kind == "binomial-approx":
        return pmf(ks, n - 1, q_exact(m, p))
    total = np.zeros(n)
    for s, w in enumerate(pmf(np.arange(m + 1), m, p)):
        if w != 0.0:
            total += w * pmf(ks, n - 1, conditional_adjacency_prob(s, p))
    return total


def _bit_identity_points():
    points = [
        # the golden degree-dist points, then the benchmark's
        (1, 2, 0.5), (6, 3, 0.0), (5, 4, 1.0), (8, 5, 0.25),
        (4, 2, 0.5), (400, 400, 0.05), (2000, 2000, 0.02), (4000, 1000, 0.05),
        (7, 9, 0.0), (30, 2, 1.0), (1, 1, 0.0), (1, 1, 1.0),
        # a few points of moderate size
        (2, 1, 0.5), (10, 7, 0.23), (40, 60, 0.05), (25, 4, 0.9),
        # scipy's pmf raises OverflowError for the weights or a term
        (1, 2, 1.1125369292536007e-308), (8, 5, 1e-307), (300, 40000, 1e-306),
        # q_exact near 1e-305, where the full grid raises only outside the window
        (588, 414, 1.2875991074229838e-154), (294, 334, 4.873346716487289e-155),
    ]
    rng = np.random.default_rng(20261019)
    for _ in range(100):
        n, m = (int(x) for x in np.exp(rng.uniform(0.0, math.log(400.0), size=2)).round())
        points.append((n, m, float(10.0 ** rng.uniform(-308.0, 0.0))))
    return points


@pytest.mark.parametrize("kind", ["binomial-approx", "exact-mixture"])
def test_degree_pmf_windows_change_no_bit(kind):
    for n, m, p in _bit_identity_points():
        expected = _full_grid_degree_pmf(n, m, p, kind)
        assert np.array_equal(degree_pmf(n, m, p, kind), expected), (n, m, p)


def test_binomial_windows_hold_every_nonzero_pmf():
    from scipy.stats import binom

    rng = np.random.default_rng(765)
    qs = [0.0, 1.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-290, 1e-280, 1e-200,
          1e-20, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-3]
    qs += [float(q) for q in 10.0 ** rng.uniform(-323.0, 0.0, size=30)]
    qs += [float(q) for q in -np.expm1(-(10.0 ** rng.uniform(-3.0, 2.0, size=10)))]
    for trials in (0, 1, 2, 7, 50, 333, 1999, 4000, 20000):
        los, his = analytics._binom_windows(trials, np.array(qs))
        for q, lo, hi in zip(qs, los, his):
            assert 0 <= lo <= hi <= trials, (trials, q)
            mode = min(math.floor((trials + 1) * q), trials)
            assert lo <= mode <= hi, (trials, q)
            ks = np.arange(trials + 1)
            try:
                pmf = binom.pmf(ks, trials, q)
            except OverflowError:
                # the fallback must then be taken on the whole grid, as before
                assert (lo, hi) == (0, trials), (trials, q)
                continue
            outside = (ks < lo) | (ks > hi)
            assert not pmf[outside].any(), (trials, q, np.flatnonzero(pmf * outside))


def test_binomial_windows_cut_most_of_the_benchmark_grids():
    # the mixture terms of two benchmark points need 28.7 % and 8.9 % of the full grid
    for n, m, p, share in [(2000, 2000, 0.02, 0.30), (4000, 1000, 0.05, 0.10)]:
        sizes = np.flatnonzero(analytics._binom_pmf(np.arange(m + 1), m, p))
        shares = np.array([conditional_adjacency_prob(int(s), p) for s in sizes])
        lo, hi = analytics._binom_windows(n - 1, shares)
        assert np.sum(hi - lo + 1) <= share * len(sizes) * n


def test_binom_pmf_is_scipy_stats_binom_pmf_bit_for_bit():
    # scipy.stats.binom is the oracle only: _binom_pmf calls the boost ufunc
    # binom.pmf wraps, and so must clip it and take the same fallback
    from scipy.special._ufuncs import _binom_pmf as boost_pmf
    from scipy.stats import binom

    rng = np.random.default_rng(20)
    qs = [0.0, 1.0, 5e-324, 1e-307, 1e-300, 0.5, 1.0 - 2.0**-53]
    qs += [float(q) for q in 10.0 ** rng.uniform(-323.0, 0.0, size=20)]
    clipped = overflowed = 0
    for trials in (0, 1, 2, 7, 1999, 4000, 40000):
        ks = np.arange(trials + 1)
        for q in qs:
            try:
                expected = binom.pmf(ks, trials, q)
                clipped += bool(np.any(boost_pmf(ks, trials, q) > 1.0))
            except OverflowError:
                expected = np.exp(binom.logpmf(ks, trials, q))
                overflowed += 1
            got = analytics._binom_pmf(ks, trials, q)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (trials, q)
    # the sweep reaches both guarded cases: a raw value above 1 and the fallback
    assert clipped and overflowed, (clipped, overflowed)


def test_total_variation_basics():
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
