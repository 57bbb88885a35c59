import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, seed, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import norm

from wingtail import acceptance, cli, mixed, smile
from wingtail.errors import (
    DomainError,
    InfinitePriceError,
    InversionError,
    RegimeGuardError,
    WingtailError,
)
from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams, risk_neutral_drift
from wingtail.mellin import AT_INFINITY, TailAsymptote
from wingtail.mixed import WING_LARGE, WING_SMALL, MixedModel
from wingtail.nig import NIGParams
from wingtail.numerics import Tolerance, find_root

from benchmark_boxes import box_draw

VOL_FLOOR = 1e-8
_REFERENCE_TOL = Tolerance(rel=1e-15, abs=1e-14, max_iter=200)


def reference_implied_vol_from_log(log_price: float, k: float, T: float) -> float:
    """The bracketed inversion that `smile.bs_implied_vol_from_log` replaced:
    bracket the root in [1e-8, 2^j], then brentq at rel 1e-15, abs 1e-14."""
    if not (math.isfinite(k) and math.isfinite(T) and T > 0):
        raise DomainError(f"need a finite k and a finite T > 0, got {k}, {T}")
    if not math.isfinite(log_price):
        raise DomainError(f"bs_implied_vol_from_log needs a finite log_price, got {log_price}")
    if log_price >= 0.0:
        raise InversionError(f"price {math.exp(log_price):.6g} x0 at or above the spot bound")
    if k < 0.0 and log_price <= math.log(-math.expm1(k)):
        raise InversionError(
            f"price {math.exp(log_price):.6g} x0 at or below intrinsic value {-math.expm1(k):.6g} x0"
        )

    def gap(sigma):
        return smile.bs_log_call(k, T, sigma) - log_price

    lo, hi = VOL_FLOOR, 1.0
    if gap(lo) >= 0.0:
        return lo
    for _ in range(60):
        if gap(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise InversionError(f"no volatility below {hi} reproduces the price")
    return find_root(gap, lo, hi, _REFERENCE_TOL)


# The Newton inversion agrees with the reference within REFERENCE_REL
# relative, plus the reference's own absolute stopping tolerance, plus the
# rounding plateau of g(sigma) = log C - log_price: the volatilities over which
# log C moves by less than its rounding error, where the price does not
# determine sigma (deep in the money, or where the vega is far below the
# price). That error is 8 eps max(1, |log C|, |k|), times Phi(d1)/C where
# d1 >= 0 (the cancellation of forming C/Phi(d1) as 1 - e^(lb - la), which
# `bs_log_call` no longer does there: the bound only widens by it).
REFERENCE_REL = 4e-14


def agreement_bound(sigma: float, log_price: float, k: float, T: float) -> float:
    v = sigma * math.sqrt(T)
    d1 = -k / v + 0.5 * v
    log_dg = -0.5 * d1 * d1 - 0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(T) - log_price
    excess = float(log_ndtr(d1)) - log_price  # log(Phi(d1)/C)
    mills_branch = d1 <= -20.0 and d1 - v <= -25.0
    log_cancellation = 0.0 if mills_branch else max(excess, 0.0) + math.log1p(math.exp(-abs(excess)))
    log_rounding = math.log(8.0 * sys.float_info.epsilon * max(1.0, abs(log_price), abs(k))) + log_cancellation
    return REFERENCE_REL * sigma + _REFERENCE_TOL.abs + math.exp(min(log_rounding - log_dg, 700.0))


def outcome(invert, log_price: float, k: float, T: float):
    """The inversion's value, or the class and message of the error it raised."""
    try:
        return invert(log_price, k, T)
    except WingtailError as exc:
        return type(exc).__name__, str(exc)


class TestRiskNeutralDrift:
    def test_exact_rational_point(self):
        j = KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0)
        assert risk_neutral_drift(j) == pytest.approx(-0.25, rel=1e-14)

    def test_sign_in_pure_down_limit(self):
        j = KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=1e-9, q=1.0 - 1e-9, t=1.0)
        assert risk_neutral_drift(j) == pytest.approx(j.lam * j.q / (j.eta2 + 1.0), rel=1e-6)

    def test_martingale_via_monte_carlo(self, kou_model, kou_sample):
        se = kou_sample.std() / math.sqrt(kou_sample.size)
        assert abs(kou_sample.mean() - kou_model.x0) <= 3.0 * se


class TestBlackScholes:
    def test_zero_vol_is_intrinsic(self):
        assert smile.bs_call(1.0, 0.7, 1.0, 0.0) == pytest.approx(0.3)
        assert smile.bs_call(1.0, 1.3, 1.0, 0.0) == 0.0

    def test_atm_normal_cdf_value(self):
        # at-the-money unit-spot value is 2*Phi(sigma/2) - 1
        assert smile.bs_call(1.0, 1.0, 1.0, 0.2) == pytest.approx(2.0 * norm.cdf(0.1) - 1.0, rel=1e-12)
        assert smile.bs_call(1.0, 1.0, 1.0, 0.2) == pytest.approx(0.0796557, abs=1e-7)

    def test_matches_norm_cdf_form(self):
        for x0, k, t, sigma in ((1.0, 0.7, 1.0, 0.2), (2.0, 3.1, 0.5, 0.45), (1.0, 1e-3, 2.0, 1.3), (1.0, 40.0, 1.0, 0.9)):
            srt = sigma * math.sqrt(t)
            d1 = (math.log(x0 / k) + 0.5 * srt * srt) / srt
            assert smile.bs_call(x0, k, t, sigma) == x0 * norm.cdf(d1) - k * norm.cdf(d1 - srt)

    def test_cli_import_leaves_scipy_stats_out(self):
        code = "import sys, wingtail.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "False"

    def test_round_trip_grid(self):
        for sigma in (0.1, 0.3, 0.9, 1.8):
            for k in (0.7, 1.0, 1.9):
                price = smile.bs_call(1.0, k, 1.0, sigma)
                assert smile.bs_implied_vol_from_log(math.log(price), math.log(k), 1.0) == pytest.approx(sigma, abs=1e-10)

    def test_log_form_consistent_with_linear(self):
        for sigma in (0.2, 1.1):
            for k in (0.8, 1.6, 30.0):
                assert smile.bs_log_call(math.log(k), 1.0, sigma) == pytest.approx(
                    math.log(smile.bs_call(1.0, k, 1.0, sigma)), rel=1e-10)

    def test_log_form_across_branch_switch(self):
        # the short-step form of the Mills-ratio difference (the quadrature of
        # its slope) agrees with the direct form where both are accurate, on
        # both sides of |d1| = 20
        from scipy.special import log_ndtr

        sigma, T = 0.37, 1.0
        for ell in np.linspace(6.5, 9.0, 12):  # d1 between about -17 and -24
            K = math.exp(float(ell))
            srt = sigma
            d1 = (-math.log(K) + 0.5 * srt * srt) / srt
            d2 = d1 - srt
            mills = (math.log(K) - 0.5 * d2 * d2 - 0.5 * math.log(2 * math.pi)
                     + math.log(smile._mills_difference(-d1, srt)))
            la = float(log_ndtr(d1))
            lb = math.log(K) + float(log_ndtr(d2))
            direct = la + math.log1p(-math.exp(lb - la))
            assert mills == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_log_form_matches_fifty_digits_out_of_the_money(self):
        # across the switches of the out-of-the-money forms; the direct form
        # la + log1p(-exp(lb - la)) was 7.4e-11 off at the first point and
        # 2.1e-9 off at d1 = -24, total vol 1e-3
        mp.dps = 50
        points = [(0.146484375, 0.1, 0.0234375)]
        for d1 in np.linspace(-30.0, -5.0, 26):
            for v in np.geomspace(1e-3, 0.5, 12):
                for T in (0.25, 1.0):
                    points.append((float(-d1 * v + 0.5 * v * v), T, float(v / math.sqrt(T))))
        for k, T, sigma in points:
            v = mp.mpf(sigma) * mp.sqrt(T)
            d1 = -mp.mpf(k) / v + v / 2
            want = mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v))
            assert abs(smile.bs_log_call(k, T, sigma) - float(want)) <= 1e-12

    def test_log_form_matches_sixty_digits_in_and_near_the_money(self):
        # near the money at total volatility 1e-5 (the direct form
        # la + log1p(-exp(lb - la)) was 1.2e-11 to 3.0e-11 off there), and deep
        # in the money at tiny volatility, where it was 6.8e-14 off: within 2
        # ulps of log C
        points = [(float(k), T, 1e-5 / math.sqrt(T)) for k in np.linspace(-3e-11, 3e-11, 61) for T in (0.5, 1.0)]
        points.append((-8.107362721638151e-4, 1.852222948188307, 8.801441300258757e-6))
        with mp.workdps(60):
            for k, T, sigma in points:
                v = mp.mpf(sigma) * mp.sqrt(T)
                d1 = -mp.mpf(k) / v + v / 2
                want = mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v))
                assert abs(smile.bs_log_call(k, T, sigma) - want) <= 2 * math.ulp(float(want))

    def test_in_the_money_sweep_matches_fifty_digits(self):
        # the parity form carries the out-of-the-money form's error on the
        # put, whose two-ratio difference loses up to 7 bits: within 3e-14
        rng = np.random.default_rng(23)
        with mp.workdps(50):
            for _ in range(150):
                k, T, sigma = -10 ** rng.uniform(-5, 1), rng.uniform(0.05, 2.0), 10 ** rng.uniform(-10, 0.5)
                v = mp.mpf(sigma) * mp.sqrt(T)
                d1 = -mp.mpf(k) / v + v / 2
                want = mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v))
                assert abs(smile.bs_log_call(k, T, sigma) - want) <= 3e-14

    def test_near_money_parity_point_matches_fifty_digits(self):
        # d2 = 0.0021 at total volatility 0.0218: the put that parity adds was
        # priced by the two-ratio difference, which lost 6.6 bits there (log C
        # 1.2e-14 off); the short-step form takes it now
        k, T, sigma = -2.844921454193347e-4, 1.0573101135804215, 0.021216384939513246
        with mp.workdps(50):
            v = mp.mpf(sigma) * mp.sqrt(T)
            d1 = -mp.mpf(k) / v + v / 2
            want = mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v))
            assert abs(smile.bs_log_call(k, T, sigma) - want) <= 1e-15

    def test_short_step_point_matches_fifty_digits(self):
        # z1 = 19.6, in the short-step form: its integrand 1 - s M(s) cancelled
        # 10 bits there (log C 1.08e-13 off); as M(s) T(s) it cancels none
        k, T, sigma = 3.9127414399321756, 1.0, 0.19864338529822045
        with mp.workdps(50):
            v = mp.mpf(sigma) * mp.sqrt(T)
            d1 = -mp.mpf(k) / v + v / 2
            want = mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v))
            assert abs(smile.bs_log_call(k, T, sigma) - want) <= 3e-14

    def test_mills_slope_matches_fifty_digits(self):
        with mp.workdps(50):
            for s in np.linspace(0.5, 20.0, 79):
                z = mp.mpf(s)
                want = 1 - z * mp.erfc(z / mp.sqrt(2)) / (2 * mp.npdf(z))
                assert abs(smile._mills_slope(s) / want - 1) <= (7e-16 if s >= 3.0 else 4e-15), s

    def test_mills_difference_matches_fifty_digits_past_twenty(self):
        # the quadrature of the slope out to z1 = 1e6, at steps up to the
        # longest the out-of-the-money form takes, max(0.07, 0.02 z1)
        with mp.workdps(50):
            mills = lambda z: mp.erfc(z / mp.sqrt(2)) / (2 * mp.npdf(z))
            for z1 in map(float, np.geomspace(20.0, 1e6, 25)):
                top = max(0.07, 0.02 * z1)
                for delta in map(float, np.geomspace(1e-6, 0.999 * top, 9)):
                    want = mills(mp.mpf(z1)) - mills(mp.mpf(z1) + mp.mpf(delta))
                    assert abs(smile._mills_difference(z1, delta) / want - 1) <= 6e-16, (z1, delta)

    def test_inversion_band_errors(self):
        with pytest.raises(InversionError):
            smile.bs_implied_vol_from_log(math.log(0.5), math.log(0.5), 1.0)  # at intrinsic
        with pytest.raises(InversionError):
            smile.bs_implied_vol_from_log(math.log(1.0), math.log(0.5), 1.0)  # at spot

    def test_inversion_huge_vol(self):
        price = smile.bs_call(1.0, 1.0, 1.0, 6.0)
        assert smile.bs_implied_vol_from_log(math.log(price), 0.0, 1.0) == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("log_price", [math.nan, math.inf, -math.inf])
    def test_inversion_refuses_non_finite_log_price(self, log_price):
        with pytest.raises(DomainError, match=f"finite log_price, got {log_price}"):
            smile.bs_implied_vol_from_log(log_price, 5.0, 1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_log_call_refuses_non_finite_sigma(self, sigma):
        with pytest.raises(DomainError, match=f"finite sigma > 0, got {sigma}"):
            smile.bs_log_call(5.0, 1.0, sigma)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_horizon_refused(self, T):
        with pytest.raises(DomainError, match=f"finite T > 0, got 5.0, {T}"):
            smile.bs_log_call(5.0, T, 0.3)
        with pytest.raises(DomainError, match=f"finite T > 0, got 5.0, {T}"):
            smile.bs_implied_vol_from_log(-3.0, 5.0, T)


class TestNewtonInversion:
    """The safeguarded Newton inversion against the bracketed reference it
    replaced, the cost it was made for, and a 50-digit root."""

    @seed(16)
    @settings(max_examples=500, deadline=None, database=None)
    @given(k=st.floats(-8.0, 40.0), T=st.floats(0.1, 2.0),
           sigma=st.one_of(st.floats(0.02, 6.0), st.floats(1e-10, VOL_FLOOR)))
    @example(k=5.0, T=1.0, sigma=1e-9)  # a price below the floor's value: both return the floor
    @example(k=0.0, T=1.0, sigma=1e-9)
    @example(k=-2.0, T=0.5, sigma=0.3)  # in the money
    @example(k=-8.0, T=2.0, sigma=0.02)  # at intrinsic in double precision: both refuse
    @example(k=0.0, T=2.0, sigma=6.0)  # huge volatility
    @example(k=40.0, T=0.1, sigma=6.0)
    def test_agrees_with_the_bracketed_reference(self, k, T, sigma):
        try:
            log_price = smile.bs_log_call(k, T, sigma)
        except WingtailError:
            reject()
        ref = outcome(reference_implied_vol_from_log, log_price, k, T)
        new = outcome(smile.bs_implied_vol_from_log, log_price, k, T)
        if isinstance(ref, tuple) or isinstance(new, tuple):
            assert new == ref
        else:
            assert new >= VOL_FLOOR
            assert abs(new - ref) <= agreement_bound(ref, log_price, k, T)

    @pytest.mark.parametrize("k, T, sigma", [(5.0, 1.0, 1e-9), (0.0, 1.0, 1e-9), (40.0, 0.1, 5e-9), (1e-6, 2.0, 2e-9)])
    def test_price_below_the_floor_value_returns_the_floor(self, k, T, sigma):
        log_price = smile.bs_log_call(k, T, sigma)
        assert reference_implied_vol_from_log(log_price, k, T) == VOL_FLOOR
        assert smile.bs_implied_vol_from_log(log_price, k, T) == VOL_FLOOR

    @pytest.mark.parametrize("start", [VOL_FLOOR, 1e-3, 0.5, 5.0, 50.0])
    @pytest.mark.parametrize("k, T, sigma", [
        (5.0, 1.0, 1e-9), (0.0, 1.0, 1e-9), (5.0, 1.0, 0.3), (30.0, 0.5, 2.5), (0.0, 2.0, 6.0),
        (0.146484375, 0.1, 0.0234375), (-0.5, 1.0, 0.4), (-2.0, 1.0, 0.3), (-7.0, 1.0, 1.0),
    ])
    def test_the_safeguards_reach_the_root_from_any_start(self, monkeypatch, start, k, T, sigma):
        # the bisection, the doubling and the floor, without the closed-form start
        log_price = smile.bs_log_call(k, T, sigma)
        ref = reference_implied_vol_from_log(log_price, k, T)
        monkeypatch.setattr(smile, "_start_vol", lambda *args: start)
        new = smile.bs_implied_vol_from_log(log_price, k, T)
        if sigma < VOL_FLOOR:
            assert new == ref == VOL_FLOOR
        assert abs(new - ref) <= agreement_bound(ref, log_price, k, T)

    @pytest.mark.parametrize("log_price, k, T", [
        (math.nan, 5.0, 1.0), (-3.0, math.inf, 1.0), (-3.0, 5.0, 0.0), (-3.0, 5.0, math.nan),
        (0.0, 5.0, 1.0), (1e-300, -1.0, 1.0), (math.log(-math.expm1(-1.0)), -1.0, 1.0),
    ])
    def test_refuses_as_the_reference_does(self, log_price, k, T):
        ref = outcome(reference_implied_vol_from_log, log_price, k, T)
        assert isinstance(ref, tuple)
        assert outcome(smile.bs_implied_vol_from_log, log_price, k, T) == ref

    @pytest.mark.parametrize("k, T, sigma", [
        (6.465236836934199, 1.2459089950745432, 0.040231053858653415),
        (30.0, 1.0, 2.0), (5.0, 0.25, 0.7), (0.0, 1.0, 0.2), (-0.5, 1.0, 0.4),
    ])
    def test_matches_a_fifty_digit_root(self, k, T, sigma):
        # the reference stops within its absolute 1e-14 (4.2e-14 relative at
        # the first point); the Newton loop lands within the rounding plateau
        log_price = smile.bs_log_call(k, T, sigma)
        mp.dps = 50

        def gap(s):
            v = s * mp.sqrt(T)
            d1 = -k / v + v / 2
            return mp.log(mp.ncdf(d1) - mp.exp(k) * mp.ncdf(d1 - v)) - log_price

        root = float(mp.findroot(gap, mp.mpf(sigma)))
        new = smile.bs_implied_vol_from_log(log_price, k, T)
        assert abs(new - root) <= agreement_bound(root, log_price, k, T) - _REFERENCE_TOL.abs

    def test_param_sweep_grid_cost(self, monkeypatch, kou_model, nig_model, pure_model):
        # the benchmark's param-sweep shape: reference Kou, NIG and pure
        # Heston models, both wings, 24 log-spaced L in [5, 40]
        ells = np.geomspace(5.0, 40.0, 24)
        strikes = np.concatenate([np.exp(-ells[::-1]), np.exp(ells)])
        evaluations, inversions = [], []
        real_call, real_invert = smile.bs_log_call, smile.bs_implied_vol_from_log

        def invert(*args):
            inversions.append((args, real_invert(*args)))
            return inversions[-1][1]

        monkeypatch.setattr(smile, "bs_log_call", lambda *a: evaluations.append(1) or real_call(*a))
        monkeypatch.setattr(smile, "bs_implied_vol_from_log", invert)
        for model in (kou_model, nig_model, pure_model):
            config = cli.ModelConfig(kind="", model=model, seed=0, tol=Tolerance())
            rows = cli.cmd_smile(config, strikes)
            assert all(cell != "" for row in rows[1:] for cell in row)
        assert len(inversions) == 3 * strikes.size
        assert len(evaluations) / len(inversions) <= 5.0
        assert "find_root" not in vars(smile)
        # the Mills-corrected start is within 1e-2 of the root at the median;
        # the leading-order inversion alone is off by about 5e-2 there
        start_errors = [abs(smile._start_vol(*args) / sigma - 1.0) for args, sigma in inversions]
        assert float(np.median(start_errors)) <= 1e-2

    def test_in_the_money_sweep_cost(self, monkeypatch):
        # k = -10^U(-5, 1), T in [0.05, 2], sigma = 10^U(-10, 0.5): with the
        # direct form a fifth of these inversions took more than 6 calls, up to
        # 67 (and the price at k = -8.107e-4, T = 1.852, sigma = 8.80e-6 took
        # 46 and inverted to 8.7e-5). Stated before the run: at most 12 calls
        # each and 5 on average, and agreement with the bracketed reference,
        # which refuses the same prices at intrinsic value
        rng = np.random.default_rng(19)
        evaluations = []
        real_call = smile.bs_log_call
        monkeypatch.setattr(smile, "bs_log_call", lambda *a: evaluations.append(1) or real_call(*a))
        calls = []
        for _ in range(2000):
            k, T, sigma = -10 ** rng.uniform(-5, 1), rng.uniform(0.05, 2.0), 10 ** rng.uniform(-10, 0.5)
            log_price = real_call(k, T, sigma)
            evaluations.clear()
            new = outcome(smile.bs_implied_vol_from_log, log_price, k, T)
            used = len(evaluations)
            ref = outcome(reference_implied_vol_from_log, log_price, k, T)
            if isinstance(new, tuple) or isinstance(ref, tuple):
                assert new == ref
                continue
            calls.append(used)
            assert abs(new - ref) <= agreement_bound(ref, log_price, k, T)
        assert max(calls) <= 12
        assert np.mean(calls) <= 5.0

    def test_a_near_money_start_keeps_the_wing_inversion(self, monkeypatch):
        # the put of this price has k = 3.0e-5 and d1 = -2.2 at the leading
        # start, but the Mills correction drove l to near 0 and the start to
        # 1.66e-4, 15x the root, for 12 calls. Stated before the run: a start
        # below the root (4.3e-6), at most 8 calls, and the reference's root
        k, T, sigma = -3.03945112e-5, 1.49785167, 1.11765333e-5
        log_price = smile.bs_log_call(k, T, sigma)
        assert smile._start_vol(log_price, k, T) < sigma
        evaluations = []
        real_call = smile.bs_log_call
        monkeypatch.setattr(smile, "bs_log_call", lambda *a: evaluations.append(1) or real_call(*a))
        found = smile.bs_implied_vol_from_log(log_price, k, T)
        assert len(evaluations) <= 8
        assert abs(found - reference_implied_vol_from_log(log_price, k, T)) <= agreement_bound(found, log_price, k, T)

    def test_a_staircase_price_ends_on_the_collapsed_bracket(self, monkeypatch):
        # log C rounded to 1e-9 has no root and no residual at the rounding
        # level, and its derivative certifies no step: only the bracket ends it
        real_call = smile.bs_log_call
        monkeypatch.setattr(smile, "bs_log_call", lambda k, T, s: round(real_call(k, T, s), 9))
        for k, T, sigma in ((5.0, 1.0, 0.3), (0.0, 1.0, 0.2), (-0.5, 0.5, 0.4)):
            log_price = round(real_call(k, T, sigma), 9) + 0.5e-9
            found = smile.bs_implied_vol_from_log(log_price, k, T)
            assert abs(real_call(k, T, found) - log_price) <= 1e-9

    def test_a_price_at_intrinsic_value_returns_the_floor_at_once(self, monkeypatch):
        # one ulp above the log of intrinsic value, near the money: the put by
        # parity is at the rounding level of the price, and the floor prices
        # to this double; Newton alone took 4 evaluations and returned the top
        # of that plateau, 1.0118e-8
        k, T = -1.2303825366430593e-07, 2.754121102608744
        log_price = math.nextafter(math.log(-math.expm1(k)), 0.0)
        price = math.exp(log_price)
        assert 0.0 < price + math.expm1(k) <= 4.0 * sys.float_info.epsilon * price
        evaluations = []
        real_call = smile.bs_log_call
        monkeypatch.setattr(smile, "bs_log_call", lambda *a: evaluations.append(a) or real_call(*a))
        assert smile.bs_implied_vol_from_log(log_price, k, T) == VOL_FLOOR
        assert evaluations == [(k, T, VOL_FLOOR)]
        assert reference_implied_vol_from_log(log_price, k, T) == VOL_FLOOR
        # deep in the money, every volatility below about 0.15 prices to
        # intrinsic value itself, which both inversions refuse unevaluated
        k, T = -1.5505162826047414, 1.7101241001807421
        log_price = real_call(k, T, 2.6e-9)
        assert log_price == math.log(-math.expm1(k))
        evaluations.clear()
        assert outcome(smile.bs_implied_vol_from_log, log_price, k, T) == outcome(
            reference_implied_vol_from_log, log_price, k, T)
        assert evaluations == []

    def test_a_deep_in_the_money_price_ends_at_its_rounding_level(self, monkeypatch):
        # the price barely determines sigma (vega/C is about 1e-14 here); the
        # residual reaches the rounding level of log C in a few evaluations,
        # where the bracket would take about 40 to collapse
        k, T, sigma = -7.735660240373932, 0.3280848299081869, 1.8298687485210734
        log_price = smile.bs_log_call(k, T, sigma)
        evaluations = []
        real_call = smile.bs_log_call
        monkeypatch.setattr(smile, "bs_log_call", lambda *a: evaluations.append(1) or real_call(*a))
        found = smile.bs_implied_vol_from_log(log_price, k, T)
        assert len(evaluations) <= 6
        assert abs(found - reference_implied_vol_from_log(log_price, k, T)) <= agreement_bound(found, log_price, k, T)


def call_asymptote(rec, K, x0, T):
    """Leading-term call price at a float strike, from the log form."""
    return x0 * math.exp(smile.expansion_from_tail(rec, x0, T).log_call(math.log(K / x0)))


class TestCallAsymptote:
    def test_prefactor_linearity(self):
        rec = TailAsymptote(r1=0.3, r2=1.0, r3=3.5, r4=-0.75, side=AT_INFINITY)
        scaled = replace(rec, r1=5.0 * rec.r1)
        K = math.exp(8.0)
        assert call_asymptote(scaled, K, 1.0, 1.0) == pytest.approx(
            5.0 * call_asymptote(rec, K, 1.0, 1.0), rel=1e-14)

    def test_plain_power_law_value(self):
        # r = (1, 0, 3, 0): C(K) = K^-1 / 2
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        K = math.exp(10.0)
        assert call_asymptote(rec, K, 1.0, 1.0) == pytest.approx(0.5 / K, rel=1e-13)

    def test_double_integral_oracle(self):
        # C(K) = int_K^inf (x - K) D(x) dx for the tail density
        rec = TailAsymptote(r1=0.7, r2=1.2, r3=4.0, r4=-0.75, side=AT_INFINITY)

        def tail_density(v):
            return math.exp(rec.log_value_logx(v))

        for ell in (6.0, 12.0, 25.0):
            K = math.exp(ell)
            oracle = quad(lambda v: (math.exp(v) - K) * tail_density(v) * math.exp(v),
                          ell, ell + 60.0, limit=400)[0]
            approx = call_asymptote(rec, K, 1.0, 1.0)
            assert abs(approx / oracle - 1.0) <= 2.0 / math.sqrt(ell)

    def test_infinite_price_rejected(self):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=1.9, r4=0.0, side=AT_INFINITY)
        with pytest.raises(InfinitePriceError):
            call_asymptote(rec, 100.0, 1.0, 1.0)

    def test_regime_guard(self):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        with pytest.raises(RegimeGuardError):
            call_asymptote(rec, 2.0, 1.0, 1.0)


class TestExpansionCoefficients:
    # Lee's moment formula, c_lead^2 T = 2 - 4 (sqrt(p^2 + p) - p), with p =
    # hi - 1 on the large wing and -lo on the small, (lo, hi) the moment strip,
    # over the parameter boxes of the param-sweep benchmark, at the relative
    # tolerance its check uses; draws with a regime margin below 0.5 are
    # drawn again there and rejected here
    @seed(10)
    @settings(max_examples=100, deadline=None, database=None)
    @given(kind=st.sampled_from(["heston", "kou", "nig"]), h=box_draw("HESTON_BOX"), kou=box_draw("KOU_BOX"),
           nig=box_draw("NIG_BOX"))
    def test_lee_moment_formula_over_the_benchmark_boxes(self, kind, h, kou, nig):
        jumps = {"heston": None, "nig": NIGParams(t=1.0, **nig),
                 "kou": KouJumpParams(t=1.0, q=1.0 - kou["p"], **kou)}[kind]
        mu = 0.0 if jumps is None else jumps.martingale_drift()
        model = MixedModel(heston=HestonParams(mu=mu, x0=1.0, t=1.0, **h), jumps=jumps)
        if min(mixed.classify_wing(model, wing).margin for wing in (WING_LARGE, WING_SMALL)) < 0.5:
            reject()
        lo, hi = model.moment_strip()
        for wing, p in ((WING_LARGE, hi - 1.0), (WING_SMALL, -lo)):
            c_lead = smile.smile_expansion(model, wing).c_lead
            assert c_lead**2 * model.t == pytest.approx(2.0 - 4.0 * (math.sqrt(p * p + p) - p), rel=1e-9)

    def test_leading_coefficient_formula(self, kou_model):
        expn = smile.smile_expansion(kou_model, WING_LARGE)
        rec = mixed.mixed_asymptote(kou_model, WING_LARGE)
        expected = math.sqrt(2.0 / kou_model.t) * (math.sqrt(rec.r3 - 1.0) - math.sqrt(rec.r3 - 2.0))
        assert expn.c_lead == pytest.approx(expected, rel=1e-14)

    def test_r3_equals_3_leading_value(self):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        expn = smile.expansion_from_tail(rec, 1.0, 1.0)
        assert expn.c_lead == pytest.approx(math.sqrt(2.0) * (math.sqrt(2.0) - 1.0), rel=1e-14)

    def test_nig_jump_dominant_zero_terms(self, nig_model):
        expn = smile.smile_expansion(nig_model, WING_LARGE)
        assert expn.c_const == 0.0
        assert expn.c_llog2 == 0.0

    def test_lee_bound_consistency(self):
        # c_lead * sqrt(T/2) = sqrt(r3-1) - sqrt(r3-2) lies in (0,1) and
        # decreases to 0 as the tail thins
        prev = 1.0
        for r3 in (2.5, 3.0, 5.0, 12.0, 40.0):
            rec = TailAsymptote(r1=1.0, r2=0.0, r3=r3, r4=0.0, side=AT_INFINITY)
            expn = smile.expansion_from_tail(rec, 1.0, 1.0)
            val = expn.c_lead / math.sqrt(2.0)
            assert 0.0 < val < 1.0
            assert val < prev
            prev = val

    def test_put_call_symmetry_coefficients(self, ref_kou):
        # the direct small-wing coefficients equal the large-wing pipeline
        # applied to the density reflected about the spot, x0^3 x^-3 D(x0^2/x),
        # coefficient for coefficient and at every spot
        for x0 in (0.5, 1.0, 2.0):
            h = HestonParams(mu=risk_neutral_drift(ref_kou), a=1.0, b=2.0, c=0.5, rho=-0.3,
                             x0=x0, y0=0.04, t=1.0)
            model = MixedModel(heston=h, jumps=ref_kou)
            zrec = mixed.mixed_asymptote(model, WING_SMALL)
            direct = smile.expansion_from_tail(zrec, x0, model.t)
            reflected = replace(zrec, r1=zrec.r1 * x0 ** (2.0 * zrec.r3 + 3.0), r3=zrec.r3 + 3.0, side=AT_INFINITY)
            via = smile.expansion_from_tail(reflected, x0, model.t)
            assert (direct.wing, via.wing) == (WING_SMALL, WING_LARGE)
            for field in ("c_lead", "c_const", "c_llog", "c_inv", "c_llog2"):
                assert getattr(direct, field) == pytest.approx(getattr(via, field), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("x0, T, name", [
        (1.0, 0.0, "T"), (1.0, -1.0, "T"), (1.0, math.inf, "T"), (1.0, math.nan, "T"),
        (0.0, 1.0, "x0"), (-1.0, 1.0, "x0"), (math.inf, 1.0, "x0"), (math.nan, 1.0, "x0"),
    ])
    def test_refuses_a_spot_or_horizon_that_is_not_finite_and_positive(self, x0, T, name):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        bad = x0 if name == "x0" else T
        with pytest.raises(DomainError, match=f"finite {name} > 0, got {bad}"):
            smile.expansion_from_tail(rec, x0, T)

    def test_drift_precondition(self, ref_kou):
        h = HestonParams(mu=0.1, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
        model = MixedModel(heston=h, jumps=ref_kou)
        with pytest.raises(DomainError, match="drift"):
            smile.smile_expansion(model, WING_LARGE)


class TestSelfConsistency:
    """Pricing the wing with the call asymptote, inverting, and comparing to
    the five-term expansion closes the loop the expansion is derived from;
    the residual scaled by L must stay bounded."""

    def _residuals(self, model, wing, grid):
        expn = smile.smile_expansion(model, wing)
        out = []
        for L in grid:
            lp = expn.log_call(L)
            iv_inv = smile.bs_implied_vol_from_log(lp, L, model.t)
            out.append(abs(iv_inv - expn.evaluate(L)) * L)
        return out

    def test_large_wing_bounded(self, kou_model):
        vals = self._residuals(kou_model, WING_LARGE, (10.0, 30.0, 100.0))
        assert max(vals) < 1.0

    def test_small_wing_bounded(self, kou_model):
        vals = self._residuals(kou_model, WING_SMALL, (10.0, 30.0, 100.0))
        assert max(vals) < 1.0

    @pytest.mark.parametrize("wing", [WING_LARGE, WING_SMALL])
    @pytest.mark.parametrize("variant", list(acceptance.smile_variants()))
    def test_bounded_out_to_a_million(self, variant, wing):
        # the log-moneyness path has no strike to overflow: the loop closes
        # from L = 10 to L = 1e6 on every regime variant and both wings
        model = acceptance.smile_variants()[variant]
        vals = self._residuals(model, wing, (10.0, 1e2, 1e3, 1e4, 1e5, 1e6))
        assert max(vals) < 1.0

    def test_small_wing_past_strike_underflow(self, kou_model):
        # at L = 710 the small-wing strike x0 e^-L is below the smallest
        # normal double; the expansion and the priced inversion stay finite
        expn = smile.smile_expansion(kou_model, WING_SMALL)
        assert math.isfinite(expn.evaluate(710.0))
        assert self._residuals(kou_model, WING_SMALL, (710.0,))[0] < 1.0

    def test_monotone_leading_behavior(self, kou_model):
        expn = smile.smile_expansion(kou_model, WING_LARGE)
        ivs = [expn.evaluate(L) for L in (8.0, 15.0, 40.0, 90.0)]
        assert all(b > a for a, b in zip(ivs, ivs[1:]))

    def test_nonunit_spot_consistency(self):
        # the x0 normalization of the constant coefficient must survive the
        # same self-consistency loop at a non-unit spot
        j = KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0)
        h = HestonParams(mu=risk_neutral_drift(j), a=1.0, b=2.0, c=0.5, rho=-0.3,
                         x0=1.7, y0=0.04, t=1.0)
        model = MixedModel(heston=h, jumps=j)
        vals = self._residuals(model, WING_LARGE, (10.0, 30.0, 100.0))
        assert max(vals) < 1.0

    def test_guard(self, kou_model):
        expn = smile.smile_expansion(kou_model, WING_LARGE)
        with pytest.raises(RegimeGuardError):
            expn.evaluate(2.0)


class TestExactPriceAgreement:
    def test_moderate_strikes_within_ten_percent(self, kou_model):
        from wingtail import oracles

        expn = smile.smile_expansion(kou_model, WING_LARGE)
        for L in (5.0, 8.0):
            K = math.exp(L)
            iv_exact = smile.bs_implied_vol_from_log(math.log(oracles.call_fourier(kou_model, K)), math.log(K), 1.0)
            assert expn.evaluate(L) == pytest.approx(iv_exact, rel=0.10)
