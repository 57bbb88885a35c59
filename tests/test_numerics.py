import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from mpmath import mp
from scipy import special

from wingtail import cli, heston, kou, mellin, nig, numerics, oracles
from wingtail.errors import BracketingError, ConvergenceError, DivergenceError, DomainError
from wingtail.heston import HestonParams
from wingtail.nig import NIGParams
from wingtail.numerics import (
    DEFAULT_TOL,
    DIVERGENCE_GAIN,
    DIVERGENCE_RUN,
    DIVERGENCE_STEP,
    MAX_WINDOWS,
    RngStream,
    Tolerance,
    complex_namespace,
    erfcx,
    find_root,
    integrate,
    k1e,
    logsumexp,
    ndtri,
    window_sweep,
)


class TestTolerance:
    def test_defaults_valid(self):
        t = Tolerance()
        assert t.rel > 0 and t.abs >= 0 and t.max_iter >= 1

    @pytest.mark.parametrize("kwargs", [dict(rel=0.0), dict(rel=-1e-3), dict(abs=-1.0), dict(max_iter=0)])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)

    @pytest.mark.parametrize("field", ["rel", "abs", "max_iter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=f"Tolerance.{field} must be finite"):
            Tolerance(**{field: value})


class TestLogGamma:
    # kou.frac_integral divides by Gamma(-order) = exp(math.lgamma(-order))
    def test_at_one(self):
        assert math.lgamma(1.0) == 0.0

    def test_factorial(self):
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        # Gamma(5/2) = 3 sqrt(pi) / 4
        assert math.lgamma(2.5) == pytest.approx(math.log(3.0 * math.sqrt(math.pi) / 4.0), rel=1e-14)

    def test_recursion_on_grid(self):
        for x in np.linspace(0.5, 100.0, 200):
            assert math.lgamma(x + 1.0) - math.lgamma(x) == pytest.approx(math.log(x), abs=1e-12, rel=1e-12)


class TestSpecialFunctionPorts:
    """The ports of scipy.special that the CLI runs on, against scipy and mpmath,
    across every switch of their forms."""

    def test_erfcx_against_scipy_and_mpmath(self):
        # both sides of the switch to the asymptotic series at 26: within 8
        # ulps of scipy, and within 5e-16 of 40 digits
        xs = np.concatenate([np.geomspace(1e-300, 1e-3, 30), np.linspace(0.0, 26.0, 2601)[:-1],
                             [math.nextafter(26.0, 0.0), 26.0], np.geomspace(26.0, 1e6, 200)[1:]])
        for x in map(float, xs):
            want = special.erfcx(x)
            assert abs(erfcx(x) - want) <= 8 * math.ulp(want)
        with mp.workdps(40):
            for x in map(float, xs[::5]):
                want = mp.exp(mp.mpf(x) ** 2) * mp.erfc(x)
                assert abs(erfcx(x) - want) <= 5e-16 * want

    def test_k1e_against_scipy_and_mpmath(self):
        # both sides of the switch at 1 and of scipy's at 2: within 1e-15 of
        # scipy, and within 4e-16 of 40 digits
        xs = np.concatenate([np.geomspace(1e-300, 0.5, 40), np.linspace(0.5, 3.0, 251),
                             [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0],
                             np.geomspace(3.0, 1e6, 60)])
        got = k1e(xs)
        assert np.all(np.abs(got / special.k1e(xs) - 1.0) <= 1e-15)
        with mp.workdps(40):
            for x, value in zip(map(float, xs), got):
                want = mp.exp(mp.mpf(x)) * mp.besselk(1, x)
                assert abs(value - want) <= 4e-16 * want
        assert k1e(np.array([[0.5, 4.0]])).shape == (1, 2)

    def test_ndtri_against_scipy(self):
        # from the smallest normal double through 1/2 to 1 - 1e-16: within
        # 1e-15 max(1, |z|) of scipy
        ps = np.concatenate([np.geomspace(sys.float_info.min, 0.5, 3000), np.linspace(0.4, 0.6, 401),
                             1.0 - np.geomspace(1e-16, 0.4, 300)])
        for p in map(float, ps):
            want = special.ndtri(p)
            assert abs(ndtri(p) - want) <= 1e-15 * max(1.0, abs(want))
        assert ndtri(0.5) == pytest.approx(0.0, abs=1e-17)


EPS = np.finfo(float).eps


def recorded_blocks(monkeypatch, run):
    """Every block of log terms that kou passes to logsumexp while run() runs."""
    blocks = []

    def recorded(a):
        blocks.append(np.array(a))
        return logsumexp(a)

    monkeypatch.setattr(kou, "logsumexp", recorded)
    run()
    assert blocks
    return blocks


class TestLogSumExp:
    """The shifted sum on rows of finite terms, within 2 eps of 40 digits in |error| / max(1, |value|)."""

    @staticmethod
    def assert_within_two_eps(a):
        a = np.asarray(a, dtype=float)
        values = np.reshape(logsumexp(a), -1)
        with mp.workdps(40):
            for row, value in zip(a.reshape(-1, a.shape[-1]), values):
                ref = mp.log(mp.fsum(mp.exp(x) for x in row))
                assert abs(float(value) - ref) <= 2 * EPS * max(1, abs(ref))

    @pytest.mark.parametrize("lam, k_max", [(1.0, 19), (1.0, 64), (100.0, 64)])
    def test_blocks_of_the_kou_table(self, monkeypatch, lam, k_max):
        # every block the table sums: its i-sums and its j-sums at each size
        params = kou.KouJumpParams(lam=lam, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0)
        for block in recorded_blocks(monkeypatch, lambda: kou.coefficients(params, k_max)):
            self.assert_within_two_eps(block)

    @pytest.mark.parametrize("up", [True, False])
    def test_blocks_of_the_series(self, monkeypatch, ref_kou, up):
        # the tables a cold cache builds, and one row of series terms per u
        g_log = kou.g1_log if up else kou.g2_log
        monkeypatch.setattr(kou, "_TABLE_CACHE", type(kou._TABLE_CACHE)())
        for block in recorded_blocks(monkeypatch, lambda: [g_log(ref_kou, u) for u in (0.5, 10.0, 1e3, 1e4)]):
            self.assert_within_two_eps(block)

    @pytest.mark.parametrize("width", [24, 48, 192, 768, 25, 49, 193])
    def test_rows_of_width(self, width):
        # terms spread over tens of units, as the log-coefficients of the Kou table are
        rng = np.random.default_rng(width)
        self.assert_within_two_eps(rng.normal(scale=30.0, size=(16, width)))

    def test_one_column(self):
        # a one-term row sums to its term, bit for bit
        a = np.array([[0.0], [-3.5], [700.0], [-1e3], [1e300], [-1e300]])
        assert np.array_equal(logsumexp(a), a[:, 0])

    def test_a_row_of_minus_inf_is_loud(self):
        # outside the contract: the shift -inf - (-inf) is an invalid value, not a silent -inf
        with pytest.warns(RuntimeWarning, match="invalid value"):
            value = logsumexp(np.full(7, -np.inf))
        assert np.isnan(value)

    @pytest.mark.parametrize("width", [2, 24, 65])
    def test_tied_maxima(self, width):
        rng = np.random.default_rng(width)
        a = rng.normal(size=(6, width))
        a[0] = 1.0
        a[1, ::2] = 4.0
        a[2, 2:] = 3.0
        self.assert_within_two_eps(a)

    @pytest.mark.parametrize("width", [24, 193])
    def test_spread_past_underflow(self, width):
        # terms 800 below the maximum underflow in exp and add 0
        rng = np.random.default_rng(width)
        a = -800.0 * rng.random((40, width))
        a[:, 0] = 0.0
        a[:, -1] = -800.0
        self.assert_within_two_eps(a)
        self.assert_within_two_eps(a - 1e3)

    def test_shapes(self):
        a = np.random.default_rng(5).normal(size=(2, 3, 25))
        assert logsumexp(a).shape == (2, 3)
        assert np.ndim(logsumexp(a[0, 0])) == 0
        self.assert_within_two_eps(a)


# the array namespace of the complex moment functions
XP = complex_namespace(np.zeros(1))[1]


def quadrant_points(seed, n=4000, re_max=700.0, im_max=1e3):
    """Random complex points in all four quadrants, |Re| up to re_max, |Im| up to im_max,
    with both magnitudes spread over many scales."""
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], n) * re_max * 10.0 ** rng.uniform(-8, 0, n)
    im = rng.choice([-1.0, 1.0], n) * im_max * 10.0 ** rng.uniform(-8, 0, n)
    return (re + 1j * im).reshape(40, -1)


class TestArrayKernels:
    """The array namespace's expm1 and log, built from real ufuncs, against numpy's complex ones."""

    def test_log_matches_numpy(self):
        w = quadrant_points(2, re_max=1e3)
        ref = np.log(w)
        # near |w| = 1 the real part log|w| is accurate to a few eps absolute, not relative
        assert np.max(np.abs(XP.log(w) - ref) / np.maximum(1.0, np.abs(ref))) <= 4 * EPS

    def test_expm1_matches_numpy(self):
        # numpy's complex expm1 has the same formula; near w = 0 neither cancels
        w = np.concatenate([quadrant_points(4), quadrant_points(5, re_max=1e-6, im_max=1e-6)])
        ref = np.expm1(w)
        got = XP.expm1(w)
        assert got.shape == w.shape and got.dtype == complex
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4 * EPS
        assert XP.expm1(np.array([0j]))[0] == 0j

    @pytest.mark.parametrize("w", [800.0 + 0j, complex(800.0, -0.0), -800.0 + 0j, complex(-800.0, -0.0),
                                   0j, complex(-0.0, -0.0), complex(-3.5, 0.0), complex(-3.5, -0.0), 1.0 + 0j])
    def test_real_axis_is_numpys(self, w):
        # log: the signed zeros of the cut and log 0 = -inf + 0j, bit for bit
        with np.errstate(divide="ignore"):
            got, ref = XP.log(np.array([w]))[0], np.log(w)
        assert (got.real, got.imag) == (ref.real, ref.imag)
        assert (math.copysign(1.0, got.real), math.copysign(1.0, got.imag)) == (
            math.copysign(1.0, ref.real), math.copysign(1.0, ref.imag))

    @pytest.mark.parametrize("w", [800.0 + 0j, complex(800.0, -0.0), -800.0 + 0j, complex(-800.0, -0.0),
                                   0j, complex(-0.0, -0.0), complex(-3.5, 0.0), complex(-3.5, -0.0), 1.0 + 0j])
    def test_expm1_real_axis_is_the_real_expm1(self, w):
        # expm1 of the real part, and the imaginary part that signed zero, bit for bit
        with np.errstate(over="ignore"):
            got, ref = XP.expm1(np.array([w]))[0], np.expm1(w.real)
        assert (got.real, got.imag) == (ref, w.imag)
        assert (math.copysign(1.0, got.real), math.copysign(1.0, got.imag)) == (
            math.copysign(1.0, ref), math.copysign(1.0, w.imag))

    def test_shape_and_type_kept(self):
        w = quadrant_points(3)[:3, :4]
        for fn in (XP.expm1, XP.log):
            assert fn(w).shape == w.shape and fn(w).dtype == complex


def bessel_k1(z):
    """K1(z) as the library evaluates it: inside the NIG price density, which
    at x = 1 with alpha = 1 and delta t = z equals e^z K1(z) / pi."""
    log_density = nig.nig_price_log_density_logx(NIGParams(alpha=1.0, delta=z, t=1.0), 0.0)
    return math.pi * math.exp(-z) * math.exp(log_density)


class TestBesselK1:
    def test_large_argument_decay(self):
        z = 30.0
        assert bessel_k1(z) == pytest.approx(math.sqrt(math.pi / (2 * z)) * math.exp(-z), rel=0.05)

    def test_integral_definition(self):
        # K1(z) = 1/2 int_0^inf exp(-z/2 (u + 1/u)) du
        for z in [0.1, 1.0, 5.0, 50.0]:
            oracle = 0.5 * quad(lambda u: math.exp(-0.5 * z * (u + 1.0 / u)), 0, np.inf, limit=300)[0]
            assert bessel_k1(z) == pytest.approx(oracle, rel=1e-8)

    def test_small_argument_pole(self):
        z = 1e-4
        oracle = 0.5 * quad(lambda u: math.exp(-0.5 * z * (u + 1.0 / u)), 0, np.inf, limit=500)[0]
        assert bessel_k1(z) == pytest.approx(oracle, rel=1e-6)
        assert bessel_k1(z) == pytest.approx(1.0 / z, rel=1e-3)

    def test_underflow_flag(self):
        # at x = e^400 the price density, e^-400 times the log-jump's density
        # e^(400 + ...) K1(400.001) / 400.001, underflows
        with pytest.warns(RuntimeWarning):
            assert nig.nig_price_density(NIGParams(alpha=1.0, delta=1.0, t=1.0), math.exp(400.0)) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            nig.nig_price_density(NIGParams(alpha=1.0, delta=1.0, t=1.0), 0.0)


class TestIntegrate:
    def test_unit_interval(self):
        values, _ = integrate(lambda y, owner: np.ones_like(y), 0.0, 1.0)
        assert values == pytest.approx(1.0, rel=1e-12)

    def test_linearity(self):
        f = lambda t: np.exp(-t)
        g = lambda t: 1.0 / (1.0 + t * t)
        ends = [1.0, 5.0, 40.0]
        lhs, _ = integrate(lambda t, owner: 2.0 * f(t) + 3.0 * g(t), 0.0, ends)
        rhs = 2.0 * integrate(lambda t, owner: f(t), 0.0, ends)[0] + 3.0 * integrate(
            lambda t, owner: g(t), 0.0, ends)[0]
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert rhs == pytest.approx(2.0 * (1.0 - np.exp(-np.array(ends))) + 3.0 * np.arctan(ends), rel=1e-9)

    def test_nonconvergence_carries_estimate(self):
        rough = lambda t, owner: np.sin(1.0 / t)
        with pytest.raises(ConvergenceError) as err:
            integrate(rough, 0.0, 1.0, Tolerance(rel=1e-14, abs=0.0))
        assert err.value.best_estimate is not None

    def test_kink_accepted_on_the_whole_panel(self):
        # (v - 1/3)^2 for v > 1/3, 0 below: the panel holding the kink fails
        # its own test at every depth, while its error shrinks like its width^3
        values, errors = integrate(lambda v, owner: np.maximum(v - 1.0 / 3.0, 0.0) ** 2, 0.0, 1.0,
                                   Tolerance(rel=1e-10, abs=0.0))
        assert values == pytest.approx((2.0 / 3.0) ** 3 / 3.0, rel=1e-10)
        assert errors <= 1e-10 * values


class TestIntegratePanels:
    def test_exact_on_polynomials_to_degree_31(self):
        for degree in (0, 7, 19, 31):
            values, errors = integrate(lambda x, owner: x**degree, 0.0, 1.0)
            assert values == pytest.approx(1.0 / (degree + 1), rel=1e-14)
            assert errors >= 0.0

    def test_panels_and_owners(self):
        # every panel integrates its own frequency; all nodes go in one call
        calls = []

        def f(x, owner):
            calls.append(x.shape)
            return np.cos((owner[:, None] + 1.0) * x)

        values, _ = integrate(f, np.zeros((2, 2)), np.full((2, 2), 2.0))
        k = np.arange(1.0, 5.0).reshape(2, 2)
        assert values == pytest.approx(np.sin(2.0 * k) / k, rel=1e-13)
        assert calls == [(4, 21)]

    def test_bisects_only_failing_panels(self):
        rows = []

        def f(x, owner):
            rows.append(owner.copy())
            return 1.0 / (1e-4 + x * x)

        values, errors = integrate(f, [0.0, 5.0], [1.0, 6.0], Tolerance(rel=1e-12, abs=0.0))
        exact = [math.atan(1.0 / 1e-2) / 1e-2, (math.atan(600.0) - math.atan(500.0)) / 1e-2]
        assert values == pytest.approx(exact, rel=1e-11)
        assert len(rows) > 2 and all(np.all(r == 0) for r in rows[1:])  # panel 1 settles at once
        assert np.all(errors <= 1e-12 * values * (1.0 + 1e-9))  # f > 0: the panel scales sum to the values

    def test_depth_budget_raises_with_estimate(self):
        with pytest.raises(ConvergenceError, match="bisections") as err:
            integrate(lambda x, owner: 1.0 / np.sqrt(x), 0.0, 1.0, Tolerance(rel=1e-10, abs=0.0))
        assert err.value.best_estimate == pytest.approx(2.0, rel=1e-2)
        assert err.value.error_estimate > 0

    def test_tolerance_below_rounding_raises(self):
        with pytest.raises(ConvergenceError, match="rounding"):
            integrate(lambda x, owner: np.cos(x), 0.0, 1.0, Tolerance(rel=1e-17, abs=0.0))

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            integrate(lambda x, owner: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def sweep(integrand, first, stop_at, tol=Tolerance(), *, growth=1.0, stop_run=2, per_call=1):
    return window_sweep(integrand, first, stop_at, tol, lambda i: f"point {i}",
                        growth=growth, stop_run=stop_run, per_call=per_call)


class TestWindowSweep:
    def test_exponential_halfline(self):
        # each point has its own rate; all points share the integrator calls
        rate = np.array([0.5, 1.0, 3.0])
        for growth, per_call in ((1.0, 1), (1.4, 8)):
            totals = sweep(lambda u, point: np.exp(-rate[point, None] * u), np.ones(3), np.full(3, 10.0),
                           growth=growth, per_call=per_call)
            assert totals == pytest.approx(1.0 / rate, rel=1e-10)

    def test_stop_position_reaches_a_far_peak(self):
        # the windows before the peak at u = 30 are negligible; stopping on
        # them would drop the whole mass
        peak = lambda u, point: np.exp(-0.5 * (u - 30.0) ** 2)
        assert sweep(peak, [1.0], [40.0]) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)
        assert sweep(peak, [1.0], [2.0]) < 1e-100

    def test_divergence_raises_with_estimate(self):
        with pytest.raises(DivergenceError, match="point 1: partial sums keep growing") as err:
            sweep(lambda u, point: np.exp(np.where(point[:, None] == 1, 0.5, -1.0) * u),
                  np.ones(2), np.full(2, 5.5))
        estimate = err.value.best_estimate
        # windows rise by e^0.5; nine of them span a factor e^4 > 50, first
        # reached by the window (8, 9); both points have run to u = 9
        assert estimate[0] == pytest.approx(1.0 - math.exp(-9.0), rel=1e-10)
        assert estimate[1] == pytest.approx(2.0 * (math.exp(4.5) - 1.0), rel=1e-10)

    def test_budget_raises_with_estimate(self):
        # 1/(1 + u) diverges too slowly for the rising-run rule; the budget stops it
        with pytest.raises(ConvergenceError, match="point 0: window budget of 704") as err:
            sweep(lambda u, point: 1.0 / (1.0 + u), [1.0], [5.0])
        assert err.value.best_estimate == pytest.approx([math.log(705.0)], rel=1e-10)


def _ref_window_sweep(integrand, first, stop_at, tol, what, *, growth, stop_run, per_call, start=0.0):
    """The sweep of `per_call` windows in every call, the first call included, kept as the reference;
    its lengths, edges and totals follow the recurrences of one window per call."""
    seg, stop_at = np.array(first, dtype=float), np.asarray(stop_at, dtype=float)
    index = np.arange(per_call)
    u0, total = np.array(np.broadcast_to(start, seg.shape), dtype=float), np.zeros(seg.size)
    run = np.zeros(seg.size, dtype=int)
    recent = np.full((seg.size, DIVERGENCE_RUN - 1), np.inf)
    active = np.arange(seg.size)
    for _ in range(MAX_WINDOWS // per_call):
        lengths = np.cumprod(np.column_stack([seg[active], np.full((active.size, per_call - 1), growth)]), axis=1)
        edges = np.cumsum(np.column_stack([u0[active], lengths]), axis=1)
        ends = edges[:, 1:]
        values, _ = numerics.integrate(lambda u, panel: integrand(u, active[panel // per_call]), edges[:, :-1],
                                       ends, tol)
        partial = np.cumsum(np.column_stack([total[active], values]), axis=1)[:, 1:]
        negligible = np.abs(values) <= np.maximum(tol.abs, tol.rel * np.abs(partial))
        last_kept = np.maximum.accumulate(np.where(negligible, -1, index), axis=1)
        runs = np.where(last_kept < 0, run[active, None] + index + 1, index - last_kept)
        past = ends > stop_at[active, None]
        stops = (runs >= stop_run) & past
        stopped = stops.any(axis=1)
        last = np.where(stopped, stops.argmax(axis=1), per_call - 1)
        rows = np.arange(active.size)
        total[active], run[active] = partial[rows, last], runs[rows, last]
        sizes = np.concatenate([recent[active], np.abs(values)], axis=1)
        recent[active] = sizes[:, -(DIVERGENCE_RUN - 1):]
        gained = sizes[:, DIVERGENCE_RUN - 1:] > DIVERGENCE_GAIN * sizes[:, :per_call]
        if gained.any():
            span = np.lib.stride_tricks.sliding_window_view(sizes, DIVERGENCE_RUN, axis=1)
            rising = (gained & past & (index <= last[:, None]) & (span[..., 0] > 0)
                      & np.all(span[..., 1:] >= DIVERGENCE_STEP * span[..., :-1], axis=-1))
            if rising.any():
                row, j = np.argwhere(rising)[0]
                total[active[row]] = partial[row, j]
                raise DivergenceError(f"{what(active[row])}: partial sums keep growing (window ending at "
                                      f"u={ends[row, j]:.3g}, size {values[row, j]:.3g})", best_estimate=total)
        u0[active], seg[active] = ends[:, -1], lengths[:, -1] * growth
        active = active[~stopped]
        if active.size == 0:
            return total
    raise ConvergenceError(f"{what(active[0])}: window budget of {MAX_WINDOWS} exhausted by "
                           f"u={u0[active[0]]:.3g}", best_estimate=total)


class TestFirstCall:
    """The first integrator call of a point takes every window that cannot stop it."""

    # integrands of three points each: decaying at different rates, peaked
    # before and after the stop position, oscillating, zero for one point
    # (whose run of negligible windows begins in its first window), and with
    # a power tail;
    # (integrand, first, stop_at)
    CASES = {
        "decay": (lambda u, point: np.exp(-np.array([0.5, 1.0, 3.0])[point, None] * u), [1.0, 1.0, 1.0],
                  [23.5, 3.5, 0.0]),
        "peaks": (lambda u, point: np.exp(-0.5 * (u - np.array([4.0, 30.0, 12.0])[point, None]) ** 2),
                  [1.0, 1.0, 0.5], [23.5, 33.5, 2.2]),
        "wave": (lambda u, point: np.exp(-0.2 * u) * np.cos(np.array([1.0, 3.0, 7.0])[point, None] * u),
                 [1.0, 0.7, 2.0], [0.0, 17.3, 39.0]),
        "vanishing": (lambda u, point: np.where(point[:, None] == 1, 0.0, np.exp(-u)), [1.0, 1.0, 1.0],
                      [23.5, 0.0, 5.5]),
        "power": (lambda u, point: (1.0 + u) ** -np.array([6.0, 8.0, 12.0])[point, None], [math.log(2.0)] * 3,
                  [27.4, 13.0, 5.5]),
    }

    @staticmethod
    def traced(sweep_fn, integrand, first, stop_at, **kw):
        """Totals, and the nodes and the farthest node of each point's integrand calls."""
        nodes, reach = np.zeros(3, dtype=int), np.zeros(3)

        def counted(u, point):
            np.add.at(nodes, point, u.shape[1])
            np.maximum.at(reach, point, u.max(axis=1))
            return integrand(u, point)

        totals = sweep_fn(counted, np.array(first), np.array(stop_at), Tolerance(), lambda i: f"point {i}", **kw)
        return totals, nodes, reach

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("stop_run", [1, 2, 3])
    @pytest.mark.parametrize("growth", [1.0, 1.4])
    def test_same_totals_windows_and_nodes_as_one_window_per_call(self, case, stop_run, growth):
        integrand, first, stop_at = self.CASES[case]
        kw = dict(growth=growth, stop_run=stop_run, per_call=1)
        want, want_nodes, want_reach = self.traced(_ref_window_sweep, integrand, first, stop_at, **kw)
        got, nodes, reach = self.traced(window_sweep, integrand, first, stop_at, **kw)
        # a window and a total do not depend on how the windows are split into calls
        assert np.array_equal(got, want)
        # the same stop window of each point: its farthest node is the same
        assert np.array_equal(reach, want_reach)
        assert np.array_equal(nodes, want_nodes)

    def test_the_first_call_takes_the_windows_before_the_stop(self, monkeypatch):
        calls = []

        def counting(f, a, b, tol=numerics.DEFAULT_TOL):
            calls.append(np.size(a))
            return integrate(f, a, b, tol)

        monkeypatch.setattr(numerics, "integrate", counting)
        sweep(lambda u, point: np.exp(-u), [1.0, 1.0], [23.5, 23.5])
        # 24 windows of each point, the last ones past the stop. Window
        # (23, 24) is the first negligible one, so each point needs one more
        assert calls == [24 + 24, 2]
        calls.clear()
        sweep(lambda u, point: np.exp(-u), [1.0, 1.0], [23.5, 30.5])
        # the nearer stop sets the first call: 24 windows of each point. Point
        # 0 stops in the second call, point 1 one window at a time at (30, 31)
        assert calls == [24 + 24, 2, 1, 1, 1, 1, 1, 1]

    def test_divergence_after_a_short_first_call(self):
        # point 1 takes 6 windows in the first call, point 0 takes 21; point
        # 1's rising run then spans the two calls
        integrand = lambda u, point: np.exp(np.where(point[:, None] == 1, 0.5, -1.0) * u)
        errors = []
        for sweep_fn in (window_sweep, _ref_window_sweep):
            with pytest.raises(DivergenceError) as err:
                sweep_fn(integrand, np.ones(2), np.array([20.5, 5.5]), Tolerance(), lambda i: f"point {i}",
                         growth=1.0, stop_run=2, per_call=1)
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].best_estimate[1] == errors[1].best_estimate[1]
        assert "window ending at u=9," in str(errors[0])

    @pytest.mark.parametrize("z", [-3.0, 1.5, 2.0])
    def test_transform_outside_the_strip_raises_as_before(self, z, monkeypatch):
        # 1/(1 + t^2) has the strip (-1, 1) of transform orders
        U = lambda t: 1.0 / (1.0 + t * t)
        with pytest.raises(DivergenceError) as got:
            mellin.mellin_transform(U, z)
        monkeypatch.setattr(mellin, "window_sweep", _ref_window_sweep)
        with pytest.raises(DivergenceError) as want:
            mellin.mellin_transform(U, z)
        assert str(got.value) == str(want.value)
        assert np.array_equal(got.value.best_estimate, want.value.best_estimate)

    @pytest.mark.parametrize("name", ["pure_heston", "reference_kou", "reference_nig"])
    def test_peak_sweep_makes_the_calls_it_made(self, name, monkeypatch):
        # a single point takes 16 windows per call, 9 and 42 points take 8
        model = cli.load_config(f"{CONFIG_DIR}/{name}.json").model
        calls = []

        def counting(f, a, b, tol=numerics.DEFAULT_TOL):
            calls.append(1)
            return integrate(f, a, b, tol)

        monkeypatch.setattr(numerics, "integrate", counting)
        for x in (np.exp(np.linspace(-6.0, 6.0, 9)), np.exp(np.linspace(-6.0, 6.0, 42)), 2.5):
            monkeypatch.setattr(oracles, "window_sweep", window_sweep)
            calls.clear()
            got, got_calls = oracles.density_fourier(model, x), len(calls)
            monkeypatch.setattr(oracles, "window_sweep", _ref_window_sweep)
            calls.clear()
            want = oracles.density_fourier(model, x)
            assert got_calls == len(calls)
            assert np.array_equal(got, want)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-12)

    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_no_bracket_at_underflowing_values(self):
        # f(lo) * f(hi) underflows to 0 here: the signs are compared, not the product
        with pytest.raises(BracketingError):
            find_root(lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_empty_bracket_refused(self, lo, hi):
        with pytest.raises(DomainError, match="lo < hi"):
            find_root(lambda x: x - 1.5, lo, hi)

    @pytest.mark.parametrize("f, x", [
        (lambda x: math.nan if x > 0.5 else x - 0.7, "1.0"),  # at the bracket end
        (lambda x: math.inf if x > 0.5 else x - 0.7, "1.0"),
        (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.7, "0.7"),  # at the first iterate
    ])
    def test_non_finite_value_refused_naming_x(self, f, x):
        with pytest.raises(DomainError, match=rf"f\({x}\) = (nan|inf) is not finite"):
            find_root(f, 0.0, 1.0)

    def test_exhausted_budget_carries_last_iterate(self):
        tol = Tolerance(rel=1e-15, abs=1e-15, max_iter=3)
        with pytest.raises(ConvergenceError, match="budget of 3 iterations") as err:
            find_root(_sqrt2_gap, 1.0, 2.0, tol)
        last, info = brentq(_sqrt2_gap, 1.0, 2.0, xtol=1e-15, rtol=1e-15, maxiter=3, disp=False, full_output=True)
        assert not info.converged
        assert err.value.best_estimate == last


def _sqrt2_gap(x):
    return x * x - 2.0


def _scipy_find_root(f, lo, hi, tol):
    """scipy.optimize.brentq at the xtol, rtol and budget that find_root uses."""
    xtol = max(tol.abs, 4.0 * sys.float_info.epsilon * max(abs(lo), abs(hi), 1.0))
    return brentq(f, lo, hi, xtol=xtol, rtol=max(tol.rel, 8.9e-16), maxiter=tol.max_iter)


def _evaluations(solver, f, lo, hi, tol):
    """(solver's root, every x at which it evaluated f, in order)."""
    xs = []

    def counted(x):
        xs.append(x)
        return f(x)

    return solver(counted, lo, hi, tol), xs


CRITICAL_TOL = Tolerance(rel=4e-16, abs=1e-13, max_iter=300)  # heston.critical_moments
# the Heston box of perfbench's param-sweep, and a wider one around it
SWEEP_BOX = dict(a=(0.6, 1.2), b=(1.0, 3.0), c=(0.45, 0.8), rho=(-0.7, -0.1), y0=(0.02, 0.08), t=(1.0, 1.0))
WIDE_BOX = dict(a=(0.0, 6.0), b=(0.0, 8.0), c=(0.05, 3.0), rho=(-0.99, 0.0), y0=(0.001, 1.0), t=(0.05, 10.0))


class TestBrentParity:
    """find_root is a port of scipy's brentq: the same points evaluated, the same double returned."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, CRITICAL_TOL, Tolerance(rel=1e-4, abs=1e-6, max_iter=50)])
    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x - 2.0, 0.0, 5.0),
        (_sqrt2_gap, 1.0, 2.0),
        (lambda x: math.exp(x) - 1e6, 0.0, 20.0),
        (lambda x: math.tanh(50.0 * x), -1.0, 3.0),
        (lambda x: x - 1.0, 0.0, 1.0),  # root at the bracket end
        (lambda x: math.sin(x), 3.0, 4.0),
        # values near the bottom of the double range: the extrapolation's
        # denominator underflows to 0, where scipy's C quotient is inf or NaN
        (lambda x: 1e-300 * (x ** 3 - 2.0), 0.0, 4.0),
    ])
    def test_fixed_functions(self, f, lo, hi, tol):
        got, xs = _evaluations(find_root, f, lo, hi, tol)
        want, want_xs = _evaluations(_scipy_find_root, f, lo, hi, tol)
        assert got == want
        assert xs == want_xs

    @pytest.mark.parametrize("box, seed", [(SWEEP_BOX, 101), (WIDE_BOX, 102)])
    def test_critical_moments(self, box, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        problems = []

        def spy(f, lo, hi, tol):
            problems.append((f, lo, hi, tol))
            return find_root(f, lo, hi, tol)

        for _ in range(150):
            params = HestonParams(mu=0.0, x0=1.0, **{key: float(rng.uniform(lo, hi)) for key, (lo, hi) in box.items()})
            monkeypatch.setattr(heston, "find_root", spy)
            got = heston.critical_moments.__wrapped__(params)
            monkeypatch.setattr(heston, "find_root", _scipy_find_root)
            assert got == heston.critical_moments.__wrapped__(params)
        assert len(problems) == 300 and {tol for *_, tol in problems} == {CRITICAL_TOL}
        for f, lo, hi, tol in problems:
            assert _evaluations(find_root, f, lo, hi, tol) == _evaluations(_scipy_find_root, f, lo, hi, tol)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(987).generator.uniform(size=32)
        b = RngStream(987).generator.uniform(size=32)
        assert np.array_equal(a, b)

    def test_substreams_uncorrelated(self):
        n = 1_000_000
        root = RngStream(2024)
        u = root.substream(0).generator.uniform(size=n)
        v = root.substream(1).generator.uniform(size=n)
        r = np.corrcoef(u, v)[0, 1]
        assert abs(r) < 3.0 / math.sqrt(n)

    def test_uniform_mean(self):
        n = 1_000_000
        u = RngStream(7).generator.uniform(size=n)
        assert abs(u.mean() - 0.5) < 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(n)

    def test_substream_differs_from_parent(self):
        root = RngStream(55)
        child = RngStream(55).substream(3)
        assert not np.array_equal(root.generator.uniform(size=8), child.generator.uniform(size=8))

    @pytest.mark.parametrize("seed", [-1, 1.5, -2.0, math.nan, math.inf, "7"])
    def test_bad_seed_refused_by_name(self, seed):
        with pytest.raises(DomainError, match="seed"):
            RngStream(seed)

    def test_whole_float_seed_is_the_integer_seed(self):
        assert np.array_equal(RngStream(3.0).generator.uniform(size=8), RngStream(3).generator.uniform(size=8))


class _StubGenerator:
    """Stands in for a Generator: `random` hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.used = 0

    def random(self, out=None):
        if out is None:
            self.used += 1
            return float(self.uniforms[self.used - 1])
        out[:] = self.uniforms[self.used:self.used + out.size]
        self.used += out.size
        return out


class TestNormals:
    """`numerics._normals`, the Box-Muller kernel behind every Monte Carlo normal."""

    def test_standard_normal_law(self):
        # stated before the run, on 2^20 draws of one seed: the Kolmogorov-Smirnov
        # statistic at most 1.63/sqrt(n) (its 1% point), |mean| <= 4/sqrt(n)
        # and |var - 1| <= 4 sqrt(2/n), four standard errors each
        n = 1 << 20
        z = numerics._normals(RngStream(2024).generator, np.empty(n))
        cdf = special.ndtr(np.sort(z))
        ranks = np.arange(1, n + 1) / n
        ks = max(float(np.max(ranks - cdf)), float(np.max(cdf - (ranks - 1.0 / n))))
        assert ks <= 1.63 / math.sqrt(n)
        assert abs(float(z.mean())) <= 4.0 / math.sqrt(n)
        assert abs(float(z.var()) - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_edge_uniforms(self):
        # u1 = 0 gives r = 0, and u1 = 1 - 2^-53 the largest radius
        # sqrt(-2 log 2^-53) = sqrt(106 log 2); u2 at the quarter turns and at
        # the top of [0, 1). Stated before the run: every draw finite, within
        # that radius, and within 4 eps r of r cos(2 pi u2) and r sin(2 pi u2)
        u1, u2 = (g.ravel() for g in np.meshgrid([0.0, 0.5, 1.0 - 2.0**-53],
                                                 [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]))
        gen = _StubGenerator(np.concatenate([u1, u2]))
        z = numerics._normals(gen, np.empty(2 * u1.size))
        assert gen.used == z.size
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        assert np.all(np.isfinite(z)) and np.max(np.abs(z)) <= math.sqrt(106.0 * math.log(2.0))
        eps = np.finfo(float).eps
        h = u1.size
        assert np.all(np.abs(z[:h] - r * np.cos(2.0 * np.pi * u2)) <= 4.0 * eps * r)
        assert np.all(np.abs(z[h:] - r * np.sin(2.0 * np.pi * u2)) <= 4.0 * eps * r)

    def test_matches_libm_on_a_seeded_stream(self):
        # the same 4 eps r bound on 2^16 pairs of draws of one seed
        n = 1 << 17
        u = RngStream(5).generator.random(n)
        z = numerics._normals(RngStream(5).generator, np.empty(n))
        r, theta = np.sqrt(-2.0 * np.log(1.0 - u[: n // 2])), 2.0 * np.pi * u[n // 2:]
        eps = np.finfo(float).eps
        assert np.all(np.abs(z[: n // 2] - r * np.cos(theta)) <= 4.0 * eps * r)
        assert np.all(np.abs(z[n // 2:] - r * np.sin(theta)) <= 4.0 * eps * r)

    @pytest.mark.parametrize("n", [1, 3, 7, 2**15 + 7])
    def test_odd_size_is_the_next_even_size_cut(self, n):
        # 2 ceil(n/2) uniforms in all: an odd size draws the cosines of the next
        # even size and all but the last of its sines
        odd = numerics._normals(RngStream(3).generator, np.empty(n))
        even = numerics._normals(RngStream(3).generator, np.empty(n + 1))
        h = (n + 1) // 2
        assert np.array_equal(odd[:h], even[:h]) and np.array_equal(odd[h:], even[h:n])

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_scale_and_work_buffer(self, n):
        # scale multiplies the radius: each side is within 4 eps of its radius
        # of the exact draw, so they differ by at most 8 eps 0.3 r. A caller's
        # work buffer (longer than needed here) gives the kernel's own draws
        h = (n + 1) // 2
        u1 = RngStream(11).generator.random(h)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        radius = np.concatenate([r, r[: n - h]])
        unit = numerics._normals(RngStream(11).generator, np.empty(n))
        scaled = numerics._normals(RngStream(11).generator, np.empty(n), 0.3, np.full(n, np.nan))
        assert np.all(np.abs(scaled - 0.3 * unit) <= 8.0 * np.finfo(float).eps * 0.3 * radius)
        assert np.array_equal(numerics._normals(RngStream(11).generator, np.empty(n), 1.0, np.empty(n)), unit)
