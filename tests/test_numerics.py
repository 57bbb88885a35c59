import math

import numpy as np
import pytest
from scipy.integrate import quad

from wingtail import nig
from wingtail.errors import BracketingError, ConvergenceError, DivergenceError, DomainError
from wingtail.nig import NIGParams
from wingtail.numerics import (
    RngStream,
    Tolerance,
    find_root,
    integrate,
    log_gamma,
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
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_factorial(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        # Gamma(5/2) = 3 sqrt(pi) / 4
        assert log_gamma(2.5) == pytest.approx(math.log(3.0 * math.sqrt(math.pi) / 4.0), rel=1e-14)

    def test_recursion_on_grid(self):
        for x in np.linspace(0.5, 100.0, 200):
            assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


def bessel_k1(z):
    """K1(z) as the library evaluates it: inside the NIG log-jump density, which
    at y = 0 with alpha = 1 and delta t = z equals e^z K1(z) / pi."""
    return math.pi * math.exp(-z) * nig.nig_log_density(NIGParams(alpha=1.0, delta=z, t=1.0), 0.0)


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
        # at y with alpha sqrt(y^2 + (delta t)^2) = 780 the density underflows
        with pytest.warns(RuntimeWarning):
            assert nig.nig_log_density(NIGParams(alpha=1.0, delta=1.0, t=1.0), math.sqrt(780.0**2 - 1.0)) == 0.0

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


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-12)

    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(987).uniform(size=32)
        b = RngStream(987).uniform(size=32)
        assert np.array_equal(a, b)

    def test_substreams_uncorrelated(self):
        n = 1_000_000
        root = RngStream(2024)
        u = root.substream(0).uniform(size=n)
        v = root.substream(1).uniform(size=n)
        r = np.corrcoef(u, v)[0, 1]
        assert abs(r) < 3.0 / math.sqrt(n)

    def test_uniform_mean(self):
        n = 1_000_000
        u = RngStream(7).uniform(size=n)
        assert abs(u.mean() - 0.5) < 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(n)

    def test_substream_differs_from_parent(self):
        root = RngStream(55)
        child = RngStream(55).substream(3)
        assert not np.array_equal(root.uniform(size=8), child.uniform(size=8))

    @pytest.mark.parametrize("seed", [-1, 1.5, -2.0, math.nan, math.inf, "7"])
    def test_bad_seed_refused_by_name(self, seed):
        with pytest.raises(DomainError, match="seed"):
            RngStream(seed)

    def test_whole_float_seed_is_the_integer_seed(self):
        assert np.array_equal(RngStream(3.0).uniform(size=8), RngStream(3).uniform(size=8))
