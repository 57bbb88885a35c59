import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from wingtail import kou, mellin, numerics
from wingtail.errors import DivergenceError, DomainError
from wingtail.mellin import (
    AT_INFINITY,
    AT_ZERO,
    ERROR_INV_LOG,
    ERROR_INV_SQRT_LOG,
    WING_LARGE,
    WING_SMALL,
    TailAsymptote,
    convolve_asymptote,
    side_of,
    mellin_convolve,
    mellin_transform,
)
from wingtail.numerics import Tolerance


def uniform01(t):
    return np.where((t > 0.0) & (t < 1.0), 1.0, 0.0)


def expdens(t):
    return np.exp(-t)


def compact(v, norm):
    """(v - 1/2)^2 (2 - v)^2 / norm on (1/2, 2), zero elsewhere."""
    return np.where((v > 0.5) & (v < 2.0), (v - 0.5) ** 2 * (2.0 - v) ** 2 / norm, 0.0)


def lognormal(m, s):
    def dens(t):
        return np.exp(-((np.log(t) - m) ** 2) / (2 * s * s)) / (t * s * math.sqrt(2 * math.pi))

    return dens


class TestStripAndRecord:
    def test_record_validation(self):
        with pytest.raises(DomainError):
            TailAsymptote(r1=-1.0, r2=0.0, r3=3.0, r4=0.0)
        with pytest.raises(DomainError):
            TailAsymptote(r1=1.0, r2=-0.5, r3=3.0, r4=0.0)

    def test_record_value_both_sides(self):
        rec = TailAsymptote(r1=2.0, r2=1.0, r3=3.0, r4=-0.75, side=AT_INFINITY)
        x = math.exp(9.0)
        expected = 2.0 * x**-3.0 * math.exp(math.sqrt(9.0)) * 9.0**-0.75
        assert math.exp(rec.log_value_logx(9.0)) == pytest.approx(expected, rel=1e-12)
        rec0 = TailAsymptote(r1=2.0, r2=1.0, r3=3.0, r4=-0.75, side=AT_ZERO)
        x = math.exp(-9.0)
        assert math.exp(rec0.log_value_logx(9.0)) == pytest.approx(2.0 * x**3.0 * math.exp(3.0) * 9.0**-0.75,
                                                                   rel=1e-12)

    def test_record_wrong_side(self):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        # a record is read at ell = |log x| > 0; x = 0.5 would be ell = log 0.5 < 0
        for ell in (math.log(0.5), 0.0):
            with pytest.raises(DomainError):
                rec.log_value_logx(ell)
            with pytest.raises(DomainError):
                rec.error_bound_logx(ell)


class TestWingsAndReflection:
    def test_side_of_wing(self):
        assert (side_of(WING_LARGE), side_of(WING_SMALL)) == (AT_INFINITY, AT_ZERO)
        with pytest.raises(DomainError):
            side_of("middle")

    def test_mellin_point(self):
        assert TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY).mellin_point == -3.0
        assert TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_ZERO).mellin_point == 3.0

    def test_reflected_is_the_density_reflected_about_the_spot(self):
        # y^-3 D(1/y) equals the record reflected about the unit spot, with or
        # without a slowly varying factor: at y = e^ell, 1/y is at |log x| = ell
        # too (reflection about other spots: test_smile's put-call symmetry)
        for r2, r4 in ((0.0, 0.0), (1.2, -0.75)):
            zrec = TailAsymptote(r1=0.7, r2=r2, r3=1.5, r4=r4, side=AT_ZERO)
            refl = zrec.reflected()
            assert (refl.side, refl.r3) == (AT_INFINITY, zrec.r3 + 3.0)
            for ell in (math.log(1e3), math.log(1e8), 1e4, 1e6):
                assert refl.log_value_logx(ell) == pytest.approx(-3.0 * ell + zrec.log_value_logx(ell), rel=1e-12)

    def test_reflected_needs_a_record_at_zero(self):
        with pytest.raises(DomainError):
            TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY).reflected()


class TestTransform:
    def test_density_normalization(self):
        # any probability density at z = -1 gives total mass 1
        assert mellin_transform(expdens, -1.0) == pytest.approx(1.0, rel=1e-9)
        assert mellin_transform(uniform01, -1.0) == pytest.approx(1.0, rel=1e-9)

    def test_uniform_elementary(self):
        assert mellin_transform(uniform01, -2.0) == pytest.approx(0.5, rel=1e-9)

    def test_gamma_identity(self):
        # for the exponential density the transform at z equals Gamma(-z)
        for z in (-1.0, -2.5, -0.5):
            assert mellin_transform(expdens, z) == pytest.approx(math.gamma(-z), rel=1e-9)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError) as err:
            mellin_transform(lambda t: 1.0 / (1.0 + t * t), -3.0)
        assert "-3" in str(err.value)

    def test_reflection_identity(self):
        # transform of t -> U(1/t) at z equals transform of U at -z
        f = lognormal(0.3, 0.7)
        for z in (-0.5, -1.5, 0.5):
            lhs = mellin_transform(lambda t: f(1.0 / t), z)
            rhs = mellin_transform(f, -z)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestConvolve:
    def test_indicator_pair(self):
        # closed form log(1/x) on (0, 1); f jumps at t = x and g at t = 1, so
        # log x away from the integers and the half-integers puts the two
        # jumps at unrelated offsets within the unit windows
        for log_x in (-1.0, -0.5, -1.5, -0.3, -2.7):
            assert mellin_convolve(uniform01, uniform01, math.exp(log_x)) == pytest.approx(-log_x, rel=1e-9)

    def test_kou_jump_density_at_fractional_log_x(self, ref_kou):
        # the Kou jump density jumps at 1; as either factor it matches scipy
        # quad split at both jumps
        h = ref_kou.price_density
        f = lognormal(0.1, 0.4)
        for log_x in (-0.3, 2.7):
            x = math.exp(log_x)
            for a, b in ((f, h), (h, f)):
                lo, hi = sorted((0.0, log_x))
                ref = sum(quad(lambda v: float(a(x / math.exp(v)) * b(math.exp(v))), v0, v1,
                               epsabs=0.0, epsrel=1e-12, limit=400)[0]
                          for v0, v1 in ((lo - 40.0, lo), (lo, hi), (hi, hi + 40.0)))
                assert mellin_convolve(a, b, x) == pytest.approx(ref, rel=1e-9)

    def test_exponential_pair_bessel(self):
        assert mellin_convolve(expdens, expdens, 1.0) == pytest.approx(2.0 * k0(2.0), rel=1e-9)

    def test_lognormal_product(self):
        f, g = lognormal(0.2, 0.5), lognormal(-0.4, 0.8)
        h = lognormal(-0.2, math.hypot(0.5, 0.8))
        for x in (0.5, 1.0, 2.5):
            assert mellin_convolve(f, g, x) == pytest.approx(h(x), rel=1e-9)
            # a smooth f needs no panel edge at log x
            assert mellin_convolve(f, g, x, f_jumps_at_one=False) == pytest.approx(h(x), rel=1e-9)
        # with g centred at log t = log x the integrand peaks there, at
        # |log x| = 30 inside the span from 0 to log x
        tol = Tolerance(rel=1e-10, abs=1e-300)
        for log_x in (-30.0, -20.0, 20.0, 30.0):
            g, h = lognormal(log_x, 0.8), lognormal(log_x + 0.2, math.hypot(0.5, 0.8))
            assert mellin_convolve(f, g, math.exp(log_x), tol) == pytest.approx(h(math.exp(log_x)), rel=1e-9)

    def test_reflection(self):
        f, g = lognormal(0.2, 0.5), expdens
        lhs = mellin_convolve(f, g, 2.0)
        rhs = mellin_convolve(lambda u: f(1.0 / u), lambda u: g(1.0 / u), 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_commutativity(self):
        f, g = lognormal(0.2, 0.5), lognormal(-0.1, 0.3)
        assert mellin_convolve(f, g, 1.7) == pytest.approx(mellin_convolve(g, f, 1.7), rel=1e-9)

    @pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -1.0])
    def test_refuses_x_outside_the_domain(self, x):
        with pytest.raises(DomainError, match=f"requires finite x > 0, got {x}"):
            mellin_convolve(uniform01, uniform01, x)

    @pytest.mark.parametrize("log_x, cover, edges, starts", [
        (2.37, (0.0, 0.0), [0.0, 1.0, 2.0, 2.37, 3.0], (3.0, 0.0)),
        (-1.18, (0.0, 0.0), [-2.0, -1.18, -1.0, 0.0], (0.0, -2.0)),
        (2.0, (0.0, 0.0), [0.0, 1.0, 2.0], (2.0, 0.0)),
        (1e-12, (0.0, 0.0), [0.0, 1e-12, 1.0], (1.0, 0.0)),
        (0.0, (0.0, 0.0), None, (0.0, 0.0)),
        (30.0, (0.0, 0.0), [float(v) for v in range(0, 31)], (30.0, 0.0)),
        (2.37, (-3.5, 1.2), [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 2.37, 3.0], (3.0, -4.0)),
        (-1.18, (-0.5, 40.2), [-2.0, -1.18] + [float(v) for v in range(-1, 42)], (41.0, -2.0)),
        (0.0, (-2.0, 1.5), [-2.0, -1.0, 0.0, 1.0, 2.0], (2.0, -2.0)),
    ])
    def test_panels_lie_on_the_lattice(self, monkeypatch, log_x, cover, edges, starts):
        # the span is split at the integers and at log x, and reaches from the
        # lattice point at or below 0, log x and the cover to the one at or
        # above them; the sweeps start from its ends
        spans, names = [], []

        def recording_integrate(f, a, b, tol):
            spans.append(np.append(a, b[-1]).tolist())
            return numerics.integrate(f, a, b, tol)

        def recording_sweep(integrand, first, stop_at, tol, what, **kw):
            names.extend([what(0), what(1)])
            return numerics.window_sweep(integrand, first, stop_at, tol, what, **kw)

        monkeypatch.setattr(mellin, "integrate", recording_integrate)
        monkeypatch.setattr(mellin, "window_sweep", recording_sweep)
        x = math.exp(log_x)
        mellin_convolve(lognormal(0.2, 0.5), lognormal(-0.4, 0.8), x, cover=cover)
        assert spans == ([] if edges is None else [[math.log(x) if v == log_x else v for v in edges]])
        assert [name.split(", ")[-1] for name in names] == [f"v > {starts[0]:.6g}", f"v < {starts[1]:.6g}"]

    @pytest.mark.parametrize("log_x", [-30.0, -2.37, 0.0, 1.5, 5.2, 23.9, 30.0])
    def test_first_sweep_call_takes_as_many_windows_each_way(self, monkeypatch, log_x):
        first_call = []

        def recording_sweep(integrand, *args, **kw):
            def recording(u, point):
                if not first_call:
                    first_call.append(np.bincount(point, minlength=2).tolist())
                return integrand(u, point)

            return numerics.window_sweep(recording, *args, **kw)

        monkeypatch.setattr(mellin, "window_sweep", recording_sweep)
        mellin_convolve(lognormal(0.2, 0.5), lognormal(-0.4, 0.8), math.exp(log_x))
        # SWEEP_WINDOWS unit windows of each direction, whatever the span
        (up, down), = first_call
        assert up == down == mellin.SWEEP_WINDOWS


class TestAsymptoteTransfer:
    def test_identity_prefactor(self):
        # constant slowly varying part and unit transform leave the record unchanged
        rec = TailAsymptote(r1=0.7, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        strip = (-6.0, 4.0)
        out = convolve_asymptote(rec, strip, 1.0)
        assert out.r1 == rec.r1 and out.r2 == rec.r2 and out.r3 == rec.r3 and out.r4 == rec.r4

    def test_prefactor_is_transform_value(self, ref_kou):
        strip = (-11.0, 9.0)
        rec = kou.h_wing_record(ref_kou, WING_LARGE)
        norm = quad(lambda v: (v - 0.5) ** 2 * (2.0 - v) ** 2, 0.5, 2.0)[0]
        U = lambda v: compact(v, norm)
        out = convolve_asymptote(rec, strip, mellin_transform(U, rec.mellin_point))
        mu = quad(lambda v: U(v) * v**ref_kou.eta1, 0.5, 2.0)[0]
        assert out.r1 == pytest.approx(rec.r1 * mu, rel=1e-9)

    def test_dominance_dichotomy_enforced(self, ref_kou):
        rec = kou.h_wing_record(ref_kou, WING_LARGE)  # power exponent 3: the moment of order 2
        with pytest.raises(DomainError):
            convolve_asymptote(rec, (-6.0, 1.0), 1.0)

    def test_strip_is_open(self):
        # the order -rho - 1 = 2 must lie strictly inside the moment strip
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=3.0, r4=0.0, side=AT_INFINITY)
        for strip in ((-1.0, 2.0), (2.0, 5.0), (1.0, 1.0)):
            with pytest.raises(DomainError, match="outside the co-factor's open moment strip"):
                convolve_asymptote(rec, strip, 1.0)
        assert convolve_asymptote(rec, (-1.0, 2.0 + 1e-12), 1.0).r1 == 1.0

    def test_numeric_ratio_to_quadrature(self, ref_kou):
        # compact factor times the jump density: quadrature over asymptote -> 1
        norm = quad(lambda v: (v - 0.5) ** 2 * (2.0 - v) ** 2, 0.5, 2.0)[0]
        U = lambda v: compact(v, norm)
        strip = (-11.0, 9.0)
        h_rec = kou.h_wing_record(ref_kou, WING_LARGE)
        rec = convolve_asymptote(h_rec, strip, mellin_transform(U, h_rec.mellin_point))
        tolc = Tolerance(rel=1e-9, abs=1e-300)
        scaled = []
        for ell in (15.0, 30.0):
            x = math.exp(ell)
            conv = mellin_convolve(U, ref_kou.price_density, x, tolc)
            # compare against the record with the exact slowly varying factor
            exact_slow = math.exp(kou.g1_log(ref_kou, ell)) / math.exp(
                h_rec.log_value_logx(ell) + h_rec.r3 * ell)
            scaled.append(abs(conv / (math.exp(rec.log_value_logx(ell)) * exact_slow) - 1.0) * math.sqrt(ell))
        assert all(v < 2.0 for v in scaled)

    def test_zero_side_matches_reflected_infinity(self, ref_kou):
        # reflection consistency: the zero-side rule equals the infinity rule
        # applied to the reflected inputs
        strip = (-11.0, 9.0)
        zrec = kou.h_wing_record(ref_kou, WING_SMALL)
        f = lognormal(0.1, 0.6)
        out_zero = convolve_asymptote(zrec, strip, mellin_transform(f, zrec.mellin_point))
        refl = TailAsymptote(r1=zrec.r1, r2=zrec.r2, r3=-zrec.r3, r4=zrec.r4, side=AT_INFINITY,
                             error_order=zrec.error_order)
        assert refl.mellin_point == zrec.mellin_point
        # the transform of U(1/u) at rho is U's at -rho, so its moment of order s is U's of order -s - 2
        lo, hi = strip
        out_inf = convolve_asymptote(
            refl, (-hi - 2.0, -lo - 2.0), mellin_transform(lambda u: f(1.0 / u), refl.mellin_point))
        assert out_zero.r1 == pytest.approx(out_inf.r1, rel=1e-8)

    def test_error_order_combination(self):
        rec = TailAsymptote(r1=1.0, r2=0.0, r3=4.0, r4=-1.5, side=AT_INFINITY,
                            error_order=ERROR_INV_LOG)
        out = convolve_asymptote(rec, (-6.0, 4.0), 2.0)
        assert out.error_order == ERROR_INV_LOG  # no exp-sqrt factor, so remainder is 1/log
        rec2 = TailAsymptote(r1=1.0, r2=1.0, r3=4.0, r4=-0.75, side=AT_INFINITY,
                             error_order=ERROR_INV_LOG)
        out2 = convolve_asymptote(rec2, (-6.0, 4.0), 2.0)
        assert out2.error_order == ERROR_INV_SQRT_LOG


class TestMellinAsymptoteInvariant:
    def test_compact_times_log_corrected_power(self):
        # factor with tail x^-3 / (1 + log x): quadrature/asymptote -> 1 with
        # sqrt(log x)-scaled residual bounded on log x in [10, 40]
        norm = quad(lambda v: (v - 0.5) ** 2 * (2.0 - v) ** 2, 0.5, 2.0)[0]
        U = lambda v: compact(v, norm)
        mu = quad(lambda v: U(v) * v**2.0, 0.5, 2.0)[0]  # MU(-3)

        def f(x):
            return np.where(x > 1.0, x**-3.0 / (1.0 + np.log(np.maximum(x, 1.0))), 0.0)

        tolc = Tolerance(rel=1e-10, abs=1e-300)
        scaled = []
        for ell in (10.0, 20.0, 40.0):
            x = math.exp(ell)
            conv = mellin_convolve(U, f, x, tolc)
            asym = mu * x**-3.0 / (1.0 + ell)
            scaled.append(abs(conv / asym - 1.0) * math.sqrt(ell))
        assert all(np.isfinite(scaled))
        assert max(scaled) <= 1.5 * scaled[0] + 0.05


def zygmund_epsilon(l, x):
    """Normalized slow-variation index x l'(x) / l(x), by a central difference of step 1e-6 x."""
    h = 1e-6 * x
    return x * (l(x + h) - l(x - h)) / (2.0 * h) / l(x)


def slow_variation_remainder(l, lam, x):
    """l(lam x) / l(x) - 1, the quantity a remainder class must bound."""
    return l(lam * x) / l(x) - 1.0


class TestSlowVariationDiagnostics:
    # the series factor G1 of the Kou jump density is slowly varying with
    # remainder class (log x)^(-1/2), the error order of its wing record
    def test_epsilon_h1_bound(self, ref_kou):
        # series factor of the jump density: index bounded by C / sqrt(log x)
        values = []
        for ell in (25.0, 100.0, 400.0):
            x = math.exp(ell)
            eps = zygmund_epsilon(lambda v: math.exp(kou.g1_log(ref_kou, math.log(v))), x)
            values.append(eps * math.sqrt(ell))
            assert eps > 0
        assert max(values) < 3.0
        assert values[-1] <= values[0] * 1.5

    def test_remainder_h1_scaled_bounded(self, ref_kou):
        vals = []
        for ell in (25.0, 100.0, 400.0):
            rem = slow_variation_remainder(lambda v: math.exp(kou.g1_log(ref_kou, math.log(v))), 2.0, math.exp(ell))
            vals.append(abs(rem) * math.sqrt(ell))
        assert max(vals) < 5.0
