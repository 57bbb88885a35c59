import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wingtail import heston, oracles
from wingtail.errors import DomainError, MomentExplosionError
from wingtail.heston import HestonParams
from wingtail.mellin import WING_LARGE, WING_SMALL
from wingtail.mixed import MixedModel
from wingtail.numerics import RngStream


def variant(**kwargs):
    base = dict(mu=0.0, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
    base.update(kwargs)
    return HestonParams(**base)


class TestParams:
    def test_positive_rho_rejected(self):
        with pytest.raises(DomainError, match="rho"):
            variant(rho=0.3)

    def test_zero_rho_allowed(self):
        variant(rho=0.0)

    @pytest.mark.parametrize("kwargs", [dict(c=0.0), dict(y0=0.0), dict(t=0.0), dict(x0=-1.0), dict(a=-0.1)])
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            variant(**kwargs)

    @pytest.mark.parametrize("field", ["mu", "a", "b", "c", "rho", "x0", "y0", "t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=f"HestonParams.{field} must be finite"):
            variant(**{field: value})


class TestExplosionTime:
    def test_zeroth_and_first_moment_never_explode(self, ref_heston):
        assert heston.explosion_time(ref_heston, 0.0) == math.inf
        assert heston.explosion_time(ref_heston, 1.0) == math.inf

    def test_interval_zero_one(self, ref_heston):
        assert heston.explosion_time(ref_heston, 0.5) == math.inf

    def test_reference_below_threshold_is_infinite(self, ref_heston):
        # moments up to ~6.46 never explode for the reference parameters
        assert heston.explosion_time(ref_heston, 6.0) == math.inf
        assert oracles.riccati_explosion_time(ref_heston, 6.0, t_cap=50.0) == math.inf

    def test_golden_value_against_ode_oracle(self, ref_heston):
        # frozen from the Riccati integration oracle
        assert heston.explosion_time(ref_heston, 8.0) == pytest.approx(2.6783970996636, abs=1e-9)

    @pytest.mark.parametrize("s", [6.6, 7.5, 12.0, -3.5, -8.0])
    def test_closed_form_matches_ode(self, ref_heston, s):
        closed = heston.explosion_time(ref_heston, s)
        ode = oracles.riccati_explosion_time(ref_heston, s, t_cap=60.0)
        assert closed == pytest.approx(ode, rel=1e-9)

    def test_log_branch_exercised(self):
        # strongly negative s with rho < 0 can put the critical region in the
        # real-root branch for small horizons; verify against the ODE anyway
        p = variant(rho=-0.9, b=0.2, c=1.0)
        for s in (-0.4, -0.8, -2.0):
            closed = heston.explosion_time(p, s)
            ode = oracles.riccati_explosion_time(p, s, t_cap=80.0)
            if math.isinf(closed):
                assert math.isinf(ode)
            else:
                assert closed == pytest.approx(ode, rel=1e-8)


class TestCriticalMoments:
    def test_round_trip(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        assert abs(heston.explosion_time(ref_heston, cm.s_plus) - ref_heston.t) <= 1e-8
        assert abs(heston.explosion_time(ref_heston, cm.s_minus) - ref_heston.t) <= 1e-8

    def test_round_trip_horizon_grid(self):
        for t in (0.25, 1.0, 4.0):
            p = variant(t=t)
            cm = heston.critical_moments(p)
            assert abs(heston.explosion_time(p, cm.s_plus) - t) <= 1e-8

    # the Heston box of the param-sweep benchmark workload, over criterion
    # 5's horizons 0.25 to 4 and at its bound
    @seed(5)
    @settings(max_examples=200, deadline=None, database=None)
    @given(a=st.floats(0.6, 1.2), b=st.floats(1.0, 3.0), c=st.floats(0.45, 0.8), rho=st.floats(-0.7, -0.1),
           y0=st.floats(0.02, 0.08), t=st.floats(0.25, 4.0))
    def test_round_trip_over_the_benchmark_box(self, a, b, c, rho, y0, t):
        p = HestonParams(mu=0.0, a=a, b=b, c=c, rho=rho, x0=1.0, y0=y0, t=t)
        cm = heston.critical_moments(p)
        assert abs(heston.explosion_time(p, cm.s_plus) - t) <= 1e-8
        assert abs(heston.explosion_time(p, cm.s_minus) - t) <= 1e-8

    def test_golden_reference_record(self, ref_heston):
        # frozen after verification against the Riccati ODE oracle and
        # central finite differences of the closed-form explosion time
        cm = heston.critical_moments(ref_heston)
        assert cm.s_plus == pytest.approx(12.455800363558, abs=1e-9)
        assert cm.s_minus == pytest.approx(-7.050724111190, abs=1e-9)
        assert cm.sigma_plus == pytest.approx(0.13313082570028, rel=1e-9)
        assert cm.sigma_minus == pytest.approx(0.19392635987962, rel=1e-9)
        assert cm.kappa_plus == pytest.approx(0.036882832778, rel=1e-6)
        assert cm.kappa_minus == pytest.approx(0.077153614412, rel=1e-6)

    def test_slopes_positive(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        assert cm.sigma_plus > 0 and cm.sigma_minus > 0

    def test_slope_matches_finite_difference(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        for s, sig in ((cm.s_plus, cm.sigma_plus), (cm.s_minus, cm.sigma_minus)):
            h = 1e-6 * abs(s)
            fd = (heston.explosion_time(ref_heston, s + h) - heston.explosion_time(ref_heston, s - h)) / (2 * h)
            assert abs(fd) == pytest.approx(sig, rel=1e-7)

    def test_oracle_agreement(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        assert oracles.riccati_critical_moment(ref_heston, upper=True) == pytest.approx(cm.s_plus, abs=1e-6)
        assert oracles.riccati_critical_moment(ref_heston, upper=False) == pytest.approx(cm.s_minus, abs=1e-6)


class TestMgf:
    def test_unit_moment(self, ref_heston):
        assert heston.mgf(ref_heston, 0.0) == 1.0

    def test_first_moment(self):
        p = variant(mu=0.07, x0=1.3)
        assert heston.mgf(p, 1.0) == pytest.approx(p.forward, rel=1e-12)

    def test_against_riccati_ode(self, ref_heston):
        for s in (-3.0, -1.0, 0.5, 2.0, 5.0, 9.0):
            assert math.log(heston.mgf(ref_heston, s)) == pytest.approx(
                oracles.riccati_log_mgf(ref_heston, s), abs=1e-10)

    def test_against_monte_carlo(self):
        p = variant(mu=0.05, x0=1.2)
        model = MixedModel(heston=p, jumps=None)
        sample = oracles.simulate_paths(model, 200_000, 200, RngStream(11))
        for s in (1.0, 2.0):
            pows = sample**s
            se = pows.std() / math.sqrt(pows.size)
            assert abs(pows.mean() - heston.mgf(p, s)) <= 3.0 * se

    def test_explosion_raises(self, ref_heston):
        with pytest.raises(MomentExplosionError):
            heston.mgf(ref_heston, 13.0)
        with pytest.raises(MomentExplosionError):
            heston.mgf(ref_heston, -7.5)

    def test_log_convex(self, ref_heston):
        grid = np.linspace(-6.5, 12.0, 30)
        vals = np.array([math.log(heston.mgf(ref_heston, s)) for s in grid])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-8)


class TestTailConstants:
    def test_exponents_are_critical_moments(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        k = heston.tail_constants(ref_heston)
        assert k.A3 == cm.s_plus + 1.0
        assert k.A3t == -(cm.s_minus + 1.0)

    def test_slope_form_of_a2(self, ref_heston):
        cm = heston.critical_moments(ref_heston)
        k = heston.tail_constants(ref_heston)
        assert k.A2 == pytest.approx(2.0 * math.sqrt(2.0 * ref_heston.y0) / ref_heston.c / math.sqrt(cm.sigma_plus))
        assert k.A2t == pytest.approx(2.0 * math.sqrt(2.0 * ref_heston.y0) / ref_heston.c / math.sqrt(cm.sigma_minus))

    def test_unit_forward_collapses_b_to_a(self, ref_heston):
        k = heston.tail_constants(ref_heston)
        assert k.B1 == k.A1 and k.B1t == k.A1t

    def test_golden_constants(self, ref_heston):
        # frozen after wide-range verification against the Fourier oracle
        k = heston.tail_constants(ref_heston)
        assert k.A1 == pytest.approx(117770920.8556, rel=1e-9)
        assert k.A2 == pytest.approx(3.100742286664, rel=1e-10)
        assert k.A3 == pytest.approx(13.455800363558, rel=1e-10)
        assert k.A1t == pytest.approx(4941.518690138, rel=1e-9)
        assert k.A2t == pytest.approx(2.569132848873, rel=1e-10)
        assert k.A3t == pytest.approx(6.050724111190, rel=1e-10)

    def test_forward_scaling_of_prefactors(self):
        # B1 = A1 * forward^(s+), B1t = A1t * forward^(s-): the prefactors
        # scale with the critical-moment power of the forward
        p = variant(mu=-0.25, x0=1.1)
        k = heston.tail_constants(p)
        cm = heston.critical_moments(p)
        assert k.B1 == pytest.approx(k.A1 * p.forward**cm.s_plus, rel=1e-12)
        assert k.B1t == pytest.approx(k.A1t * p.forward**cm.s_minus, rel=1e-12)


class TestDensityWings:
    def test_monotone_decreasing(self, ref_heston):
        xs = np.exp(np.linspace(4.0, 10.0, 12))
        vals = [heston.wing_record(ref_heston, WING_LARGE).log_value_logx(math.log(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_doubling_power_law(self, ref_heston):
        # far enough out, doubling x multiplies the density by ~2^(-A3)
        k = heston.tail_constants(ref_heston)
        rec = heston.wing_record(ref_heston, WING_LARGE)
        ratio = math.exp(rec.log_value_logx(300.0 + math.log(2.0)) - rec.log_value_logx(300.0))
        assert ratio == pytest.approx(2.0**-k.A3, rel=0.1)

    def test_fitted_power_is_a3(self, ref_heston):
        # regression of log density against log x over the far wing
        k = heston.tail_constants(ref_heston)
        ells = np.linspace(200.0, 400.0, 8)
        vals = [heston.wing_record(ref_heston, WING_LARGE).log_value_logx(l) for l in ells]
        X = np.column_stack([np.ones_like(ells), ells, np.sqrt(ells), np.log(ells)])
        coef, *_ = np.linalg.lstsq(X, np.array(vals), rcond=None)
        assert -coef[1] == pytest.approx(k.A3, rel=0.01)

    @staticmethod
    def _extrapolated_limit(model, record, sign, ells):
        logr = [oracles.log_density_fourier_logx(model, sign * l) - record.log_value_logx(l)
                for l in ells]
        x = np.asarray(ells)
        basis = np.column_stack([np.ones_like(x), 1.0 / np.sqrt(x), 1.0 / x])
        coef, *_ = np.linalg.lstsq(basis, np.array(logr), rcond=None)
        return [math.exp(v) for v in logr], math.exp(coef[0])

    def test_oracle_ratio_trends_toward_one(self, pure_model, ref_heston):
        ratios, limit = self._extrapolated_limit(
            pure_model, heston.wing_record(ref_heston, WING_LARGE), +1, (6.0, 9.0, 12.0, 60.0, 300.0, 2000.0))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert limit == pytest.approx(1.0, abs=0.1)

    def test_zero_wing_mirror(self, pure_model, ref_heston):
        ratios, limit = self._extrapolated_limit(
            pure_model, heston.wing_record(ref_heston, WING_SMALL), -1, (6.0, 12.0, 100.0, 1000.0))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert limit == pytest.approx(1.0, abs=0.15)

    def test_drift_scaling_matches_oracle(self, pure_model, ref_heston):
        # the forward-scaling convention for B1 must track the oracle density:
        # comparing drifted and driftless ratios at the same point cancels the
        # slowly varying corrections and isolates the prefactor convention
        p = variant(mu=-0.25)
        model = MixedModel(heston=p, jumps=None)
        ell = 300.0
        drifted = (oracles.log_density_fourier_logx(model, ell)
                   - heston.wing_record(p, WING_LARGE).log_value_logx(ell))
        plain = (oracles.log_density_fourier_logx(pure_model, ell)
                 - heston.wing_record(ref_heston, WING_LARGE).log_value_logx(ell))
        # a wrong prefactor convention would shift this by forward^(2*A3) ~ e^6.7
        assert math.exp(drifted - plain) == pytest.approx(1.0, abs=0.1)

    def test_drift_scaling_zero_wing(self, pure_model, ref_heston):
        p = variant(mu=-0.25)
        model = MixedModel(heston=p, jumps=None)
        ell = 300.0
        drifted = (oracles.log_density_fourier_logx(model, -ell)
                   - heston.wing_record(p, WING_SMALL).log_value_logx(ell))
        plain = (oracles.log_density_fourier_logx(pure_model, -ell)
                 - heston.wing_record(ref_heston, WING_SMALL).log_value_logx(ell))
        assert math.exp(drifted - plain) == pytest.approx(1.0, abs=0.1)
