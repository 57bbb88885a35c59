import math
import sys

import numpy as np
import pytest
import warnings

from hypothesis import given, seed, settings
from scipy.integrate import quad
from scipy.special import k1
from scipy.stats import chi2

from wingtail import nig
from wingtail.errors import DomainError, MomentExplosionError, NoArbitrageError
from wingtail.mellin import AT_ZERO, WING_LARGE, WING_SMALL
from wingtail.nig import NIGParams
from wingtail.numerics import RngStream, Tolerance, UnderflowWarning, integrate

from benchmark_boxes import box_draw

REF = NIGParams(alpha=2.0, delta=1.0, t=1.0)
EPS = sys.float_info.epsilon


class TestParams:
    @pytest.mark.parametrize("kwargs", [dict(alpha=0.0), dict(delta=0.0), dict(t=0.0)])
    def test_invariants(self, kwargs):
        base = dict(alpha=2.0, delta=1.0, t=1.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            NIGParams(**base)

    @pytest.mark.parametrize("field", ["alpha", "delta", "t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        base = dict(alpha=2.0, delta=1.0, t=1.0)
        base[field] = value
        with pytest.raises(DomainError, match=f"NIGParams.{field} must be finite"):
            NIGParams(**base)


def log_jump_density(params, y):
    """Density of the log-jump Y_t at y: the price density's log body at log x = y, plus y."""
    return math.exp(nig.nig_price_log_density_logx(params, y) + y)


class TestDensity:
    def test_closed_form(self):
        # k(t) K1(alpha s) / s with s = sqrt(y^2 + (delta t)^2)
        for y in (0.0, -1.7, 6.0, 40.0):
            s = math.hypot(y, REF.delta * REF.t)
            assert log_jump_density(REF, y) == pytest.approx(REF.k_factor * k1(REF.alpha * s) / s, rel=1e-14)

    def test_symmetric(self):
        # exact in the log-jump's density k(t) K1(alpha s) / s, and within the
        # rounding of adding y back to the log body of the price density
        for y in (0.3, 1.7, 6.0):
            assert log_jump_density(REF, y) == pytest.approx(log_jump_density(REF, -y), rel=4 * EPS)

    def test_normalized(self):
        total = quad(lambda y: log_jump_density(REF, y), -80, 80, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_unimodal_at_zero(self):
        ys = np.linspace(0.0, 5.0, 40)
        vals = [log_jump_density(REF, float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_far_tail_underflows_to_zero_with_flag(self):
        with pytest.warns(RuntimeWarning):
            assert nig.nig_price_density(REF, math.exp(500.0)) == 0.0

    def test_log_body_is_finite_where_the_price_density_underflows(self):
        # at x = e^-600 the price density is about 1e-262, though the
        # log-jump's density there, about 1e-522, is past the double range
        log_p = nig.nig_price_log_density_logx(REF, -600.0)
        assert nig.nig_price_density(REF, math.exp(-600.0)) == pytest.approx(math.exp(log_p), rel=1e-12)
        assert -610.0 < log_p < -600.0

    @pytest.mark.parametrize("fn, points, n_under", [
        (nig.nig_price_density, [0.5, 1.0, 3.0, math.exp(500.0), 5e-324], 1),
        (nig.nig_price_log_density_logx, [-0.7, 0.0, 1.1, 500.0, -600.0], 0),
    ])
    def test_array_call_is_the_scalar_calls(self, fn, points, n_under):
        # points past underflow give 0.0, with one warning for the whole array
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = fn(REF, np.array(points))
        assert sum(issubclass(w.category, UnderflowWarning) for w in caught) == n_under
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderflowWarning)
            scalars = [fn(REF, v) for v in points]
        assert all(type(v) is float for v in scalars)
        assert got.tolist() == scalars
        assert n_under == 0 or scalars[3:] == [0.0, 0.0]

    @pytest.mark.parametrize("fn", [nig.nig_price_density, nig.nig_price_log_density_logx])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_refused_by_value(self, fn, value):
        for point in (value, np.array([2.0, value])):
            with pytest.raises(DomainError, match=f"got {value}"):
                fn(REF, point)

    def test_price_density_change_of_variables(self):
        for x in (0.5, 1.0, 3.0):
            assert nig.nig_price_density(REF, x) * x == pytest.approx(
                log_jump_density(REF, math.log(x)), rel=1e-13)

    def test_price_density_normalized(self):
        total = quad(lambda v: nig.nig_price_density(REF, math.exp(v)) * math.exp(v),
                     -60, 60, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_price_density_reflection_symmetry(self):
        # density of e^Y at x equals x^-2 times the density at 1/x (Y symmetric)
        for x in (0.4, 2.5):
            assert nig.nig_price_density(REF, x) == pytest.approx(
                nig.nig_price_density(REF, 1.0 / x) * x**-2.0, rel=1e-12)


class TestTailAsymptote:
    def test_record_fields(self):
        rec = nig.nig_wing_record(REF, WING_LARGE)
        assert rec.r2 == 0.0
        assert rec.r3 == REF.alpha + 1.0
        assert rec.r4 == -1.5
        assert rec.r1 == pytest.approx(REF.k_factor * math.sqrt(math.pi / (2 * REF.alpha)), rel=1e-14)

    def test_ratio_converges_with_log_rate(self):
        rec = nig.nig_wing_record(REF, WING_LARGE)
        vals = []
        for ell in (8.0, 16.0, 40.0):
            r = math.exp(nig.nig_price_log_density_logx(REF, ell) - rec.log_value_logx(ell))
            vals.append(abs(r - 1.0) * ell)
        assert max(vals) < 2.0
        assert vals[-1] <= vals[0]

    def test_small_wing_by_symmetry(self):
        zrec = nig.nig_wing_record(REF, WING_SMALL)
        assert zrec.side == AT_ZERO and zrec.r3 == REF.alpha - 1.0
        assert zrec.note == "extrapolated-by-symmetry"
        for ell in (8.0, 20.0):
            r = math.exp(nig.nig_price_log_density_logx(REF, -ell) - zrec.log_value_logx(ell))
            assert r == pytest.approx(1.0, abs=0.2)


class TestLogDensityReach:
    # the log body is read at ell = log x past the double range of x, where
    # x = e^ell itself overflows (ell > 709.78) or underflows (ell < -745.13)
    def test_wings_of_the_reference_law_past_the_double_range(self):
        # the own term of the NIG tail: log(p / record) = c / ell + O(ell^-2)
        # on both wings, c = 3 / (8 alpha) - alpha (delta t)^2 / 2 = -0.8125 here
        for wing, sign in ((WING_LARGE, 1.0), (WING_SMALL, -1.0)):
            rec = nig.nig_wing_record(REF, wing)
            ell = 1e4
            assert ell * (nig.nig_price_log_density_logx(REF, sign * ell) - rec.log_value_logx(ell)) == \
                pytest.approx(-0.8125, abs=1e-3)
            assert math.isfinite(nig.nig_price_log_density_logx(REF, sign * 1e6))

    # the NIG box of perfbench's param-sweep, at t = 1
    @seed(27)
    @settings(max_examples=100, deadline=None, database=None)
    @given(draw=box_draw("NIG_BOX"))
    def test_mass_and_own_term_over_the_benchmark_box(self, draw):
        params = NIGParams(t=1.0, **draw)
        fine = Tolerance(rel=1e-11, abs=1e-11)
        # the log-jump's density over criterion 12's range
        mass = integrate(lambda y, _panel: np.exp(nig.nig_price_log_density_logx(params, y) + y), -80.0, 80.0, fine)[0]
        assert abs(float(mass) - 1.0) <= 1e-8
        own = 3.0 / (8.0 * params.alpha) - params.alpha * (params.delta * params.t) ** 2 / 2.0
        ell = 1e4
        for wing, sign in ((WING_LARGE, 1.0), (WING_SMALL, -1.0)):
            rec = nig.nig_wing_record(params, wing)
            term = ell * (nig.nig_price_log_density_logx(params, sign * ell) - rec.log_value_logx(ell))
            assert abs(term - own) <= 1e-3, (wing, term, own)


class TestNoArbDrift:
    def test_boundary_alpha(self):
        assert nig.nig_no_arb_drift(NIGParams(alpha=1.0, delta=0.7, t=1.0)) == pytest.approx(-0.7)

    def test_exact_rational_point(self):
        assert nig.nig_no_arb_drift(NIGParams(alpha=1.25, delta=1.0, t=1.0)) == pytest.approx(-0.5)

    def test_below_one_rejected(self):
        with pytest.raises(NoArbitrageError):
            nig.nig_no_arb_drift(NIGParams(alpha=0.9, delta=1.0, t=1.0))


class TestMgf:
    def test_at_zero(self, jump_moment):
        assert jump_moment(REF, 0.0) == 1.0

    def test_boundary_limit(self, jump_moment):
        val = jump_moment(REF, REF.alpha - 1e-9)
        assert val == pytest.approx(math.exp(REF.delta * REF.t * REF.alpha), rel=1e-4)

    def test_exact_value(self, jump_moment):
        p = NIGParams(alpha=1.25, delta=1.0, t=1.0)
        assert jump_moment(p, 1.0) == pytest.approx(math.exp(0.5), rel=1e-14)

    def test_even_and_log_convex(self, jump_moment):
        ss = np.linspace(-1.8, 1.8, 19)
        vals = np.array([math.log(jump_moment(REF, float(s))) for s in ss])
        assert np.allclose(vals, vals[::-1], rtol=1e-13)
        assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_out_of_domain(self, jump_moment):
        with pytest.raises(MomentExplosionError):
            jump_moment(REF, REF.alpha)
        with pytest.raises(MomentExplosionError):
            jump_moment(REF, -2.5)


@pytest.fixture(scope="module")
def draws():
    return nig.sample_nigs(REF, RngStream(123), 400_000)


class TestSampling:

    def test_mean_zero(self, draws):
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 3.0 * se

    def test_exponential_moment(self, draws, jump_moment):
        vals = np.exp(draws)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - jump_moment(REF, 1.0)) <= 3.0 * se

    def test_histogram_chi2(self, draws):
        edges = np.linspace(-4.0, 4.0, 41)
        counts, _ = np.histogram(draws, edges)
        probs = np.array([quad(lambda y: log_jump_density(REF, y), a, b)[0]
                          for a, b in zip(edges[:-1], edges[1:])])
        expected = probs * draws.size
        mask = expected > 10
        stat = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        p_value = chi2.sf(stat, int(mask.sum() - 1))
        assert p_value > 0.001

    def test_single_draw(self):
        assert math.isfinite(REF.sample_factors(RngStream(3), 1)[0])
