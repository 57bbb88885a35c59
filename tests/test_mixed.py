import math

import numpy as np
import pytest
from scipy.stats import chi2

from wingtail import heston, kou, mellin, mixed, oracles
from wingtail.errors import DegenerateRegimeError, DomainError
from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams, risk_neutral_drift
from wingtail.mixed import DOMINANT_DIFFUSION, DOMINANT_JUMP, WING_LARGE, MixedModel
from wingtail.nig import NIGParams
from wingtail.numerics import Tolerance


def make_kou_model(eta1=2.0, eta2=1.0, lam=1.0, mu=None, **heston_kwargs):
    j = KouJumpParams(lam=lam, eta1=eta1, eta2=eta2, p=0.5, q=0.5, t=1.0)
    base = dict(a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
    base.update(heston_kwargs)
    h = HestonParams(mu=risk_neutral_drift(j) if mu is None else mu, **base)
    return MixedModel(heston=h, jumps=j)


class TestModel:
    def test_horizon_mismatch_rejected(self, ref_heston):
        j = KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=2.0)
        with pytest.raises(DomainError, match="horizon"):
            MixedModel(heston=ref_heston, jumps=j)

    def test_derived_constants_eager(self, kou_model):
        assert kou_model.derived.A3 == heston.tail_constants(kou_model.heston).A3

    def test_moment_strip_intersection(self, kou_model):
        lo, hi = kou_model.moment_strip()
        cm = heston.critical_moments(kou_model.heston)
        assert lo == pytest.approx(max(cm.s_minus, -kou_model.jumps.eta2))
        assert hi == pytest.approx(min(cm.s_plus, kou_model.jumps.eta1))

    def test_log_moment_is_product(self, kou_model):
        z = 1.3
        expected = heston.log_mgf(kou_model.heston, z) + kou.log_jump_mgf(kou_model.jumps, z)
        assert kou_model.log_moment(z) == expected


class TestClassify:
    def test_jump_dominant_when_exponent_smaller(self, kou_model):
        large, small = mixed.classify(kou_model)
        assert large.dominant == DOMINANT_JUMP and small.dominant == DOMINANT_JUMP
        assert large.margin == pytest.approx(kou_model.derived.A3 - 3.0)

    def test_diffusion_dominant_when_exponent_larger(self):
        model = make_kou_model(eta1=15.0, eta2=8.0)
        large, small = mixed.classify(model)
        assert large.dominant == DOMINANT_DIFFUSION and small.dominant == DOMINANT_DIFFUSION

    def test_engineered_equality_raises(self, ref_heston):
        k = heston.tail_constants(ref_heston)
        model = MixedModel(heston=ref_heston,
                           jumps=KouJumpParams(lam=1.0, eta1=k.A3 - 1.0, eta2=1.0, p=0.5, q=0.5, t=1.0))
        with pytest.raises(DegenerateRegimeError):
            mixed.classify_wing(model, WING_LARGE)

    def test_nig_classification(self, nig_model):
        large, small = mixed.classify(nig_model)
        assert large.dominant == DOMINANT_JUMP  # alpha + 1 = 3 < A3
        model = MixedModel(heston=nig_model.heston, jumps=NIGParams(alpha=15.0, delta=1.0, t=1.0))
        assert mixed.classify_wing(model, WING_LARGE).dominant == DOMINANT_DIFFUSION

    def test_pure_diffusion(self, pure_model):
        large, small = mixed.classify(pure_model)
        assert large.dominant == DOMINANT_DIFFUSION and large.margin == math.inf

    def test_anti_symmetry_of_regimes(self):
        # swapping which exponent is smaller flips the dominant tag
        lo = make_kou_model(eta1=2.0)
        hi = make_kou_model(eta1=15.0)
        assert mixed.classify_wing(lo, WING_LARGE).dominant == DOMINANT_JUMP
        assert mixed.classify_wing(hi, WING_LARGE).dominant == DOMINANT_DIFFUSION


class TestTailAsymptotes:
    def test_jump_dominant_record(self, kou_model):
        rec = mixed.mixed_tail_asymptote(kou_model)
        j = kou_model.jumps
        assert rec.r3 == j.eta1 + 1.0  # independent of the diffusion parameters
        assert rec.r2 == pytest.approx(2.0 * math.sqrt(j.b1_jump))
        assert rec.r4 == -0.75
        expected_r1 = kou.h_tail_asymptote(j).r1 * heston.mgf(kou_model.heston, j.eta1)
        assert rec.r1 == pytest.approx(expected_r1, rel=1e-14)

    def test_diffusion_dominant_record(self):
        model = make_kou_model(eta1=15.0, eta2=8.0)
        rec = mixed.mixed_tail_asymptote(model)
        k = model.derived
        assert rec.r3 == k.A3 and rec.r2 == k.A2
        assert rec.r4 == pytest.approx(-0.75 + model.heston.a / model.heston.c**2)
        assert rec.r1 == pytest.approx(kou.jump_mgf(model.jumps, k.A3 - 1.0) * k.B1, rel=1e-14)

    def test_zero_intensity_limit_is_pure_heston(self, ref_heston):
        model = make_kou_model(eta1=15.0, eta2=8.0, lam=1e-12, mu=0.0)
        rec = mixed.mixed_tail_asymptote(model)
        pure = heston.tail_record(ref_heston)
        assert rec.r1 == pytest.approx(pure.r1, rel=1e-9)
        assert rec.r2 == pure.r2 and rec.r3 == pure.r3

    def test_zero_wing_records(self, kou_model):
        rec = mixed.mixed_zero_asymptote(kou_model)
        j = kou_model.jumps
        assert rec.r3 == j.eta2 - 1.0
        expected_r1 = kou.h_zero_asymptote(j).r1 * heston.mgf(kou_model.heston, -j.eta2)
        assert rec.r1 == pytest.approx(expected_r1, rel=1e-14)

    def test_nig_small_wing_flagged_extrapolated(self, nig_model):
        rec = mixed.mixed_zero_asymptote(nig_model)
        assert rec.note == "extrapolated-by-symmetry"
        assert rec.r3 == nig_model.jumps.alpha - 1.0

    def test_degenerate_raises_not_numbers(self, ref_heston):
        k = heston.tail_constants(ref_heston)
        model = MixedModel(heston=ref_heston,
                           jumps=KouJumpParams(lam=1.0, eta1=k.A3 - 1.0, eta2=1.0, p=0.5, q=0.5, t=1.0))
        with pytest.raises(DegenerateRegimeError):
            mixed.mixed_tail_asymptote(model)


class TestTransferIdentity:
    def test_jump_dominant_route_equality(self, kou_model):
        # the mixed asymptote equals the Mellin transfer of the jump tail
        # through the diffusion law, coefficient for coefficient
        strip = heston.mellin_strip(kou_model.heston)
        jrec = kou.h_tail_asymptote(kou_model.jumps)
        via = mellin.convolve_asymptote_infinity(
            None, jrec, -jrec.r3, strip,
            mellin_value=heston.mgf(kou_model.heston, jrec.r3 - 1.0))
        direct = mixed.mixed_tail_asymptote(kou_model)
        assert abs(via.r1 / direct.r1 - 1.0) <= 1e-12
        assert (via.r2, via.r3, via.r4) == (direct.r2, direct.r3, direct.r4)

    def test_moment_transfer_identity(self, kou_model):
        # transform value of the diffusion density at the transfer point equals
        # the model moment (quadrature route vs closed form)
        eta1 = kou_model.jumps.eta1
        pure = MixedModel(heston=kou_model.heston, jumps=None)
        mu_quad = mellin.mellin_transform(
            lambda v: oracles.density_fourier(pure, v), -eta1 - 1.0,
            Tolerance(rel=1e-9, abs=1e-12, max_iter=300))
        assert mu_quad == pytest.approx(heston.mgf(kou_model.heston, eta1), abs=1e-8)


class TestMixedDensity:
    def test_matches_product_cf_route(self, kou_model):
        # two independent constructions of the same density, across the whole
        # certified window including the far sides
        for lx in (-8.0, -2.0, 0.0, 0.5, 4.0, 8.0):
            x = math.exp(lx)
            via_fourier = oracles.density_fourier(kou_model, x)
            via_quadrature = mixed.mixed_density(kou_model, x)
            assert via_quadrature == pytest.approx(via_fourier, abs=1e-6, rel=1e-5)

    def test_kou_point_next_to_the_jump(self, kou_model):
        # x/t = 1, where the Kou jump density jumps, falls inside a convolution
        # window here; integrated across the jump, the window misses rel 1e-8
        x = math.exp(-1.3220217014361222)
        assert mixed.mixed_density(kou_model, x) == pytest.approx(oracles.density_fourier(kou_model, x), rel=1e-8)

    def test_zero_intensity_limit(self, ref_heston, pure_model):
        model = make_kou_model(lam=1e-12, mu=0.0)
        for x in (0.8, 1.3):
            assert mixed.mixed_density(model, x) == pytest.approx(
                oracles.density_fourier(pure_model, x), rel=1e-7)

    def test_nig_route(self, nig_model):
        x = 1.2
        assert mixed.mixed_density(nig_model, x) == pytest.approx(
            oracles.density_fourier(nig_model, x), abs=1e-6, rel=1e-5)

    def test_chi2_against_monte_carlo(self, kou_model, kou_sample):
        logs = np.log(kou_sample)
        edges = np.linspace(-2.5, 2.0, 25)
        counts, _ = np.histogram(logs, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        probs = np.array([
            oracles.density_fourier(kou_model, math.exp(c)) * math.exp(c) * width for c in centers
        ])
        expected = probs * logs.size
        mask = expected > 20
        stat = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        p_value = chi2.sf(stat, int(mask.sum() - 1))
        assert p_value > 0.001
