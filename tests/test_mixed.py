import dataclasses
import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from wingtail import cli, heston, kou, mellin, mixed, nig, oracles
from wingtail.errors import DegenerateRegimeError, DomainError, MomentExplosionError
from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams, risk_neutral_drift
from wingtail.mixed import DOMINANT_DIFFUSION, DOMINANT_JUMP, WING_LARGE, WING_SMALL, MixedModel
from wingtail.nig import NIGParams, nig_no_arb_drift
from wingtail.numerics import RngStream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def make_nig_model(alpha):
    j = NIGParams(alpha=alpha, delta=1.0, t=1.0)
    h = HestonParams(mu=nig_no_arb_drift(j), a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
    return MixedModel(heston=h, jumps=j)


def make_kou_model(eta1=2.0, eta2=1.0, lam=1.0, mu=None, **heston_kwargs):
    j = KouJumpParams(lam=lam, eta1=eta1, eta2=eta2, p=0.5, q=0.5, t=1.0)
    base = dict(a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
    base.update(heston_kwargs)
    h = HestonParams(mu=risk_neutral_drift(j) if mu is None else mu, **base)
    return MixedModel(heston=h, jumps=j)


def classify(model):
    """The regimes of the large and small wings."""
    return mixed.classify_wing(model, WING_LARGE), mixed.classify_wing(model, WING_SMALL)


def shape_of(model):
    """The memo key of a model's diffusion density: its Heston part with unit forward."""
    return dataclasses.replace(model.heston, mu=0.0, x0=1.0)


class TestModel:
    def test_horizon_mismatch_rejected(self, ref_heston):
        j = KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=2.0)
        with pytest.raises(DomainError, match="horizon"):
            MixedModel(heston=ref_heston, jumps=j)

    def test_builds_without_the_heston_tail_constants(self, monkeypatch, ref_heston, ref_kou):
        # a model is just its two factors: building, classifying and inverting
        # one, and its Heston wing records, never form the eight-constant record
        def refuse(params):
            raise AssertionError("heston.tail_constants called")

        monkeypatch.setattr(heston, "tail_constants", refuse)
        model = MixedModel(heston=ref_heston, jumps=ref_kou)
        large, small = classify(model)
        assert large.dominant == DOMINANT_JUMP and small.dominant == DOMINANT_JUMP
        assert math.isfinite(oracles.log_density_fourier_logx(model, 0.1))
        assert heston.wing_record(ref_heston, WING_LARGE).r3 == heston.critical_moments(ref_heston).s_plus + 1.0

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
        large, small = classify(kou_model)
        assert large.dominant == DOMINANT_JUMP and small.dominant == DOMINANT_JUMP
        assert large.margin == pytest.approx(heston.tail_constants(kou_model.heston).A3 - 3.0)

    def test_diffusion_dominant_when_exponent_larger(self):
        model = make_kou_model(eta1=15.0, eta2=8.0)
        large, small = classify(model)
        assert large.dominant == DOMINANT_DIFFUSION and small.dominant == DOMINANT_DIFFUSION

    def test_engineered_equality_raises(self, ref_heston):
        k = heston.tail_constants(ref_heston)
        model = MixedModel(heston=ref_heston,
                           jumps=KouJumpParams(lam=1.0, eta1=k.A3 - 1.0, eta2=1.0, p=0.5, q=0.5, t=1.0))
        with pytest.raises(DegenerateRegimeError):
            mixed.classify_wing(model, WING_LARGE)

    def test_nig_classification(self, nig_model):
        large, small = classify(nig_model)
        assert large.dominant == DOMINANT_JUMP  # alpha + 1 = 3 < A3
        model = MixedModel(heston=nig_model.heston, jumps=NIGParams(alpha=15.0, delta=1.0, t=1.0))
        assert mixed.classify_wing(model, WING_LARGE).dominant == DOMINANT_DIFFUSION

    def test_pure_diffusion(self, pure_model):
        large, small = classify(pure_model)
        assert large.dominant == DOMINANT_DIFFUSION and large.margin == math.inf

    def test_anti_symmetry_of_regimes(self):
        # swapping which exponent is smaller flips the dominant tag
        lo = make_kou_model(eta1=2.0)
        hi = make_kou_model(eta1=15.0)
        assert mixed.classify_wing(lo, WING_LARGE).dominant == DOMINANT_JUMP
        assert mixed.classify_wing(hi, WING_LARGE).dominant == DOMINANT_DIFFUSION


class TestTailAsymptotes:
    def test_jump_dominant_record(self, kou_model):
        rec = mixed.mixed_asymptote(kou_model, WING_LARGE)
        j = kou_model.jumps
        assert rec.r3 == j.eta1 + 1.0  # independent of the diffusion parameters
        assert rec.r2 == pytest.approx(2.0 * math.sqrt(j.b1_jump))
        assert rec.r4 == -0.75
        expected_r1 = kou.h_wing_record(j, WING_LARGE).r1 * heston.mgf(kou_model.heston, j.eta1)
        assert rec.r1 == pytest.approx(expected_r1, rel=1e-14)

    def test_diffusion_dominant_record(self):
        model = make_kou_model(eta1=15.0, eta2=8.0)
        rec = mixed.mixed_asymptote(model, WING_LARGE)
        k = heston.tail_constants(model.heston)
        assert rec.r3 == k.A3 and rec.r2 == k.A2
        assert rec.r4 == pytest.approx(-0.75 + model.heston.a / model.heston.c**2)
        assert rec.r1 == pytest.approx(model.jump_moment(k.A3 - 1.0) * k.B1, rel=1e-14)

    def test_zero_intensity_limit_is_pure_heston(self, ref_heston):
        model = make_kou_model(eta1=15.0, eta2=8.0, lam=1e-12, mu=0.0)
        rec = mixed.mixed_asymptote(model, WING_LARGE)
        pure = heston.wing_record(ref_heston, WING_LARGE)
        assert rec.r1 == pytest.approx(pure.r1, rel=1e-9)
        assert rec.r2 == pure.r2 and rec.r3 == pure.r3

    def test_zero_wing_records(self, kou_model):
        rec = mixed.mixed_asymptote(kou_model, WING_SMALL)
        j = kou_model.jumps
        assert rec.r3 == j.eta2 - 1.0
        expected_r1 = kou.h_wing_record(j, WING_SMALL).r1 * heston.mgf(kou_model.heston, -j.eta2)
        assert rec.r1 == pytest.approx(expected_r1, rel=1e-14)

    def test_nig_small_wing_flagged_extrapolated(self, nig_model):
        rec = mixed.mixed_asymptote(nig_model, WING_SMALL)
        assert rec.note == "extrapolated-by-symmetry"
        assert rec.r3 == nig_model.jumps.alpha - 1.0

    def test_nig_diffusion_dominant_small_wing_has_no_note(self):
        # that wing uses only the exact NIG moment, no NIG tail formula
        model = make_nig_model(alpha=15.0)
        assert mixed.classify_wing(model, WING_SMALL).dominant == DOMINANT_DIFFUSION
        assert mixed.mixed_asymptote(model, WING_SMALL).note == ""

    def test_degenerate_raises_not_numbers(self, ref_heston):
        k = heston.tail_constants(ref_heston)
        model = MixedModel(heston=ref_heston,
                           jumps=KouJumpParams(lam=1.0, eta1=k.A3 - 1.0, eta2=1.0, p=0.5, q=0.5, t=1.0))
        with pytest.raises(DegenerateRegimeError):
            mixed.mixed_asymptote(model, WING_LARGE)


class TestTransferIdentity:
    def test_jump_dominant_route_equality(self, kou_model):
        # the mixed asymptote equals the Mellin transfer of the jump tail
        # through the diffusion law, coefficient for coefficient
        cm = heston.critical_moments(kou_model.heston)
        strip = (cm.s_minus, cm.s_plus)
        jrec = kou.h_wing_record(kou_model.jumps, WING_LARGE)
        via = mellin.convolve_asymptote(jrec, strip, heston.mgf(kou_model.heston, jrec.r3 - 1.0))
        direct = mixed.mixed_asymptote(kou_model, WING_LARGE)
        assert abs(via.r1 / direct.r1 - 1.0) <= 1e-12
        assert (via.r2, via.r3, via.r4) == (direct.r2, direct.r3, direct.r4)

    @pytest.mark.parametrize("dominant", [DOMINANT_JUMP, DOMINANT_DIFFUSION])
    @pytest.mark.parametrize("wing", [WING_LARGE, WING_SMALL])
    @pytest.mark.parametrize("law", ["kou", "nig"])
    def test_transfer_rule_on_every_wing(self, law, wing, dominant):
        # mixed_asymptote equals convolve_asymptote of the dominant component's
        # record with the co-factor's moment strip and its moment of order
        # -rho - 1 as the Mellin value
        if law == "kou":
            model = make_kou_model() if dominant == DOMINANT_JUMP else make_kou_model(eta1=15.0, eta2=8.0)
        else:
            model = make_nig_model(2.0 if dominant == DOMINANT_JUMP else 15.0)
        assert mixed.classify_wing(model, wing).dominant == dominant
        if dominant == DOMINANT_JUMP:
            cm = heston.critical_moments(model.heston)
            record, strip = model.jumps.wing_record(wing), (cm.s_minus, cm.s_plus)
            moment = lambda s: heston.mgf(model.heston, s)
        else:
            record = heston.wing_record(model.heston, wing)
            strip, moment = model.jumps.moment_strip(), model.jump_moment
        rho = record.mellin_point
        assert rho == (-record.r3 if wing == WING_LARGE else record.r3)
        via = mellin.convolve_asymptote(record, strip, moment(-rho - 1.0))
        direct = mixed.mixed_asymptote(model, wing)
        assert via == direct and via.note == direct.note

    def test_moment_transfer_identity(self, kou_model):
        # transform value of the diffusion density at the transfer point equals
        # the model moment (quadrature route vs closed form)
        eta1 = kou_model.jumps.eta1
        pure = MixedModel(heston=kou_model.heston, jumps=None)
        mu_quad = mellin.mellin_transform(lambda v: oracles.density_fourier(pure, v), -eta1 - 1.0)
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
        # x/t = 1, where the Kou jump density jumps, is mid-window for windows
        # anchored at t = 1; integrated across the jump, such a window misses
        # rel 1e-8, so the convolution windows have an edge there
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
        # on the lattice of the convolution, off it and deep in both wings
        for log_x in (-10.0, -6.0, -3.0, -1.5, 0.0, 0.77, 1.5, 3.0, 6.0, 10.0):
            x = math.exp(log_x)
            assert mixed.mixed_density(nig_model, x) == pytest.approx(oracles.density_fourier(nig_model, x), rel=1e-13)

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


class TestDiffusionMemo:
    """mixed_density reads the diffusion density through a bounded memo per Heston part."""

    @pytest.fixture(params=["kou", "nig"])
    def model(self, request, kou_model, nig_model):
        return kou_model if request.param == "kou" else nig_model

    @pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -2.0])
    def test_refuses_x_outside_the_domain(self, model, x):
        with pytest.raises(DomainError, match=f"requires finite x > 0, got {x}"):
            mixed.mixed_density(model, x)

    def test_values_do_not_depend_on_memo_state_or_order(self, model):
        xs = [math.exp(v) for v in (-3.3, -1.0, -0.2, 0.0, 0.45, 1.5, 2.0 + 1e-12, 4.2)]
        mixed._DIFFUSION_MEMO.clear()
        forward = [mixed.mixed_density(model, x) for x in xs]
        mixed._DIFFUSION_MEMO.clear()
        backward = [mixed.mixed_density(model, x) for x in reversed(xs)]
        assert forward == backward[::-1]

    @staticmethod
    def counting_inversions(monkeypatch):
        """The sizes of the diffusion inversions mixed_density asks of density_fourier."""
        counts = []
        fourier = oracles.density_fourier

        def counting(m, x, tol=None):
            counts.append(np.size(x))
            return fourier(m, x, tol)

        monkeypatch.setattr(oracles, "density_fourier", counting)
        return counts

    def test_cold_point_inverts_its_cover(self, monkeypatch):
        # the reference NIG point at log x = 1.5: the span covers 0, log z and
        # the bulks of log Y and log z - log J ([-2, 4] on the lattice), and
        # the sweep's one call takes 6 unit windows each way
        model = cli.load_config(os.path.join(CONFIG_DIR, "reference_nig.json")).model
        mixed._DIFFUSION_MEMO.clear()
        counts = self.counting_inversions(monkeypatch)
        mixed.mixed_density(model, math.exp(1.5))
        assert sum(counts) <= 450
        v = np.log(list(mixed._DIFFUSION_MEMO[shape_of(model)]))
        assert -8.0 <= v.min() and v.max() <= 10.0

    def test_second_point_inverts_few_diffusion_points(self, model, monkeypatch):
        # whichever path took a lattice panel before, the span's integrator
        # call or the outward sweep from another start, its nodes are the same
        # bits: a warm point inverts only nodes past the lattice points around
        # the earlier points' nodes and, for a jump density that jumps at 1
        # (Kou), those of the panels split at its own log z or at an earlier one
        counts = self.counting_inversions(monkeypatch)
        mixed._DIFFUSION_MEMO.clear()
        seen, split = set(), set()
        for log_x in (3.0, 1.37, -6.0, -1.0, 5.0, 0.4, -3.3):
            counts[:] = []
            x = math.exp(log_x)
            mixed.mixed_density(model, x)
            memo = set(mixed._DIFFUSION_MEMO[shape_of(model)])
            new = np.log(sorted(memo - seen))
            assert sum(counts) == new.size
            if model.jump_kind == "kou":
                split.add(math.floor(math.log(x / model.heston.forward)))
            if seen:
                lo, hi = math.floor(math.log(min(seen))), math.ceil(math.log(max(seen)))
                inside = new[(new > lo) & (new < hi)]
                assert set(np.floor(inside).tolist()) <= split
            if model.jump_kind == "nig" and log_x in (1.37, -1.0, 0.4, -3.3):
                # every panel of these points was taken by an earlier point
                assert new.size == 0
            seen = memo

    def test_long_run_stays_within_the_bound(self, kou_model, monkeypatch):
        # Kou, whose density jumps at 1, puts about 43 new nodes beside log x
        # at each point and fills past 650 nodes by the fifth; a NIG run
        # stays near its first point's lattice nodes
        xs = [math.exp(v) for v in np.linspace(-2.9, 3.1, 14)]
        mixed._DIFFUSION_MEMO.clear()
        unbounded = [mixed.mixed_density(kou_model, x) for x in xs]
        assert len(mixed._DIFFUSION_MEMO[shape_of(kou_model)]) <= mixed.MEMO_NODES
        monkeypatch.setattr(mixed, "MEMO_NODES", 650)
        mixed._DIFFUSION_MEMO.clear()
        sizes, bounded = [], []
        for x in xs:
            bounded.append(mixed.mixed_density(kou_model, x))
            sizes.append(len(mixed._DIFFUSION_MEMO[shape_of(kou_model)]))
        assert max(sizes) <= 650
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was emptied
        assert bounded == unbounded

    def test_threads_share_the_memo(self, kou_model, monkeypatch):
        # more threads than cores, frequent switches and a bound small enough
        # that the memo is emptied while other threads read it: the Kou
        # model's second point already takes it past 500 nodes
        xs = [math.exp(v) for v in (-1.7, -0.3, 0.8, 1.9)]
        mixed._DIFFUSION_MEMO.clear()
        serial = [mixed.mixed_density(kou_model, x) for x in xs]
        monkeypatch.setattr(mixed, "MEMO_NODES", 500)
        mixed._DIFFUSION_MEMO.clear()
        results, errors = {}, []

        def work(i):
            try:
                for x in xs[i:] + xs[:i]:
                    results[i, x] = mixed.mixed_density(kou_model, x)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(results[i, x] == want for i in range(3) for x, want in zip(xs, serial))
        assert len(mixed._DIFFUSION_MEMO[shape_of(kou_model)]) <= 500

    def test_at_most_memo_models_parts_are_kept(self, ref_heston):
        parts = [dataclasses.replace(ref_heston, y0=0.03 + 0.002 * i) for i in range(mixed.MEMO_MODELS + 2)]
        for h in parts:
            mixed.mixed_density(MixedModel(heston=h), 1.3)
        assert list(mixed._DIFFUSION_MEMO)[-mixed.MEMO_MODELS:] == parts[-mixed.MEMO_MODELS:]
        assert len(mixed._DIFFUSION_MEMO) == mixed.MEMO_MODELS

    @pytest.mark.parametrize("log_x", [-1.0, 2.0, -1.0 + 7e-13, 2.0 - 4e-13, 1e-12, 0.0])
    def test_points_on_and_next_to_the_lattice(self, model, log_x):
        x = math.exp(log_x)
        assert mixed.mixed_density(model, x) == pytest.approx(oracles.density_fourier(model, x), rel=1e-8)

    def test_drift_and_spot_share_one_part(self):
        models = [cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json")).model
                  for name in ("reference_kou", "reference_nig")]
        assert models[0].heston != models[1].heston
        mixed._DIFFUSION_MEMO.clear()
        for m in models:
            mixed.mixed_density(m, 1.3)
        assert list(mixed._DIFFUSION_MEMO) == [shape_of(models[0])] == [shape_of(models[1])]

    @pytest.mark.parametrize("log_z", [-1.0, 2.0, -1.0 + 7e-13, 2.0 - 4e-13, 1e-12, 0.0])
    def test_forward_off_one_on_and_next_to_the_lattice(self, model, log_z):
        # log(x/F) on the integer lattice, where the convolution's panels have
        # their edges, and next to it
        moved = dataclasses.replace(model, heston=dataclasses.replace(model.heston, x0=2.5, mu=0.1))
        x = moved.heston.forward * math.exp(log_z)
        assert mixed.mixed_density(moved, x) == pytest.approx(oracles.density_fourier(moved, x), rel=1e-8)

    @pytest.mark.parametrize("x0, x", [(1e-10, 1e300), (1e10, 1e-300)])
    def test_point_scaled_out_of_range_is_refused(self, model, x0, x):
        moved = dataclasses.replace(model, heston=dataclasses.replace(model.heston, x0=x0))
        forward = moved.heston.forward
        with pytest.raises(DomainError, match=re.escape(f"x={x}")) as err:
            mixed.mixed_density(moved, x)
        assert f"{forward}" in str(err.value)


class TestJumpInterface:
    @pytest.fixture(params=["kou", "nig"])
    def law(self, request, ref_kou, nig_model):
        return ref_kou if request.param == "kou" else nig_model.jumps

    def test_members_call_the_module_functions(self, ref_kou, nig_model):
        j, n = ref_kou, nig_model.jumps
        assert (j.kind, n.kind) == ("kou", "nig")
        assert (j.density_jumps_at_one, n.density_jumps_at_one) == (True, False)
        z = np.array([0.3 + 1.0j, -0.2 + 4.0j])
        assert np.array_equal(j.log_mgf(z), kou.log_jump_mgf(j, z))
        assert np.array_equal(n.log_mgf(z), nig.log_nig_mgf(n, z))
        for got, want in zip(j.cgf_derivatives(0.4), kou.jump_cgf_derivatives(j, 0.4)):
            assert got == want
        for got, want in zip(n.cgf_derivatives(0.4), nig.nig_cgf_derivatives(n, 0.4)):
            assert got == want
        assert (j.price_density(1.7), n.price_density(1.7)) == (kou.h_density(j, 1.7), nig.nig_price_density(n, 1.7))
        xs = np.array([0.5, 1.0, 1.7])
        assert np.array_equal(j.price_density(xs), kou.h_density(j, xs))
        assert np.array_equal(n.price_density(xs), nig.nig_price_density(n, xs))
        assert (j.martingale_drift(), n.martingale_drift()) == (risk_neutral_drift(j), nig_no_arb_drift(n))
        assert (j.atom_mass, n.atom_mass) == (math.exp(-j.lam * j.t), 0.0)
        assert (j.moment_strip(), n.moment_strip()) == ((-j.eta2, j.eta1), (-n.alpha, n.alpha))
        assert np.array_equal(j.sample_factors(RngStream(2), 20), kou.sample_jump_factors(j, RngStream(2), 20))
        assert np.array_equal(n.sample_factors(RngStream(2), 20), np.exp(nig.sample_nigs(n, RngStream(2), 20)))

    def test_model_reads_the_interface(self, law):
        h = HestonParams(mu=law.martingale_drift(), a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
        model = MixedModel(heston=h, jumps=law)
        cm = heston.critical_moments(h)
        lo, hi = law.moment_strip()
        assert model.jump_kind == law.kind
        assert model.moment_strip() == (max(cm.s_minus, lo), min(cm.s_plus, hi))
        assert model.jump_moment(0.5) == math.exp(law.log_mgf(0.5 + 0j).real)
        assert model.log_moment(0.3 + 1.0j) == heston.log_mgf(h, 0.3 + 1.0j) + law.log_mgf(0.3 + 1.0j)


class TestMomentOverflow:
    # orders inside the moment strip whose moment is past the double range:
    # near the upper end of the strip, or for a wide NIG scale
    @pytest.mark.parametrize("case", ["heston", "kou", "nig", "jump_moment"])
    def test_refused_with_the_order_named(self, case, ref_heston, ref_kou, kou_model, jump_moment):
        moment, order = {
            "heston": (lambda s: heston.mgf(ref_heston, s), heston.critical_moments(ref_heston).s_plus - 1e-3),
            "kou": (lambda s: jump_moment(ref_kou, s), ref_kou.eta1 - 1e-5),
            "nig": (lambda s: jump_moment(NIGParams(alpha=2.0, delta=1000.0, t=1.0), s), 1.9),
            "jump_moment": (kou_model.jump_moment, ref_kou.eta1 - 1e-5),
        }[case]
        with pytest.raises(MomentExplosionError, match=re.escape(f"moment of order {order} overflows")):
            moment(order)


# a Heston box wider than the benchmark's, with a horizon from 0.01 to 30 and
# rho in (-1, 0]; perfbench's boxes (tests/benchmark_boxes.py) stay its own
WIDE_HESTON_BOX = dict(a=(0.2, 3.0), b=(0.0, 4.0), c=(0.1, 1.5), rho=(-1.0, 0.0), y0=(0.01, 0.2), t=(0.01, 30.0))
WING_CONSTANTS = {WING_LARGE: ("A1", "A2", "A3", "B1"), WING_SMALL: ("A1t", "A2t", "A3t", "B1t")}


def own_wing_record(params, wing):
    """heston.wing_record(params, wing), or the name of the constant of that
    wing it refuses; a refusal naming anything else fails."""
    try:
        return heston.wing_record(params, wing)
    except DomainError as exc:
        name = str(exc).split()[0]
        assert name in WING_CONSTANTS[wing], str(exc)
        return name


def wide_model(jumps, **heston_fields):
    """A model of the wide box: the reference Kou or NIG law (or none) at the
    Heston part's horizon, at its martingale drift."""
    t = heston_fields["t"]
    law = {None: None, "kou": KouJumpParams(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=t),
           "nig": NIGParams(alpha=2.0, delta=1.0, t=t)}[jumps]
    mu = 0.0 if law is None else law.martingale_drift()
    return MixedModel(heston=HestonParams(mu=mu, x0=1.0, **heston_fields), jumps=law)


class TestWideHestonBox:
    @seed(5)
    @settings(max_examples=300, deadline=None, database=None)
    @given(fields=st.fixed_dictionaries({key: st.floats(lo, hi, exclude_min=key == "rho")
                                         for key, (lo, hi) in WIDE_HESTON_BOX.items()}),
           jumps=st.sampled_from([None, "kou", "nig"]))
    def test_every_draw_builds_classifies_and_inverts(self, fields, jumps):
        model = wide_model(jumps, **fields)
        classify(model)
        assert math.isfinite(oracles.log_density_fourier_logx(model, 0.1 * math.sqrt(model.t)))
        for wing in (WING_LARGE, WING_SMALL):
            own_wing_record(model.heston, wing)

    def test_small_wing_refuses_a3t_alone(self):
        # s- = -0.8748 > -1: the small-wing power A3t = -(s- + 1) is negative,
        # and only the small-wing record refuses, naming it
        model = wide_model(None, a=1.979, b=1.506, c=1.218, rho=-0.192, y0=0.084, t=5.95)
        assert heston.critical_moments(model.heston).s_minus == pytest.approx(-0.8748, abs=1e-4)
        assert own_wing_record(model.heston, WING_LARGE).side == mellin.AT_INFINITY
        assert own_wing_record(model.heston, WING_SMALL) == "A3t"

    def test_small_vol_of_vol_oracles(self):
        # c = 0.07 on the reference Heston part: a model builds and every
        # oracle runs, and the Kou model's jump-dominated wings need only
        # Heston moments
        pure = wide_model(None, a=1.0, b=2.0, c=0.07, rho=-0.3, y0=0.04, t=1.0)
        assert oracles.density_fourier(pure, 1.2) == mixed.mixed_density(pure, 1.2)
        assert mixed.mixed_density(pure, 1.2) == pytest.approx(0.5071452391179339, rel=1e-13)
        assert 0.0 < oracles.call_fourier(pure, 1.0) < 1.0
        assert np.all(oracles.simulate_paths(pure, 1000, 50, RngStream(1)) > 0)
        model = wide_model("kou", a=1.0, b=2.0, c=0.07, rho=-0.3, y0=0.04, t=1.0)
        for wing in (WING_LARGE, WING_SMALL):
            assert mixed.classify_wing(model, wing).dominant == DOMINANT_JUMP
            assert mixed.mixed_asymptote(model, wing).r1 > 0
        assert mixed.mixed_density(model, 0.8) == pytest.approx(0.5969142811522055, rel=1e-13)
        assert float(oracles.density_fourier(model, 0.8)) == pytest.approx(0.5969142811522026, rel=1e-13)


def _wide_draws(n, seed):
    """n seeded draws of the wide box at t in {0.1, 1, 5, 30} for both jump laws, with log x in [-2, 2]."""
    rng = np.random.default_rng(seed)
    box = {key: bounds for key, bounds in WIDE_HESTON_BOX.items() if key != "t"}
    return [(("kou", "nig")[i % 2], (0.1, 1.0, 5.0, 30.0)[i // 2 % 4],
             {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in box.items()}, float(rng.uniform(-2.0, 2.0)))
            for i in range(n)]


WIDE_DRAWS = _wide_draws(20, 2014)


class TestFarMassCover:
    """A convolution point's span covers 0, log z and its factors' bulks: each point
    is within 1e-8 of the product-CF route, or refused by name before integrating."""

    @staticmethod
    def computes_or_refuses(model, log_x):
        x = math.exp(log_x)
        want = float(oracles.density_fourier(model, x))
        try:
            got = mixed.mixed_density(model, x)
        except DomainError as exc:
            assert re.search(rf"mixed_density at x={re.escape(str(x))}: the convolution cover \[\S+, \S+\] of log t, "
                             r"its (low|high) end set by the (diffusion shape|jump factor)'s bulk of ", str(exc)), exc
        else:
            assert got == pytest.approx(want, rel=1e-8)

    def test_heavy_variance_shape_at_t_30(self):
        # the shape's log Y has mean -519 and sd 221; a sweep that may stop at
        # |log t| = 23.5 was 7.8e-5 off here
        model = wide_model("kou", a=2.814, b=0.021, c=1.154, rho=-0.802, y0=0.036, t=30.0)
        self.computes_or_refuses(model, 1.261)

    @pytest.mark.parametrize("law, t, fields, log_x", WIDE_DRAWS,
                             ids=[f"{law}-t{t:g}-{i}" for i, (law, t, _, _) in enumerate(WIDE_DRAWS)])
    def test_wide_box(self, law, t, fields, log_x):
        self.computes_or_refuses(wide_model(law, t=t, **fields), log_x)

    @pytest.mark.parametrize("log_z", [705.0, -705.0])
    def test_cover_past_the_doubles_is_refused_before_integrating(self, nig_model, log_z, monkeypatch):
        # log z - log J reaches past |log t| = 707: the nodes of the span's
        # lattice and of the sweep's first call would put t or x/t past the
        # doubles
        inversions = TestDiffusionMemo.counting_inversions(monkeypatch)
        x = nig_model.heston.forward * math.exp(log_z)
        with pytest.raises(DomainError, match=rf"x={re.escape(str(x))}: the convolution cover \[\S+, \S+\] of log t, "
                                              r"its (low|high) end set by .*'s bulk of log"):
            mixed.mixed_density(nig_model, x)
        assert inversions == []
