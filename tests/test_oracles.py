import cmath
import math
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from wingtail import cli, heston, numerics, oracles
from wingtail.errors import ConvergenceError, DomainError, OracleError
from wingtail.heston import HestonParams
from wingtail.kou import KouJumpParams
from wingtail.mixed import MixedModel
from wingtail.numerics import RngStream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIGS = ("pure_heston", "reference_kou", "reference_nig")


def mixed_cf(model, u):
    """Characteristic function of the mixed log-price at real frequency u."""
    return cmath.exp(model.log_moment(1j * u))


class TestMixedCf:
    def test_unit_at_zero(self, kou_model):
        assert mixed_cf(kou_model, 0.0) == 1.0

    def test_zero_intensity_is_heston(self, pure_model, ref_heston):
        model = MixedModel(
            heston=ref_heston,
            jumps=KouJumpParams(lam=1e-14, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0),
        )
        for u in (0.5, 2.0, 7.0):
            assert mixed_cf(model, u) == pytest.approx(mixed_cf(pure_model, u), rel=1e-10)

    def test_hermitian_symmetry(self, kou_model):
        for u in (0.3, 1.5, 4.0):
            assert mixed_cf(kou_model, -u) == pytest.approx(
                mixed_cf(kou_model, u).conjugate(), rel=1e-12)

    def test_modulus_bounded_by_one(self, kou_model):
        for u in (0.1, 1.0, 10.0):
            assert abs(mixed_cf(kou_model, u)) <= 1.0 + 1e-12


class TestDensityFourier:
    def test_normalization(self, kou_model):
        # the left wing decays like exp(-(eta2)|v|) in log-price with eta2 = 1,
        # so the range must reach far down for 1e-6 mass accuracy
        total = quad(lambda v: oracles.density_fourier(kou_model, math.exp(v)) * math.exp(v),
                     -28, 14, limit=300, epsabs=1e-9, epsrel=1e-9)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pure_heston_positive_unimodal(self, pure_model):
        ells = np.linspace(-1.5, 1.0, 21)
        vals = [oracles.density_fourier(pure_model, math.exp(v)) * math.exp(v) for v in ells]
        assert all(v > 0 for v in vals)
        peak = int(np.argmax(vals))
        assert all(vals[i] <= vals[i + 1] for i in range(peak))
        assert all(vals[i] >= vals[i + 1] for i in range(peak, len(vals) - 1))

    def test_martingale_mean(self, kou_model):
        mean = quad(lambda v: oracles.density_fourier(kou_model, math.exp(v)) * math.exp(2 * v),
                    -28, 22, limit=400, epsabs=1e-9, epsrel=1e-9)[0]
        assert mean == pytest.approx(kou_model.x0, abs=1e-6)

    def test_domain(self, kou_model):
        with pytest.raises(DomainError):
            oracles.density_fourier(kou_model, 0.0)

    def test_reach_on_the_reference_nig_config(self):
        # it inverts at |log x| = 1e4; at 1e5 the NIG saddle falls inside the
        # saddle table's pad, and the inversion refuses rather than returns
        model = cli.load_config(os.path.join(CONFIG_DIR, "reference_nig.json")).model
        assert np.all(np.isfinite(oracles.log_density_fourier_logx(model, np.array([-1e4, 1e4]))))
        for ell in (-1e5, 1e5):
            with pytest.raises(ConvergenceError):
                oracles.log_density_fourier_logx(model, ell)

    @pytest.mark.parametrize("name", CONFIGS)
    @pytest.mark.parametrize("jumps", [True, False])
    def test_point_does_not_depend_on_its_batch(self, name, jumps):
        # the diffusion memo of mixed_density stores values inverted in
        # batches of varying make-up, so each point must come out bit for bit
        # alike alone, in a batch and in a permuted batch; the jump laws are
        # inverted out to |log x| = 12, the diffusion alone out to 20
        model = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json")).model
        if not jumps:
            model = MixedModel(heston=model.heston)
        reach = 12.0 if model.jumps else 20.0
        ells = np.random.default_rng(7).uniform(-reach, reach, 300)
        perm = np.random.default_rng(8).permutation(ells.size)
        batch = oracles.log_density_fourier_logx(model, ells)
        alone = np.array([oracles.log_density_fourier_logx(model, v) for v in ells])
        assert np.array_equal(batch, alone)
        assert np.array_equal(batch[perm], oracles.log_density_fourier_logx(model, ells[perm]))


class TestCallFourier:
    def test_small_strike_limit(self, kou_model):
        assert oracles.call_fourier(kou_model, 1e-4) == pytest.approx(kou_model.x0 - 1e-4, abs=1e-7)

    def test_put_call_parity(self, kou_model):
        # the damping regions below the payoff poles price the put and the
        # covered call; the corrected values must agree with the call
        for K in (0.7, 1.0, 1.4):
            call = oracles.call_fourier(kou_model, K, damping=0.4)
            from_covered = oracles.call_fourier(kou_model, K, damping=-0.5)
            from_put = oracles.call_fourier(kou_model, K, damping=-1.6)
            assert call == pytest.approx(from_covered, abs=1e-8)
            assert call == pytest.approx(from_put, abs=1e-8)

    def test_matches_monte_carlo(self, kou_model, kou_sample):
        # puts: the call payoff's variance needs E[X^2], infinite for this
        # model (strip (-1, 2)), while the put payoff is bounded; put-call
        # parity prices the put from the call
        for k_rel in (0.8, 1.0, 1.2):
            K = k_rel * kou_model.x0
            payoff = np.maximum(K - kou_sample, 0.0)
            se = payoff.std() / math.sqrt(payoff.size)
            put = oracles.call_fourier(kou_model, K) - kou_model.x0 + K
            assert abs(put - payoff.mean()) <= 3.0 * se

    def test_convex_decreasing_in_strike(self, kou_model):
        ks = np.linspace(0.5, 2.0, 16)
        prices = np.array([oracles.call_fourier(kou_model, float(k)) for k in ks])
        assert np.all(np.diff(prices) < 0)
        assert np.all(np.diff(prices, 2) > -1e-9)

    def test_infeasible_damping(self, kou_model):
        with pytest.raises(OracleError):
            oracles.call_fourier(kou_model, 1.0, damping=5.0)  # above eta1 - 1


class TestScalarInversion:
    """A scalar Fourier price is mostly fixed per-call cost: its saddle solve
    makes one cgf_derivatives call, and most points one integrator call of
    16 windows."""

    @staticmethod
    def configs():
        return [cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json")) for name in CONFIGS]

    def test_most_scalar_points_take_one_integrator_call(self, monkeypatch):
        calls = []

        def counting(f, a, b, tol=numerics.DEFAULT_TOL):
            calls.append(1)
            return real_integrate(f, a, b, tol)

        real_integrate = numerics.integrate
        monkeypatch.setattr(numerics, "integrate", counting)
        prices, densities = [], []
        for config in self.configs():
            for log_k in np.linspace(-8.0, 12.0, 41):
                calls.clear()
                oracles.call_fourier(config.model, math.exp(log_k), config.tol)
                prices.append(len(calls))
            for ell in np.linspace(-12.0, 12.0, 49):
                calls.clear()
                oracles.density_fourier(config.model, math.exp(ell), config.tol)
                densities.append(len(calls))
        # with 8 windows a call, as arrays take them, 116 of the 123 prices
        # and 135 of the 147 densities take two calls or more; the far NIG
        # densities (log x <= -10.5 or >= 9) need 17 or 18 windows
        assert np.mean(np.array(prices) == 1) >= 0.9
        assert np.mean(np.array(densities) == 1) >= 0.9

    def test_saddle_takes_one_cgf_call(self, monkeypatch):
        calls = []
        real = MixedModel.cgf_derivatives
        monkeypatch.setattr(MixedModel, "cgf_derivatives", lambda self, s: calls.append(1) or real(self, s))
        ells = np.linspace(-12.0, 12.0, 481)
        for config in self.configs():
            oracles._saddle_table(config.model)
            calls.clear()
            oracles._saddle(config.model, ells)
            assert len(calls) == 1
            for ell in ells[::10]:
                calls.clear()
                oracles._saddle(config.model, np.array([ell]))
                assert len(calls) == 1

    def test_scalar_and_array_agree(self):
        # the points group their windows into other integrator calls, so a
        # total may differ in its last bits
        strikes, x = np.exp(np.linspace(-8.0, 12.0, 41)), np.exp(np.linspace(-12.0, 12.0, 41))
        for config in self.configs():
            model, tol = config.model, config.tol
            for price, K in zip(oracles.call_fourier(model, strikes, tol), strikes):
                assert oracles.call_fourier(model, float(K), tol) == pytest.approx(price, rel=4.4e-15, abs=0.0)
            for density, point in zip(oracles.density_fourier(model, x, tol), x):
                assert oracles.density_fourier(model, float(point), tol) == pytest.approx(density, rel=4.4e-15, abs=0.0)


class TestSimulatePaths:
    def test_deterministic_in_seed(self, kou_model):
        a = oracles.simulate_paths(kou_model, 40_000, 60, RngStream(9))
        b = oracles.simulate_paths(kou_model, 40_000, 60, RngStream(9))
        assert np.array_equal(a, b)
        res_a, res_b = oracles.summarize(a, 9), oracles.summarize(b, 9)
        assert res_a == res_b

    def test_seed_changes_sample(self, kou_model):
        a = oracles.simulate_paths(kou_model, 10_000, 60, RngStream(1))
        b = oracles.simulate_paths(kou_model, 10_000, 60, RngStream(2))
        assert not np.array_equal(a, b)

    def test_zero_intensity_mean(self, ref_heston):
        p = HestonParams(mu=0.05, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0)
        model = MixedModel(heston=p, jumps=None)
        sample = oracles.simulate_paths(model, 200_000, 120, RngStream(3))
        se = sample.std() / math.sqrt(sample.size)
        assert abs(sample.mean() - p.forward) <= 3.0 * se

    def test_moment_matches_closed_form(self, kou_model, kou_sample):
        # orders with 2s inside the moment strip (-1, 2), so the standard error exists
        for s in (-0.4, 0.5, 0.9):
            pows = kou_sample**s
            se = pows.std() / math.sqrt(pows.size)
            closed = heston.mgf(kou_model.heston, s) * kou_model.jump_moment(s)
            assert abs(pows.mean() - closed) <= 3.0 * se

    @pytest.mark.parametrize("rho", [-0.9, 0.9])
    def test_leverage_moments(self, rho):
        # HestonParams admits only rho <= 0, where the tail formulas are
        # established; the scheme and the closed-form moments hold for either
        # sign, so both cases run on a stand-in with the same fields
        p = SimpleNamespace(mu=0.05, a=1.0, b=2.0, c=0.5, rho=rho, x0=1.0, y0=0.04, t=1.0)
        sample = oracles.simulate_paths(SimpleNamespace(heston=p, jumps=None), 200_000, 200, RngStream(5))
        for s in (-0.5, 0.5, 1.5):
            assert heston.explosion_time(p, 2.0 * s) > p.t  # E[X^(2s)] finite, so the standard error exists
            pows = sample**s
            se = pows.std() / math.sqrt(pows.size)
            assert abs(pows.mean() - heston.mgf(p, s)) <= 3.0 * se

    @pytest.mark.parametrize("law", ["kou", "nig"])
    def test_sample_independent_of_core_count(self, request, monkeypatch, law):
        model = request.getfixturevalue(f"{law}_model")
        n_paths = 3 * 2**15 + 7  # three full blocks and a partial one
        default = oracles.simulate_paths(model, n_paths, 60, RngStream(4))
        for cores in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            assert np.array_equal(oracles.simulate_paths(model, n_paths, 60, RngStream(4)), default)

    @pytest.mark.parametrize("cpu_count", [3, None])
    def test_sample_without_sched_getaffinity(self, kou_model, monkeypatch, cpu_count):
        # os.sched_getaffinity exists on Linux only; elsewhere the worker count
        # comes from os.cpu_count(), which may return None
        n_paths = 2 * 2**15 + 5
        default = oracles.simulate_paths(kou_model, n_paths, 60, RngStream(6))
        asked = []
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: asked.append(1) or cpu_count)
        assert np.array_equal(oracles.simulate_paths(kou_model, n_paths, 60, RngStream(6)), default)
        assert asked

    def test_blocks_partition_the_sample(self, kou_model):
        threads_before = threading.active_count()
        callers = []

        class RecordingJumps:
            def sample_factors(self, stream, size):
                callers.append(threading.current_thread())
                return kou_model.jumps.sample_factors(stream, size)

        model = SimpleNamespace(heston=kou_model.heston, jumps=RecordingJumps())
        sample = oracles.simulate_paths(model, 3 * 2**15 + 7, 60, RngStream(8))
        assert threading.active_count() == threads_before
        # one jump draw per block, each in the calling thread
        assert callers == [threading.current_thread()] * 4
        assert np.array_equal(sample, oracles.simulate_paths(kou_model, 3 * 2**15 + 7, 60, RngStream(8)))
        assert np.array_equal(sample[: 2**15], oracles.simulate_paths(kou_model, 2**15, 60, RngStream(8)))

    def test_step_floor_enforced(self, kou_model):
        with pytest.raises(DomainError):
            oracles.simulate_paths(kou_model, 1000, 10, RngStream(1))

    @pytest.mark.parametrize("n_paths", [-5, 0, 1])
    def test_too_few_paths_refused(self, kou_model, n_paths):
        with pytest.raises(DomainError, match="n_paths"):
            oracles.simulate_paths(kou_model, n_paths, 60, RngStream(1))

    def test_mc_result_invariants(self):
        with pytest.raises(DomainError):
            oracles.MCResult(estimate=1.0, std_error=-0.1, n_paths=10, seed=0)


class TestRiccatiOracle:
    def test_no_explosion_cases(self, ref_heston):
        assert oracles.riccati_explosion_time(ref_heston, 0.5, t_cap=20.0) == math.inf
        assert oracles.riccati_explosion_time(ref_heston, 3.0, t_cap=20.0) == math.inf

    def test_matches_closed_form(self, ref_heston):
        for s in (7.0, 10.0, -4.0):
            assert oracles.riccati_explosion_time(ref_heston, s, t_cap=30.0) == pytest.approx(
                heston.explosion_time(ref_heston, s), rel=1e-9)

    def test_log_mgf_route(self, ref_heston):
        assert oracles.riccati_log_mgf(ref_heston, 2.0) == pytest.approx(
            math.log(heston.mgf(ref_heston, 2.0)), abs=1e-10)
