"""The array-valued Fourier engine: array log-moments, analytic cumulant
derivatives, the saddle solve and the batched inversion, checked against
scalar evaluation and against an independent scipy `quad` inversion."""
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from wingtail import heston, kou, nig, oracles
from wingtail.errors import ConvergenceError, DomainError, MomentExplosionError
from wingtail.numerics import Tolerance

# where (b - rho c z)^2 + c^2 (z - z^2) = 0 for the reference diffusion
DOUBLE_ROOTS = [
    brentq(lambda z: (2.0 + 0.15 * z) ** 2 + 0.25 * (z - z * z), lo, hi, xtol=1e-15)
    for lo, hi in ((-3.0, -2.5), (6.0, 7.0))
]
ELLS = (-11.8, -3.0, 0.4, 5.0, 11.8)


@pytest.fixture(scope="module", params=["pure", "kou", "nig"])
def model(request, pure_model, kou_model, nig_model):
    return {"pure": pure_model, "kou": kou_model, "nig": nig_model}[request.param]


def random_strip_points(model, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = model.moment_strip()
    margin = 1e-3 * (hi - lo)
    return rng.uniform(lo + margin, hi - margin, n) + 1j * rng.uniform(-40.0, 40.0, n)


class TestArrayLogMoment:
    def test_array_matches_scalar(self, model):
        z = random_strip_points(model, 500, seed=11)
        array = model.log_moment(z.reshape(20, 25)).ravel()
        scalar = np.array([model.log_moment(complex(v)) for v in z])
        assert np.max(np.abs(array - scalar) / np.maximum(1.0, np.abs(scalar))) <= 1e-13

    def test_components_keep_shape_and_type(self, kou_model, nig_model):
        z = np.array([[0.2 + 1j, -0.4], [0.5j, 0.9]])
        for values in (heston.log_mgf(kou_model.heston, z), kou.log_jump_mgf(kou_model.jumps, z),
                       nig.log_nig_mgf(nig_model.jumps, z)):
            assert values.shape == z.shape and values.dtype == complex
        assert isinstance(heston.log_mgf(kou_model.heston, 0.3), complex)

    def test_no_floating_point_warning_across_the_strip(self, model, ref_heston):
        lo, hi = model.moment_strip()
        re = np.concatenate([np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 41), [0.0, 1.0]])
        im = np.concatenate([[0.0, -0.0], np.geomspace(1e-8, 1e3, 40)])
        z = re[:, None] + 1j * im
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(model.log_moment(z)))
            assert np.all(np.isfinite(heston.log_mgf(ref_heston, np.append(z.ravel(), DOUBLE_ROOTS))))

    def test_strip_checked_per_element(self, kou_model, nig_model):
        with pytest.raises(MomentExplosionError, match="2.5"):
            kou.log_jump_mgf(kou_model.jumps, np.array([0.1, 0.5 + 3j, 2.5]))
        with pytest.raises(MomentExplosionError, match="-2.1"):
            nig.log_nig_mgf(nig_model.jumps, np.array([0.1, -2.1]))


class TestDoubleRoot:
    def test_analytic_limit(self, ref_heston):
        value = heston.log_mgf(ref_heston, DOUBLE_ROOTS[0])
        assert DOUBLE_ROOTS[0] == pytest.approx(-2.72233, abs=1e-5)
        assert value.imag == 0.0
        assert value.real == pytest.approx(1.7957399941788776, rel=1e-15)

    def test_next_to_the_root(self, ref_heston):
        # d^2 = 1.8e-15 here; 40-digit evaluation of the even form gives 4.8787344264622581
        assert heston.log_mgf(ref_heston, DOUBLE_ROOTS[1]).real == pytest.approx(4.8787344264622581, rel=1e-14)

    @pytest.mark.parametrize("root", DOUBLE_ROOTS)
    @pytest.mark.parametrize("h", [1e-7, 1e-6, 1e-5, 1e-4])
    def test_continuous_through_the_root(self, ref_heston, root, h):
        at = heston.log_mgf(ref_heston, root).real
        side = [heston.log_mgf(ref_heston, root + step).real for step in (-h, h)]
        # the mean of the sides differs from the center by h^2 K''/2 <= 1e-8 h^2 / h^2
        assert at == pytest.approx(0.5 * (side[0] + side[1]), rel=1e-12 + h * h)

    def test_array_entry_on_the_root(self, ref_heston):
        z = np.array([DOUBLE_ROOTS[0], 0.5 + 2j, DOUBLE_ROOTS[1], DOUBLE_ROOTS[0] + 1e-7j])
        array = heston.log_mgf(ref_heston, z)
        assert np.allclose(array, [heston.log_mgf(ref_heston, v) for v in z], rtol=1e-14, atol=0.0)

    def test_near_root_entries_among_ordinary_ones(self, ref_heston):
        # entries at and next to the double roots (|d t| < 2e-3) among entries
        # away from them, in one array: each gets the value it gets as a scalar
        rng = np.random.default_rng(12)
        ordinary = rng.uniform(-5.0, 11.0, 60) + 1j * rng.uniform(0.0, 40.0, 60)
        near = [root + step for root in DOUBLE_ROOTS for step in (0.0, 1e-9, -1e-8, 1e-8j, 2e-8 + 1e-8j)]
        z = np.insert(ordinary, [0, 7, 7, 19, 30, 31, 44, 52, 59, 60], near).reshape(7, 10)
        assert np.sum(np.abs(np.sqrt((2.0 + 0.15 * z) ** 2 + 0.25 * (z - z * z)))
                      < 2e-3) == len(near)
        array = heston.log_mgf(ref_heston, z)
        assert array.shape == z.shape
        scalar = np.array([heston.log_mgf(ref_heston, v) for v in z.ravel()]).reshape(z.shape)
        assert np.allclose(array, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("with_near_root", [False, True])
    def test_exact_explosion_named_among_other_entries(self, with_near_root):
        # b = 0, c = 2, rho = 0.75 at z = 2: bb = -3 and d^2 = 1 exactly, and at t = log 2
        # E = 1 - e^{-d t} = 1/2, so q = 1 - E/2 + bb (E/d)/2 is exactly 0; z = 0 is a
        # double root (d = 0) of the same quadratic
        p = SimpleNamespace(mu=0.0, a=1.0, b=0.0, c=2.0, rho=0.75, x0=1.0, y0=0.04, t=math.log(2.0))
        z = np.array([0.5 + 1j, 0.0, 2.0, 3.0 + 0.5j] if with_near_root else [0.5 + 1j, 2.0, 3.0 + 0.5j])
        for argument in (z, 2.0):
            with pytest.raises(MomentExplosionError, match=r"moment of order \(?2(\+0j\))? explodes exactly"):
                heston.log_mgf(p, argument)
        finite = heston.log_mgf(p, np.delete(z, np.flatnonzero(z == 2.0)))
        assert np.all(np.isfinite(finite))


class TestCgfDerivatives:
    def test_matches_log_moment_and_differences(self, model):
        lo, hi = model.moment_strip()
        s = np.concatenate([np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 41), DOUBLE_ROOTS])
        s = s[(s > lo + 0.05) & (s < hi - 0.05)]
        k, k1, k2 = model.cgf_derivatives(s)
        real = np.array([model.log_moment(v).real for v in s])
        assert np.max(np.abs(k - real) / np.maximum(1.0, np.abs(real))) <= 1e-12
        # five-point differences, truncation O(h^4)
        h = 1e-3
        kk = [model.cgf_derivatives(s + j * h)[0] for j in (-2, -1, 1, 2)]
        d1 = (kk[0] - 8.0 * kk[1] + 8.0 * kk[2] - kk[3]) / (12.0 * h)
        d2 = (-kk[0] + 16.0 * kk[1] - 30.0 * k + 16.0 * kk[2] - kk[3]) / (12.0 * h * h)
        assert np.max(np.abs(k1 - d1) / np.maximum(1.0, np.abs(k1))) <= 1e-7
        assert np.max(np.abs(k2 - d2) / np.maximum(1.0, k2)) <= 1e-5

    def test_saddle_solves_the_saddle_equation(self, model):
        ells = np.array(ELLS)
        nu, k_nu, k2 = oracles._saddle(model, ells)
        k, k1, kk = model.cgf_derivatives(nu)
        assert np.allclose(k, k_nu, rtol=1e-14, atol=0.0) and np.allclose(kk, k2, rtol=1e-14, atol=0.0)
        assert np.all(np.abs(k1 - ells) <= oracles.SADDLE_PHASE * np.sqrt(k2))


def reference_log_density(model, ell):
    """Independent inversion: bounded scalar saddle search and scipy quad."""
    lo, hi = model.moment_strip()
    pad = 1e-6 * (hi - lo)
    cgf = lambda v: model.log_moment(complex(v)).real
    nu = minimize_scalar(lambda v: cgf(v) - v * ell, bounds=(lo + pad, hi - pad), method="bounded",
                         options={"xatol": 1e-10}).x
    k_nu = cgf(nu)
    integrand = lambda u: np.exp(model.log_moment(complex(nu, u)) - k_nu - 1j * u * ell).real
    total = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
    return math.log(total / math.pi) + k_nu - nu * ell - ell


def reference_call(model, kappa):
    """Independent call inversion on a fixed-damping contour, with residues."""
    lo, hi = model.moment_strip()
    pad = 1e-6 * (hi - lo)
    cgf = lambda v: model.log_moment(complex(v)).real
    # minimize the log of the damped integrand at u = 0 over the contour shift
    objective = lambda v: cgf(v) - (v - 1.0) * kappa - math.log(abs(v * (v - 1.0)))
    pieces = [(lo + pad, -0.02), (0.02, 0.98), (1.02, hi - pad)]
    nu = min((minimize_scalar(objective, bounds=b, method="bounded", options={"xatol": 1e-10}).x
              for b in pieces if b[0] < b[1]), key=objective)
    alpha = nu - 1.0
    shift = cgf(nu)

    def integrand(u):
        z = complex(alpha + 1.0, u)
        return (np.exp(model.log_moment(z) - shift - 1j * u * kappa) / ((alpha + 1j * u) * z)).real

    total = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
    value = math.exp(shift - alpha * kappa) / math.pi * total
    if alpha < -1.0:
        value += model.x0 - math.exp(kappa)
    elif alpha < 0.0:
        value += model.x0
    return value


class TestInversion:
    @pytest.fixture(autouse=True)
    def _quiet_quad(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            yield

    def test_density_matches_independent_quad(self, model):
        got = oracles.log_density_fourier_logx(model, np.array(ELLS))
        for ell, value in zip(ELLS, got):
            assert math.exp(value) == pytest.approx(math.exp(reference_log_density(model, ell)), rel=1e-10)

    def test_call_matches_independent_quad(self, model):
        got = oracles.call_fourier(model, np.exp(ELLS))
        for ell, value in zip(ELLS, got):
            assert value == pytest.approx(reference_call(model, ell), rel=1e-10)

    def test_grid_equals_pointwise(self, model):
        ells = np.linspace(-6.0, 9.0, 7)
        grid = oracles.log_density_fourier_logx(model, ells)
        single = [oracles.log_density_fourier_logx(model, float(e)) for e in ells]
        assert np.allclose(grid, single, rtol=0.0, atol=1e-13)
        strikes = np.exp(np.linspace(-3.0, 4.0, 5))
        calls = oracles.call_fourier(model, strikes)
        assert np.allclose(calls, [oracles.call_fourier(model, float(k)) for k in strikes], rtol=1e-13, atol=0.0)

    def test_scalar_in_float_out_array_keeps_shape(self, kou_model):
        assert isinstance(oracles.density_fourier(kou_model, 1.3), float)
        assert isinstance(oracles.call_fourier(kou_model, 1.3), float)
        x = np.array([[0.5, 1.3], [2.0, 4.0]])
        assert oracles.density_fourier(kou_model, x).shape == (2, 2)
        assert oracles.call_fourier(kou_model, x).shape == (2, 2)

    @pytest.mark.parametrize("bad", [-2.0, 0.0, math.nan, math.inf])
    def test_bad_point_rejected(self, kou_model, bad):
        with pytest.raises(DomainError):
            oracles.density_fourier(kou_model, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            oracles.call_fourier(kou_model, np.array([1.0, bad]))
        if not math.isfinite(bad):
            with pytest.raises(DomainError):
                oracles.log_density_fourier_logx(kou_model, np.array([0.5, bad]))

    @pytest.mark.parametrize("tol", [Tolerance(rel=1e-17, abs=0.0), Tolerance(rel=1e-300, abs=0.0)])
    def test_unreachable_tolerance_raises(self, kou_model, tol):
        with pytest.raises(ConvergenceError):
            oracles.density_fourier(kou_model, 1.3, tol)
        with pytest.raises(ConvergenceError):
            oracles.call_fourier(kou_model, 1.3, tol)
