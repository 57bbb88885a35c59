"""A 30-digit reference for the Fourier density oracle, and 50-digit ones
for the Heston log-moment around its double roots and for the Heston wing
prefactors.

The reference inverts the product characteristic function of the mixed model
with mpmath at 30 significant digits (its `mp` context, not the double
precision `fp` one). It is written from the published formulas and reads the
plain parameter fields of the model: the Heston log-moment in the "little
Heston trap" form (Albrecher, Mayer, Schoutens and Tistaert 2007) and the
symmetric centred NIG log-moment (Barndorff-Nielsen 1997). From the engine it
takes only the moment strip, which places the contour and does not enter the
value.
"""
import math

import numpy as np
import pytest
from mpmath import mp

from wingtail import heston, oracles
from wingtail.heston import HestonParams

DIGITS = 30


def _heston_log_moment(h, z):
    c2 = mp.mpf(h.c) ** 2
    xi = h.b - h.rho * h.c * z
    d = mp.sqrt(xi * xi + c2 * (z - z * z))
    g = (xi - d) / (xi + d)
    e = mp.exp(-d * h.t)
    var_part = (xi - d) / c2 * (1 - e) / (1 - g * e)
    mean_part = h.a / c2 * ((xi - d) * h.t - 2 * mp.log((1 - g * e) / (1 - g)))
    return z * (mp.log(h.x0) + h.mu * h.t) + mean_part + var_part * h.y0


def _nig_log_moment(j, z):
    return j.delta * j.t * (j.alpha - mp.sqrt(mp.mpf(j.alpha) ** 2 - z * z))


def _log_moment(model, z):
    return _heston_log_moment(model.heston, z) + _nig_log_moment(model.jumps, z)


def _mp_density(model, ell: float):
    """f(e^ell) = e^-ell / pi int_0^inf Re[M(nu + iu) e^{-(nu + iu) ell}] du,
    with nu the minimiser of M(nu) e^{-nu ell} on the real axis, where the
    integrand does not cancel."""
    with mp.workdps(DIGITS):
        ell = mp.mpf(ell)
        lo, hi = model.moment_strip()
        pad = 1e-6 * (hi - lo)
        nu = mp.findroot(lambda v: mp.diff(lambda s: _log_moment(model, s) - s * ell, v),
                         (lo + pad, hi - pad), solver="illinois")
        k0 = _log_moment(model, nu) - nu * ell

        def integrand(u):
            z = mp.mpc(nu, u)
            return mp.re(mp.exp(_log_moment(model, z) - z * ell - k0))

        total = mp.quad(integrand, [0, 1, 4, 16, 64, mp.inf])
        return total / mp.pi * mp.exp(k0 - ell)


class TestNigReference:
    # density-large point of the reference NIG model on which the fp.quad
    # reference of the benchmark reads 4.5281423460571935e-10, 3.6e-10 off
    X = 725.7666198997282

    def test_density_fourier_agrees_to_30_digit_inversion(self, nig_model):
        reference = _mp_density(nig_model, math.log(self.X))
        engine = oracles.density_fourier(nig_model, self.X)
        assert engine == pytest.approx(float(reference), rel=1e-13, abs=0.0)


class TestHestonDoubleRoot:
    """heston.log_mgf next to the double roots d = 0 of the Riccati quadratic,
    where the trap form cancels in double precision, against 50 digits of it."""

    PARAMS = {
        "reference": HestonParams(mu=0.0, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0),
        "other": HestonParams(mu=0.02, a=0.6, b=1.0, c=0.8, rho=-0.7, x0=1.3, y0=0.08, t=1.0),
    }

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_matches_fifty_digits_around_both_roots(self, name):
        # offsets from 0 to 1e-2, real, imaginary and both, scalar and array:
        # within 5e-15 of max(1, |log moment|)
        h = self.PARAMS[name]
        with mp.workdps(50):
            # d^2 = (b - rho c z)^2 + c^2 (z - z^2) = 0, a quadratic in z
            c, rho, b = mp.mpf(h.c), mp.mpf(h.rho), mp.mpf(h.b)
            roots = [float(r) for r in mp.polyroots([c * c * (rho * rho - 1), c * c - 2 * b * rho * c, b * b])]
            offsets = np.concatenate([[0.0], np.geomspace(1e-16, 1e-2, 15)])
            z = np.array([r + o * w for r in roots for o in offsets for w in (1.0, -1.0, 1j, 1.0 + 1j)])
            array = heston.log_mgf(h, z)
            for zi, from_array in zip(z, array):
                want = _heston_log_moment(h, mp.mpc(zi))
                for got in (heston.log_mgf(h, complex(zi)), from_array):
                    assert abs(got - want) <= 5e-15 * max(1, abs(want)), zi


class TestHestonWingPrefactors:
    """The prefactors A and B = A M^s of both Heston wings against 50 digits of
    the product formula (Friz, Gerhold, Gulisashvili and Sturm 2011), at the
    engine's critical-moment record: within 1e-13 relative, also where A1t is
    near the bottom of the double range and its power-by-power product would
    pass through values outside it."""

    PARAMS = {
        "reference": HestonParams(mu=-0.25, a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0),
        "short": HestonParams(mu=0.0, a=0.6, b=1.0, c=0.1, rho=-0.3, x0=1.0, y0=0.02, t=0.01),
    }

    @staticmethod
    def _prefactors(h, s, sigma, kappa):
        with mp.workdps(50):
            a, b, c, rho, y0, t = (mp.mpf(v) for v in (h.a, h.b, h.c, h.rho, h.y0, h.t))
            s, sigma, kappa = mp.mpf(s), mp.mpf(sigma), mp.mpf(kappa)
            c2 = c * c
            ac2 = a / c2
            beta = c * rho * s - b
            r = mp.sqrt(c2 * (s * s - s) - beta * beta)
            bracket = 2 * r / mp.sin(t * r / 2) / (c2 * s * (s - 1))
            A = (mp.mpf(2) ** (-mp.mpf(3) / 4 - ac2) * y0 ** (mp.mpf(1) / 4 - ac2) * c ** (2 * ac2 - mp.mpf(1) / 2)
                 * sigma ** (-ac2 - mp.mpf(1) / 4) / mp.sqrt(mp.pi)
                 * mp.exp(-y0 * (beta / c2 + kappa / (c2 * sigma * sigma)) - a * t / c2 * beta) * bracket ** (2 * ac2))
            return A, A * (mp.mpf(h.x0) * mp.exp(mp.mpf(h.mu) * t)) ** s

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_matches_fifty_digits(self, name):
        h = self.PARAMS[name]
        cm, k = heston.critical_moments(h), heston.tail_constants(h)
        for got, moment in (((k.A1, k.B1), (cm.s_plus, cm.sigma_plus, cm.kappa_plus)),
                            ((k.A1t, k.B1t), (cm.s_minus, cm.sigma_minus, cm.kappa_minus))):
            for value, want in zip(got, self._prefactors(h, *moment)):
                assert abs(value / want - 1) <= 1e-13, (name, value, want)

    def test_short_horizon_values(self):
        k = heston.tail_constants(self.PARAMS["short"])
        assert k.A1 == pytest.approx(1.36759618896033e-14, rel=1e-13)
        assert k.A1t == pytest.approx(5.69439947398256e-228, rel=1e-13)
