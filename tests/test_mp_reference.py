"""A 30-digit reference for the Fourier density oracle, and a 50-digit one
for the Heston log-moment around its double roots.

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
