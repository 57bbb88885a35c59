"""Symmetric centered normal-inverse-Gaussian jump factor.

The log-jump at horizon t has the closed-form density
    k(t) * K1(alpha*sqrt(y^2 + (delta t)^2)) / sqrt(y^2 + (delta t)^2),
k(t) = alpha*delta*t*e^(alpha*delta*t)/pi, built from Brownian motion run on an
inverse-Gaussian clock. Only this symmetric centered case is supported; the
price-density tail is a clean power law x^(-alpha-1) with a (log x)^(-3/2)
correction and no exp-sqrt-log factor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoArbitrageError
from .mellin import AT_ZERO, ERROR_INV_LOG, TailAsymptote, side_of
from .numerics import (UnderflowWarning, _normals, check_strip, complex_namespace, domain_points, inf_past_double,
                       k1e, require_finite, shaped_like)

__all__ = [
    "NIGParams",
    "nig_price_density",
    "nig_price_log_density_logx",
    "nig_wing_record",
    "nig_no_arb_drift",
    "log_nig_mgf",
    "nig_cgf_derivatives",
    "sample_nigs",
]


@dataclass(frozen=True)
class NIGParams:
    """Tail-heaviness alpha, scale delta, horizon t.

    The methods are the jump-law interface that `MixedModel` uses; each calls
    the module function of the same law. The jump factor is e^(Y_t), which has
    no atom.
    """

    kind = "nig"
    atom_mass = 0.0
    density_jumps_at_one = False

    alpha: float
    delta: float
    t: float

    def __post_init__(self):
        require_finite(self)
        if not self.alpha > 0:
            raise DomainError(f"need alpha > 0, got {self.alpha}")
        if not self.delta > 0:
            raise DomainError(f"need delta > 0, got {self.delta}")
        if not self.t > 0:
            raise DomainError(f"need t > 0, got {self.t}")

    @property
    def k_factor(self) -> float:
        adt = self.alpha * self.delta * self.t
        return adt * math.exp(adt) / math.pi

    def moment_strip(self) -> tuple[float, float]:
        return -self.alpha, self.alpha

    def log_mgf(self, z):
        return log_nig_mgf(self, z)

    def cgf_derivatives(self, s):
        return nig_cgf_derivatives(self, s)

    def wing_record(self, wing: str) -> TailAsymptote:
        return nig_wing_record(self, wing)

    def price_density(self, x):
        """Density of e^(Y_t) at x > 0, a scalar or an array (`nig_price_density`)."""
        return nig_price_density(self, x)

    def sample_factors(self, stream, size: int) -> np.ndarray:
        return np.exp(sample_nigs(self, stream, size))

    def martingale_drift(self) -> float:
        return nig_no_arb_drift(self)


def _log_price_density(params: NIGParams, ell: np.ndarray) -> np.ndarray:
    # log of the log-jump's density k(t) K1(alpha s)/s, s = sqrt(ell^2 + (delta t)^2),
    # less ell, via the exponentially scaled Bessel function so huge |ell| stays finite
    s = np.hypot(ell, params.delta * params.t)
    z = params.alpha * s
    adt = params.alpha * params.delta * params.t
    return math.log(adt / math.pi) + adt + np.log(k1e(z)) - z - np.log(s) - ell


def nig_price_log_density_logx(params: NIGParams, ell):
    """log density of e^(Y_t) at x = e^ell, a scalar (float result) or an array of
    finite ell; exp(nig_price_log_density_logx(y) + y) is the density of Y_t at y."""
    ells = domain_points(ell, np.isfinite, "nig_price_log_density_logx requires finite ell = log x")
    return shaped_like(ell, _log_price_density(params, ells))


def nig_price_density(params: NIGParams, x):
    """Density of the jump factor e^(Y_t) at x > 0, a scalar or an array; 0.0 where
    it underflows double precision, with one UnderflowWarning for the call."""
    xs = domain_points(x, lambda v: v > 0, "nig_price_density requires finite x > 0")
    log_val = _log_price_density(params, np.log(xs))
    under = log_val < -745.0
    if under.any():
        warnings.warn(f"NIG price density underflowed at x={xs[under][0]}", UnderflowWarning, stacklevel=2)
    return shaped_like(x, np.where(under, 0.0, np.exp(log_val)))


def nig_wing_record(params: NIGParams, wing: str) -> TailAsymptote:
    """Price-density asymptote k(t) sqrt(pi/2 alpha) x^(-alpha-1) (log x)^(-3/2)
    as x -> inf; the small wing x^(alpha-1) follows by the x <-> 1/x symmetry
    of the law, and its record carries a note saying so."""
    side = side_of(wing)
    small = side == AT_ZERO
    r1 = inf_past_double(lambda: params.k_factor * math.sqrt(math.pi / (2.0 * params.alpha)))
    if r1 == math.inf:
        raise DomainError(f"NIG wing prefactor r1 = k(t) sqrt(pi / (2 alpha)) is past the double range at "
                          f"alpha delta t = {params.alpha * params.delta * params.t}")
    return TailAsymptote(
        r1=r1,
        r2=0.0,
        r3=params.alpha - 1.0 if small else params.alpha + 1.0,
        r4=-1.5,
        side=side,
        error_order=ERROR_INV_LOG,
        note="extrapolated-by-symmetry" if small else "",
    )


def nig_no_arb_drift(params: NIGParams) -> float:
    """Heston drift making the mixed price a martingale at zero rates."""
    if params.alpha < 1.0:
        raise NoArbitrageError(
            f"no arbitrage-free drift exists for alpha={params.alpha} < 1: "
            "the jump factor has infinite mean correction"
        )
    return params.delta * (math.sqrt(params.alpha**2 - 1.0) - params.alpha)


def log_nig_mgf(params: NIGParams, z):
    """log E[e^{z Y_t}] for complex z with |Re z| < alpha.

    z may be a scalar (complex result, computed with cmath) or a numpy array
    (elementwise with numpy, every element inside the strip).
    """
    z, xp = complex_namespace(z)
    check_strip(z, params.moment_strip(), "NIG moment")
    return params.delta * params.t * (params.alpha - xp.sqrt(params.alpha**2 - z * z))


def nig_cgf_derivatives(params: NIGParams, s):
    """log E[e^{s Y_t}] and its first two derivatives at real s in (-alpha, alpha).

    s is a scalar or an array; returns three float arrays of its shape.
    """
    s = np.asarray(s, dtype=float)
    check_strip(s, params.moment_strip(), "NIG moment")
    dt, a2 = params.delta * params.t, params.alpha**2
    root = np.sqrt(a2 - s * s)
    return dt * (params.alpha - root), dt * s / root, dt * a2 / root**3


def _sample_inverse_gaussian(gen, mean: float, shape: float, size: int) -> np.ndarray:
    # Michael-Schucany-Haas transform with the standard rejection step, from
    # w = mean nu, nu a squared normal
    w = _normals(gen, np.empty(size))
    w *= w
    w *= mean
    x = mean + mean / (2.0 * shape) * (w - np.sqrt(w * (4.0 * shape + w)))
    u = gen.uniform(size=size)
    take_other = u > mean / (mean + x)
    x[take_other] = mean * mean / x[take_other]
    return x


def sample_nigs(params: NIGParams, stream, size: int) -> np.ndarray:
    """Vector of draws of Y_t via inverse-Gaussian subordination: Y_t = sqrt(T) Z with
    T inverse Gaussian of mean delta t / alpha and shape (delta t)^2, and Z normal.
    Both normals, the one inside the inverse-Gaussian draw and Z, come from
    Box-Muller (`numerics._normals`)."""
    gen = stream.generator
    dt = params.delta * params.t
    clock = _sample_inverse_gaussian(gen, mean=dt / params.alpha, shape=dt * dt, size=size)
    z = _normals(gen, np.empty(size))
    z *= np.sqrt(clock, out=clock)
    return z
