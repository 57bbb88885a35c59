"""Mellin transform and convolution: exact values by quadrature, and tail
transfer by the asymptotic multiplication rule.

The multiplicative convolution here is
    (f * g)(x) = integral_0^inf f(x/t) g(t) dt/t,
the density of a product of independent positive random variables. Its
transform is MU(z) = integral_0^inf t^(-z) U(t) dt/t, so for a probability
density MU(eta) equals the moment of order -eta-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .numerics import DEFAULT_TOL, Tolerance, integrate, window_sweep

__all__ = [
    "AT_INFINITY",
    "AT_ZERO",
    "WING_LARGE",
    "WING_SMALL",
    "side_of",
    "ERROR_INV_SQRT_LOG",
    "ERROR_INV_LOG",
    "TailAsymptote",
    "mellin_transform",
    "mellin_convolve",
    "convolve_asymptote",
]

AT_INFINITY = "infinity"
AT_ZERO = "zero"

# the two wings of a density, and the side of the tail record describing each
WING_LARGE = "large"
WING_SMALL = "small"
_SIDES = {WING_LARGE: AT_INFINITY, WING_SMALL: AT_ZERO}

# error-order tags for the relative remainder of a tail formula
ERROR_INV_SQRT_LOG = "(log x)^(-1/2)"
ERROR_INV_LOG = "(log x)^(-1)"
_ERROR_RANK = {ERROR_INV_LOG: 0, ERROR_INV_SQRT_LOG: 1}


def side_of(wing: str) -> str:
    """The record side of a wing: AT_INFINITY for the large wing, AT_ZERO for the small."""
    if wing not in _SIDES:
        raise DomainError(f"unknown wing {wing!r}")
    return _SIDES[wing]


@dataclass(frozen=True)
class TailAsymptote:
    """Canonical one-term tail form with tracked relative error order.

    side == AT_INFINITY:  r1 * x^(-r3) * exp(r2*sqrt(log x)) * (log x)^r4,  x -> inf
    side == AT_ZERO:      r1 * x^(+r3) * exp(r2*sqrt(log(1/x))) * (log(1/x))^r4,  x -> 0
    """

    r1: float
    r2: float
    r3: float
    r4: float
    side: str = AT_INFINITY
    error_order: str = ERROR_INV_SQRT_LOG
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.r1 > 0:
            raise DomainError(f"TailAsymptote requires r1 > 0, got {self.r1}")
        if self.r2 < 0:
            raise DomainError(f"TailAsymptote requires r2 >= 0, got {self.r2}")
        if self.side not in (AT_INFINITY, AT_ZERO):
            raise DomainError(f"unknown side {self.side!r}")
        if self.error_order not in _ERROR_RANK:
            raise DomainError(f"unknown error order {self.error_order!r}")

    def log_value_logx(self, ell: float) -> float:
        """log of the asymptote at |log x| = ell (stays finite arbitrarily deep)."""
        # with ell = |log x|, both sides read: log r1 - r3*ell + r2*sqrt(ell) + r4*log(ell)
        if ell <= 0:
            raise DomainError(f"asymptote needs |log x| > 0, got {ell} on side {self.side}")
        return math.log(self.r1) - self.r3 * ell + self.r2 * math.sqrt(ell) + self.r4 * math.log(ell)

    @property
    def mellin_point(self) -> float:
        """Order rho at which the transfer rule evaluates the co-factor's Mellin
        transform: -r3 for a tail at infinity, +r3 for a tail at zero."""
        return -self.r3 if self.side == AT_INFINITY else self.r3

    def reflected(self) -> "TailAsymptote":
        """Record at infinity of y^-3 D(1/y), for D this record at zero: the
        reflection x -> 1/x about the unit spot, by which the large-wing rules
        price the small wing. r3 becomes r3 + 3; the rest is a function of |log x|."""
        if self.side != AT_ZERO:
            raise DomainError("reflected() needs a tail record at zero")
        return replace(self, r3=self.r3 + 3.0, side=AT_INFINITY)

    def error_bound_logx(self, ell: float) -> float:
        """Value of the error-order function at |log x| = ell > 0 (relative-error scale)."""
        if ell <= 0:
            raise DomainError(f"error bound needs |log x| > 0, got {ell} on side {self.side}")
        return ell ** -0.5 if self.error_order == ERROR_INV_SQRT_LOG else 1.0 / ell


def _two_sided(integrand, ends, width: float, min_windows: int, tol: Tolerance, what: str, cuts=()) -> float:
    """Integral of integrand(v) over the real line, with panel edges on the lattice width * Z and at the `cuts`.

    The span is one call of the integrator, on its lattice panels split at
    the cuts. It runs from the last lattice point at or below the ends to the
    first at or above them (none when both are that one lattice point), and
    on to -far and far: far is the farther of those two lattice points from
    v = 0, but no farther than the first lattice point past the stop position
    (min_windows - 1/2) * width. The two directions outward from the span
    are the two points of one window sweep, in windows of `width`; a
    direction may stop only once it reaches |v| past the stop position. The
    two directions start equally far out, or both past the stop position, so
    the sweep's first call takes the same windows of each, all up to that
    reach, and each later call one window per direction: two calls of the
    integrator in all, unless a direction needs more windows. Every panel
    but the two beside a cut that is off the lattice is the same for all
    ends, and its nodes are the same to the bit for all ends of one span
    (a window that one span's integrator call takes and another's sweep
    gets nodes up to an ulp apart). So with no cuts the nodes depend only on
    the span and on the panels the integrator bisects.
    """
    lo, hi = math.floor(min(ends) / width), math.ceil(max(ends) / width)
    far = min(max(-lo, hi), math.ceil(min_windows - 0.5))
    lo, hi = min(lo, -far), max(hi, far)
    edges = np.union1d(np.arange(lo, hi + 1) * width, cuts)
    middle = integrate(lambda v, _: integrand(v), edges[:-1], edges[1:], tol)[0].sum() if edges.size > 1 else 0.0
    start, sign = np.array([hi, lo]) * width, np.array([1.0, -1.0])
    # the half window keeps the summed octave edges of the transform off the stop position
    stop_at = np.maximum((min_windows - 0.5) * width - np.abs(start), 0.0)
    totals = window_sweep(lambda u, point: integrand(start[point, None] + sign[point, None] * u), np.full(2, width),
                          stop_at, tol, lambda i: f"{what}, v {'><'[i]} {start[i]:.6g}",
                          growth=1.0, stop_run=2, per_call=1)
    return float(middle + totals[0] + totals[1])


TRANSFORM_TOL = Tolerance(rel=1e-11, abs=1e-14)


def mellin_transform(U, z: float) -> float:
    """MU(z) = integral_0^inf t^(-z-1) U(t) dt to TRANSFORM_TOL, in v = log t over octaves of t.

    U takes and returns numpy arrays; it may jump at t = 1, a window edge.
    Raises DivergenceError when the windowed partial sums keep growing, which
    is how an evaluation outside the convergence strip shows up numerically.
    """
    return _two_sided(lambda v: np.exp(-z * v) * U(np.exp(v)), (0.0, 0.0), math.log(2.0), 40, TRANSFORM_TOL,
                      f"Mellin transform at z={z}")


def mellin_convolve(f, g, x: float, tol: Tolerance = DEFAULT_TOL, f_jumps_at_one: bool = True) -> float:
    """(f * g)(x) = integral_0^inf f(x/t) g(t) dt/t, in v = log t on unit panels.

    f and g take and return numpy arrays (the jump laws' `price_density`
    does). g may jump at 1, and f too unless f_jumps_at_one is False: panel
    edges sit at t = 1 and, for such an f, at t = x. Any other jump must fall
    on a point that bisecting a panel reaches, or the integrator raises
    ConvergenceError. The panels lie on the integer lattice of v: the span
    between the lattice points around 0 and log x, where the integrand's mass
    lies for factors concentrated near 1, widened to the same distance on
    both sides of 0 (at most 24), is integrated in one call, and the sweep
    outward from it runs to |log t| > 23.5 at least, both directions alike,
    all of that in its first call. So f and g see two calls for most x, each
    with all its nodes. An f that may jump at 1 makes log x one extra edge,
    and the two panels beside an off-lattice log x then place g's nodes
    differently for another x of the same span; without that edge every
    panel is a lattice panel. So a g that remembers its values is evaluated
    at few new nodes per x (about 42 for the Kou density), or at none once
    another x of the same span has filled them in (the NIG density).
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"mellin_convolve requires finite x > 0, got {x}")
    log_x = math.log(x)
    return _two_sided(lambda v: f(x / np.exp(v)) * g(np.exp(v)), (0.0, log_x), 1.0, 24, tol,
                      f"Mellin convolution at x={x}", (log_x,) if f_jumps_at_one else ())


def convolve_asymptote(f_tail: TailAsymptote, strip: tuple[float, float], moment: float) -> TailAsymptote:
    """Wing asymptote of U * f when f has the given power tail on that wing.

    The prefactor is multiplied by `moment`, the co-factor U's moment of
    order s = -rho - 1, its transform MU(rho) at rho = f_tail.mellin_point:
    -r3 for a tail at infinity and +r3 for a tail at zero (the mirror of the
    rule under x -> 1/x). s must lie strictly inside U's moment strip
    (lo, hi): the dominance condition. The slowly varying factor of f_tail
    is passed through unchanged, and the error order is the dominant of
    f_tail's own order and the remainder class of its slowly varying factor:
    (log x)^(-1/2) with an exp(r2 sqrt(log x)) factor (r2 > 0), else (log x)^(-1).
    """
    s, (lo, hi) = -f_tail.mellin_point - 1.0, strip
    if not lo < s < hi:
        raise DomainError(f"moment order {s} outside the co-factor's open moment strip ({lo}, {hi}); "
                          "the convolved tail is not dominated by this factor")
    mu = float(moment)
    if not mu > 0:
        raise DomainError(f"co-factor moment must be positive, got {mu}")
    order = max(f_tail.error_order, ERROR_INV_SQRT_LOG if f_tail.r2 > 0 else ERROR_INV_LOG, key=_ERROR_RANK.get)
    return replace(f_tail, r1=f_tail.r1 * mu, error_order=order)
