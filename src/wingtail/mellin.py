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


def _two_sided(integrand, cover, width: float, tol: Tolerance, what: str, *, cuts=(), reach: float = 0.0,
               per_call: int = 1) -> float:
    """Integral of integrand(v) over the real line, with panel edges on the lattice width * Z and at the `cuts`.

    The span is one call of the integrator, on its lattice panels split at
    the cuts. It runs from the last lattice point at or below the cover, an
    interval that holds 0 and the cuts, to the first at or above it (no span
    when that is one lattice point). The two directions outward from the
    span are the two points of one window sweep in windows of `width`, in
    u = |v|. The sweep's first integrator call takes per_call windows of each
    direction, or as many as reach |v| = reach, and each later call per_call
    windows of each direction still running. A direction stops after two
    negligible windows in a row that end past |v| = reach and past the
    windows of its first call: it sums every window the first call took,
    since an absolute tolerance can call the first windows past a span that
    holds the mass of a small integral negligible.
    The span's lattice panels, and the sweep's windows in u = |v|, take their
    nodes by one formula (mid + half * node, from exact edges): so the nodes
    of a lattice panel are the same to the bit whichever path takes it, and
    with no cuts the nodes depend only on the panels taken and on those the
    integrator bisects.
    """
    lo, hi = math.floor(min(cover) / width), math.ceil(max(cover) / width)
    # a sorted set of Python floats: numpy's set routines import numpy.ma
    edges = np.array(sorted({*(np.arange(lo, hi + 1) * width).tolist(), *cuts}))
    middle = integrate(lambda v, _: integrand(v), edges[:-1], edges[1:], tol)[0].sum() if edges.size > 1 else 0.0
    ends, sign = np.array([hi, lo]) * width, np.array([1.0, -1.0])
    start = np.abs(ends)
    stop_at = np.maximum(start + (per_call - 0.5) * width, reach)
    totals = window_sweep(lambda u, point: integrand(sign[point, None] * u), np.full(2, width), stop_at, tol,
                          lambda i: f"{what}, v {'><'[i]} {ends[i]:.6g}", growth=1.0, stop_run=2,
                          per_call=per_call, start=start)
    return float(middle + totals[0] + totals[1])


TRANSFORM_TOL = Tolerance(rel=1e-11, abs=1e-14)


def mellin_transform(U, z: float) -> float:
    """MU(z) = integral_0^inf t^(-z-1) U(t) dt to TRANSFORM_TOL, in v = log t over octaves of t.

    U takes and returns numpy arrays; it may jump at t = 1, a window edge.
    Both directions sweep out from t = 1 to 40 octaves before they may stop.
    Raises DivergenceError when the windowed partial sums keep growing, which
    is how an evaluation outside the convergence strip shows up numerically.
    """
    # the half window keeps the summed octave edges off the stop position
    octave = math.log(2.0)
    return _two_sided(lambda v: np.exp(-z * v) * U(np.exp(v)), (0.0, 0.0), octave, TRANSFORM_TOL,
                      f"Mellin transform at z={z}", reach=39.5 * octave)


# windows of each direction in each integrator call of a convolution's outward sweep
SWEEP_WINDOWS = 6


def mellin_convolve(f, g, x: float, tol: Tolerance = DEFAULT_TOL, f_jumps_at_one: bool = True,
                    cover: tuple[float, float] = (0.0, 0.0)) -> float:
    """(f * g)(x) = integral_0^inf f(x/t) g(t) dt/t, in v = log t on unit panels.

    f and g take and return numpy arrays (the jump laws' `price_density`
    does). g may jump at 1, and f too unless f_jumps_at_one is False: panel
    edges sit at t = 1 and, for such an f, at t = x. Any other jump must fall
    on a point that bisecting a panel reaches, or the integrator raises
    ConvergenceError. The panels lie on the integer lattice of v. The span
    between the lattice points around 0, log x and the `cover` (an interval
    of v that holds the integrand's mass; 0 and log x alone suit factors
    concentrated near 1) is integrated in one call, and the sweep outward
    from its ends takes SWEEP_WINDOWS unit windows of each direction per
    call, until two in a row are negligible. So f and g see two calls for
    most x, each with all its nodes. An f that may jump at 1 makes log x one
    extra edge, and the two panels beside an off-lattice log x then place
    g's nodes differently for another x; without that edge every panel is a
    lattice panel, with the same nodes whether the span or the sweep takes
    it. So a g that remembers its values is evaluated at few new nodes per x
    (those of the panels beside log x, for the Kou density), or at none once
    other points have taken all of its panels (the NIG density).
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"mellin_convolve requires finite x > 0, got {x}")
    log_x = math.log(x)
    return _two_sided(lambda v: f(x / np.exp(v)) * g(np.exp(v)), (0.0, log_x, *cover), 1.0, tol,
                      f"Mellin convolution at x={x}", cuts=(log_x,) if f_jumps_at_one else (),
                      per_call=SWEEP_WINDOWS)


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
