"""Mellin transform and convolution: exact values by quadrature, tail transfer
by the asymptotic multiplication rule, and slow-variation diagnostics.

The multiplicative convolution here is
    (f * g)(x) = integral_0^inf f(x/t) g(t) dt/t,
the density of a product of independent positive random variables. Its
transform is MU(z) = integral_0^inf t^(-z) U(t) dt/t, so for a probability
density MU(eta) equals the moment of order -eta-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConvergenceError, DivergenceError, DomainError
from .numerics import DEFAULT_TOL, Tolerance, integrate

__all__ = [
    "AT_INFINITY",
    "AT_ZERO",
    "ERROR_INV_SQRT_LOG",
    "ERROR_INV_LOG",
    "MellinStrip",
    "TailAsymptote",
    "mellin_transform",
    "mellin_convolve",
    "convolve_asymptote_infinity",
    "convolve_asymptote_zero",
    "zygmund_epsilon",
    "slow_variation_remainder",
]

AT_INFINITY = "infinity"
AT_ZERO = "zero"

# error-order tags for the relative remainder of a tail formula
ERROR_INV_SQRT_LOG = "(log x)^(-1/2)"
ERROR_INV_LOG = "(log x)^(-1)"
_ERROR_RANK = {ERROR_INV_LOG: 0, ERROR_INV_SQRT_LOG: 1}


def combine_error_orders(a: str, b: str) -> str:
    """The slower-decaying (dominant) of two error-order tags."""
    return a if _ERROR_RANK[a] >= _ERROR_RANK[b] else b


@dataclass(frozen=True)
class MellinStrip:
    """Open vertical strip (sigma, tau) on which the transform converges."""

    sigma: float
    tau: float

    def __post_init__(self):
        if not self.sigma < self.tau:
            raise DomainError(f"strip requires sigma < tau, got ({self.sigma}, {self.tau})")

    def contains(self, rho: float) -> bool:
        return self.sigma < rho < self.tau


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

    def log_value(self, x: float) -> float:
        ell = math.log(x) if self.side == AT_INFINITY else -math.log(x)
        return self.log_value_logx(ell)

    def value(self, x: float) -> float:
        return math.exp(self.log_value(x))

    def scaled(self, factor: float) -> "TailAsymptote":
        """Same form with the prefactor multiplied by `factor`."""
        if not factor > 0:
            raise DomainError(f"prefactor scale must be > 0, got {factor}")
        return replace(self, r1=self.r1 * factor)

    def with_note(self, note: str) -> "TailAsymptote":
        return replace(self, note=note)

    def error_bound_scale(self, x: float) -> float:
        """Value of the error-order function at x (relative-error scale)."""
        ell = math.log(x) if self.side == AT_INFINITY else -math.log(x)
        if ell <= 0:
            raise DomainError(f"error bound evaluated on the wrong side: x={x}")
        return ell ** -0.5 if self.error_order == ERROR_INV_SQRT_LOG else 1.0 / ell

    def slow_variation_remainder_order(self) -> str:
        """Remainder class of the slowly varying factor exp(r2 sqrt(log)) (log)^r4."""
        return ERROR_INV_SQRT_LOG if self.r2 > 0 else ERROR_INV_LOG


def _block_sum(block_values, tol: Tolerance, what: str, min_windows: int = 24):
    """Sum geometric-window quadrature blocks, detecting divergence.

    Termination is deferred until `min_windows` blocks have been swept: an
    integrand whose peak sits far from the starting window begins with many
    negligible (or exactly zero) blocks, and stopping on those would silently
    drop the mass. After the sweep, two consecutive negligible blocks end the
    sum; sustained geometric block growth past the sweep raises
    DivergenceError instead of returning a runaway partial sum.
    """
    total = 0.0
    small_run = 0
    history = []
    for j, val in enumerate(block_values):
        total += val
        history.append(abs(val))
        if abs(val) <= max(tol.abs, tol.rel * max(abs(total), tol.abs)):
            small_run += 1
            if small_run >= 2 and j + 1 >= min_windows:
                return total
        else:
            small_run = 0
        # genuine divergence = sustained geometric growth beyond the sweep; a
        # ramp toward a far-away peak ends within the sweep by construction
        if j + 1 >= min_windows and len(history) >= 9 and history[-9] > 0 and all(
            history[-i] >= history[-i - 1] * 1.02 for i in range(1, 9)
        ) and history[-1] > 50.0 * history[-9]:
            raise DivergenceError(f"{what}: partial sums keep growing (block {j}, size {val:.3g})")
    raise ConvergenceError(
        f"{what}: window budget exhausted (slowly convergent or divergent)", best_estimate=total
    )


def mellin_transform(U, z: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """MU(z) = integral_0^inf t^(-z-1) U(t) dt, by windowed adaptive quadrature.

    Raises DivergenceError when the windowed partial sums keep growing, which
    is how an evaluation outside the convergence strip shows up numerically.
    """
    inner = Tolerance(rel=tol.rel, abs=tol.abs, max_iter=max(tol.max_iter, 200))

    def integrand(t):
        return t ** (-z - 1.0) * U(t)

    def blocks_up():
        a = 1.0
        for _ in range(1100):
            yield integrate(integrand, a, 2.0 * a, inner)
            a *= 2.0

    def blocks_down():
        b = 1.0
        for _ in range(1100):
            yield integrate(integrand, b / 2.0, b, inner)
            b /= 2.0

    up = _block_sum(blocks_up(), tol, f"Mellin transform at z={z}, upper range", min_windows=40)
    down = _block_sum(blocks_down(), tol, f"Mellin transform at z={z}, lower range", min_windows=40)
    return up + down


def mellin_convolve(f, g, x: float, tol: Tolerance = DEFAULT_TOL, *, min_windows: int | None = None) -> float:
    """(f * g)(x) = integral_0^inf f(x/t) g(t) dt/t by windowed quadrature.

    The default sweep reaches |log t| ~ 2|log x| before trusting convergence,
    because for factors concentrated near 1 the integrand's peak can sit out
    at log t ~ log x. Callers that know g is the concentrated factor may pass
    a smaller `min_windows`.
    """
    if not x > 0:
        raise DomainError(f"mellin_convolve requires x > 0, got {x}")
    log_x = math.log(x)
    if min_windows is None:
        min_windows = max(24, int(2.0 * abs(log_x)) + 16)
    inner = Tolerance(rel=tol.rel, abs=tol.abs, max_iter=max(tol.max_iter, 200))

    # integrate in v = log t; windows of width 1 outward from v = 0. f is
    # evaluated at x/t and may jump at 1 (the Kou jump density does), so the
    # window holding v = log x is split there.
    def integrand(v):
        t = math.exp(v)
        return f(x / t) * g(t)

    def window(lo, hi):
        return integrate(integrand, lo, hi, inner, points=[log_x] if lo < log_x < hi else None)

    def blocks_up():
        v = 0.0
        for _ in range(1100):
            yield window(v, v + 1.0)
            v += 1.0

    def blocks_down():
        v = 0.0
        for _ in range(1100):
            yield window(v - 1.0, v)
            v -= 1.0

    up = _block_sum(blocks_up(), tol, f"Mellin convolution at x={x}, t > 1", min_windows)
    down = _block_sum(blocks_down(), tol, f"Mellin convolution at x={x}, t < 1", min_windows)
    return up + down


def convolve_asymptote_infinity(
    U,
    f_tail: TailAsymptote,
    rho: float,
    strip: MellinStrip,
    tol: Tolerance = DEFAULT_TOL,
    *,
    mellin_value: float | None = None,
) -> TailAsymptote:
    """Large-x asymptote of U * f when f has the given power tail at infinity.

    The prefactor is multiplied by MU(rho) with rho = -f_tail.r3; rho must lie
    strictly inside U's convergence strip (the dominance condition). The slowly
    varying factor of f_tail is passed through unchanged, and the error order
    is the dominant of f_tail's own order and the remainder class of its
    slowly varying factor.
    """
    if f_tail.side != AT_INFINITY:
        raise DomainError("convolve_asymptote_infinity requires a tail at infinity")
    if abs(rho + f_tail.r3) > 1e-12 * max(1.0, abs(rho)):
        raise DomainError(f"rho={rho} must equal -r3={-f_tail.r3} of the tail record")
    if not strip.contains(rho):
        raise DomainError(
            f"rho={rho} outside the open strip ({strip.sigma}, {strip.tau}); "
            "the convolved tail is not dominated by this factor"
        )
    mu = mellin_transform(U, rho, tol) if mellin_value is None else float(mellin_value)
    if not mu > 0:
        raise DomainError(f"Mellin transform value must be positive, got {mu}")
    order = combine_error_orders(f_tail.error_order, f_tail.slow_variation_remainder_order())
    return replace(f_tail, r1=f_tail.r1 * mu, error_order=order)


def convolve_asymptote_zero(
    U,
    f_zero: TailAsymptote,
    rho: float,
    strip: MellinStrip,
    tol: Tolerance = DEFAULT_TOL,
    *,
    mellin_value: float | None = None,
) -> TailAsymptote:
    """Small-x asymptote of U * f; mirror of the infinity rule under x -> 1/x.

    For a tail record at zero with f(x) ~ r1 x^r3 l(log(1/x)), the transfer
    evaluates MU at rho = +r3, which must lie inside U's strip.
    """
    if f_zero.side != AT_ZERO:
        raise DomainError("convolve_asymptote_zero requires a tail at zero")
    if abs(rho - f_zero.r3) > 1e-12 * max(1.0, abs(rho)):
        raise DomainError(f"rho={rho} must equal r3={f_zero.r3} of the tail record")
    if not strip.contains(rho):
        raise DomainError(
            f"rho={rho} outside the open strip ({strip.sigma}, {strip.tau}); "
            "the convolved tail is not dominated by this factor"
        )
    mu = mellin_transform(U, rho, tol) if mellin_value is None else float(mellin_value)
    if not mu > 0:
        raise DomainError(f"Mellin transform value must be positive, got {mu}")
    order = combine_error_orders(f_zero.error_order, f_zero.slow_variation_remainder_order())
    return replace(f_zero, r1=f_zero.r1 * mu, error_order=order)


def zygmund_epsilon(l, x: float, dl=None, rel_step: float = 1e-6) -> float:
    """Normalized slow-variation index x*l'(x)/l(x).

    The derivative defaults to a relative central difference (step `rel_step`);
    pass `dl` for an analytic derivative. Values tending to 0 diagnose
    membership in the normalized slowly varying (Zygmund) class.
    """
    lx = l(x)
    if lx == 0:
        raise DomainError(f"zygmund_epsilon requires l(x) != 0 at x={x}")
    if dl is not None:
        return x * dl(x) / lx
    h = rel_step * x
    return x * (l(x + h) - l(x - h)) / (2.0 * h) / lx


def slow_variation_remainder(l, lam: float, x: float) -> float:
    """l(lam*x)/l(x) - 1, the quantity a remainder class must bound."""
    if not lam > 1:
        raise DomainError(f"slow_variation_remainder requires lambda > 1, got {lam}")
    lx = l(x)
    if lx == 0:
        raise DomainError(f"slow_variation_remainder requires l(x) != 0 at x={x}")
    return l(lam * x) / lx - 1.0
