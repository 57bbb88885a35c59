"""Shared numeric kernel: special functions, quadrature, the window sweep, root
finding, RNG streams.

All routines are pure functions of their arguments. Random streams are explicit
values (`RngStream`), never shared mutable state.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import BracketingError, ConvergenceError, DivergenceError, DomainError, MomentExplosionError

__all__ = [
    "Tolerance",
    "UnderflowWarning",
    "log_gamma",
    "integrate",
    "window_sweep",
    "find_root",
    "complex_namespace",
    "first_outside",
    "require_finite",
    "domain_points",
    "shaped_like",
    "moment_from_log",
    "RngStream",
]


class UnderflowWarning(RuntimeWarning):
    """A special-function value underflowed to zero."""


def require_finite(record) -> None:
    """Reject a parameter record holding a NaN or infinite field, by name.

    Every field of the record must be a real number. Runs before the range
    checks of a record: comparisons with NaN are False, so a guard such as
    `a < 0` lets NaN through.
    """
    values = vars(record)
    if not all(map(math.isfinite, values.values())):
        name = next(key for key, value in values.items() if not math.isfinite(value))
        raise DomainError(f"{type(record).__name__}.{name} must be finite, got {values[name]}")


def domain_points(x, ok, requirement: str) -> np.ndarray:
    """x (a scalar or an array) as a flat float array whose points are finite with ok(points) true.

    Refuses the first other point with a DomainError naming it after
    `requirement`, as in "call_fourier requires finite K > 0, got inf".
    """
    points = np.asarray(x, dtype=float).ravel()
    bad = ~(np.isfinite(points) & ok(points))
    if bad.any():
        raise DomainError(f"{requirement}, got {points[bad][0]}")
    return points


def shaped_like(template, values: np.ndarray):
    """values shaped like `template`: a float for a scalar, else an array."""
    return float(values[0]) if np.ndim(template) == 0 else values.reshape(np.shape(template))


def moment_from_log(log_moment: float, order) -> float:
    """The moment e^log_moment of order `order`; one past the double range (inside the
    strip, near a pole of the moment) raises MomentExplosionError naming the order."""
    try:
        return math.exp(log_moment)
    except OverflowError:
        raise MomentExplosionError(f"moment of order {order} overflows: its log is {log_moment:.6g}") from None


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance plus an iteration budget, which bounds find_root only:
    integrate and window_sweep have the fixed PANEL_DEPTH and MAX_WINDOWS."""

    rel: float = 1e-10
    abs: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        require_finite(self)
        if not self.rel > 0:
            raise DomainError(f"Tolerance.rel must be > 0, got {self.rel}")
        if self.abs < 0:
            raise DomainError(f"Tolerance.abs must be >= 0, got {self.abs}")
        if self.max_iter < 1:
            raise DomainError(f"Tolerance.max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOL = Tolerance()


# Math namespaces of the complex moment functions: one formula body serves a
# scalar argument through cmath (the exact arithmetic of a scalar call) and an
# array argument through numpy.
_SCALAR = SimpleNamespace(
    sqrt=cmath.sqrt,
    exp=cmath.exp,
    log=cmath.log,
    where=lambda cond, yes, no: yes if cond else no,
    any=bool,
    all=bool,
    errstate=contextlib.nullcontext,
)
_ARRAY = SimpleNamespace(
    sqrt=np.sqrt,
    exp=np.exp,
    log=np.log,
    where=np.where,
    any=np.any,
    all=np.all,
    errstate=lambda: np.errstate(divide="ignore", invalid="ignore"),
)


def complex_namespace(z):
    """(z as complex, math namespace): cmath for a scalar, numpy for an array."""
    if isinstance(z, np.ndarray) and z.ndim:
        return z.astype(complex, copy=False), _ARRAY
    return complex(z), _SCALAR


def first_outside(z, lo: float, hi: float):
    """First element of z whose real part is not strictly inside (lo, hi), or None."""
    if isinstance(z, np.ndarray) and z.ndim:
        inside = (z.real > lo) & (z.real < hi)
        return None if inside.all() else z[~inside].flat[0]
    return None if lo < z.real < hi else z


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# 21-point Gauss-Kronrod rule (QUADPACK qk21): Kronrod nodes on [-1, 1] with
# their weights, and the weights of the embedded 10-point Gauss rule, which
# uses every second node
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11:20:2] = _WG[::-1]

# bisection levels integrate may use below the panels it is given
PANEL_DEPTH = 12


def integrate(f, a, b, tol: Tolerance = DEFAULT_TOL):
    """Integrals of f over the panels (a[i], b[i]) by adaptive 21-point Gauss-Kronrod.

    Every node of every open panel goes to f in one call, `f(x, owner)`: x has
    shape (m, 21), one row per panel, and owner[r] is the index i of the given
    panel that row r subdivides; f returns real values of the shape of x. A
    panel is accepted when |Kronrod - Gauss| <= max(tol.abs, tol.rel * R),
    with R the Kronrod integral of |f| over the panel; only the panels that
    fail are bisected. After PANEL_DEPTH bisections the panels still failing
    are accepted when the summed error estimate of the given panel they
    subdivide is within max(tol.abs, tol.rel * |its integral|) (a kink where
    f vanishes on one side fails every panel test at any depth, yet its
    error shrinks with the panel). Returns (values, error estimates), both
    of the shape of a. Raises ConvergenceError, with the best estimates,
    when f is not finite, when a failing panel is already at the rounding
    level of its integrand (bisection cannot help), or when the test fails
    after PANEL_DEPTH bisections.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    lo, hi = a.ravel(), b.ravel()
    values = np.zeros(lo.size)
    errors = np.zeros(lo.size)
    owner = np.arange(lo.size)
    for depth in range(PANEL_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * _GK_NODES, owner)
        if not np.isfinite(fx).all():
            raise ConvergenceError("panel integrand is not finite", best_estimate=values.reshape(shape))
        kronrod = half * (fx @ _GK_KRONROD)
        err = np.abs(kronrod - half * (fx @ _GK_GAUSS))
        scale = np.abs(half) * (np.abs(fx) @ _GK_KRONROD)
        ok = err <= np.maximum(tol.abs, tol.rel * scale)
        values += np.bincount(owner[ok], kronrod[ok], values.size)
        errors += np.bincount(owner[ok], err[ok], errors.size)
        if ok.all():
            return values.reshape(shape), errors.reshape(shape)
        bad = ~ok
        at_rounding = np.any(err[bad] <= 50.0 * np.finfo(float).eps * scale[bad])
        if at_rounding or depth == PANEL_DEPTH:
            values += np.bincount(owner[bad], kronrod[bad], values.size)
            errors += np.bincount(owner[bad], err[bad], errors.size)
            failing = owner[bad]
            if not at_rounding and np.all(errors[failing] <= np.maximum(tol.abs, tol.rel * np.abs(values[failing]))):
                return values.reshape(shape), errors.reshape(shape)
            reason = ("is below the rounding level of the integrand" if at_rounding
                      else f"was not met within {PANEL_DEPTH} bisections")
            raise ConvergenceError(
                f"panel tolerance rel={tol.rel:g}, abs={tol.abs:g} {reason}",
                best_estimate=values.reshape(shape),
                error_estimate=errors.reshape(shape),
            )
        lo, hi = np.concatenate([lo[bad], mid[bad]]), np.concatenate([mid[bad], hi[bad]])
        owner = np.concatenate([owner[bad], owner[bad]])


# window_sweep: the window budget of a point, and its divergence rule: past
# the stop position, DIVERGENCE_RUN windows in a row, each at least
# DIVERGENCE_STEP times the size of the one before, the last more than
# DIVERGENCE_GAIN times the first
MAX_WINDOWS = 704
DIVERGENCE_RUN = 9
DIVERGENCE_STEP = 1.02
DIVERGENCE_GAIN = 50.0


def window_sweep(integrand, first, stop_at, tol: Tolerance, what, *, growth: float, stop_run: int,
                 per_call: int) -> np.ndarray:
    """Integrals over (0, inf) of integrand(u, point), one for each point i.

    `integrand(u, point)` returns the integrand of point point[r] at the
    nodes u[r], one row per panel. Point i is integrated in adjacent windows
    from u = 0, of lengths first[i] * growth^j; each call of `integrate` takes
    the next `per_call` windows of every point still running. A window is
    negligible when its value is within max(tol.abs, tol.rel * |running
    total|); a point stops after `stop_run` negligible windows in a row that
    end past stop_at[i] (an integrand peaked far out begins with negligible
    windows). Past stop_at[i], a rising run of window sizes raises
    DivergenceError; a point still running after MAX_WINDOWS windows raises
    ConvergenceError. Both carry the running totals of all points as
    best_estimate, and `what(i)` names point i in their message.
    """
    seg, stop_at = np.array(first, dtype=float), np.asarray(stop_at, dtype=float)
    steps = growth ** np.arange(per_call)
    index = np.arange(per_call)
    u0, total = np.zeros(seg.size), np.zeros(seg.size)
    run = np.zeros(seg.size, dtype=int)
    # sizes of each point's last windows; inf before the first, so that the
    # rule waits for DIVERGENCE_RUN windows
    recent = np.full((seg.size, DIVERGENCE_RUN - 1), np.inf)
    active = np.arange(seg.size)
    for _ in range(MAX_WINDOWS // per_call):
        lengths = seg[active, None] * steps
        ends = u0[active, None] + np.cumsum(lengths, axis=1)
        values, _ = integrate(lambda u, panel: integrand(u, active[panel // per_call]), ends - lengths, ends, tol)
        partial = total[active, None] + np.cumsum(values, axis=1)
        negligible = np.abs(values) <= np.maximum(tol.abs, tol.rel * np.abs(partial))
        # length of the run of negligible windows ending at each window
        last_kept = np.maximum.accumulate(np.where(negligible, -1, index), axis=1)
        runs = np.where(last_kept < 0, run[active, None] + index + 1, index - last_kept)
        past = ends > stop_at[active, None]
        stops = (runs >= stop_run) & past
        stopped = stops.any(axis=1)
        last = np.where(stopped, stops.argmax(axis=1), per_call - 1)
        rows = np.arange(active.size)
        total[active], run[active] = partial[rows, last], runs[rows, last]
        sizes = np.concatenate([recent[active], np.abs(values)], axis=1)
        recent[active] = sizes[:, -(DIVERGENCE_RUN - 1):]
        # a window more than DIVERGENCE_GAIN times the one DIVERGENCE_RUN - 1
        # before it is rare; only then is the whole rule tested
        gained = sizes[:, DIVERGENCE_RUN - 1:] > DIVERGENCE_GAIN * sizes[:, :per_call]
        if gained.any():
            span = np.lib.stride_tricks.sliding_window_view(sizes, DIVERGENCE_RUN, axis=1)
            rising = (gained & past & (index <= last[:, None]) & (span[..., 0] > 0)
                      & np.all(span[..., 1:] >= DIVERGENCE_STEP * span[..., :-1], axis=-1))
            if rising.any():
                row, j = np.argwhere(rising)[0]
                total[active[row]] = partial[row, j]
                raise DivergenceError(f"{what(active[row])}: partial sums keep growing (window ending at "
                                      f"u={ends[row, j]:.3g}, size {values[row, j]:.3g})", best_estimate=total)
        u0[active], seg[active] = ends[:, -1], lengths[:, -1] * growth
        active = active[~stopped]
        if active.size == 0:
            return total
    raise ConvergenceError(f"{what(active[0])}: window budget of {MAX_WINDOWS} exhausted by "
                           f"u={u0[active[0]]:.3g}", best_estimate=total)


def find_root(f, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of f on [lo, hi]; requires a sign change on the bracket.

    Interpolation-accelerated bisection (Brent), so convergence is guaranteed
    for continuous f.
    """
    if not lo < hi:
        raise DomainError(f"find_root requires lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    # imported after oracles imports scipy.integrate: the other order made importing
    # wingtail.cli 0.2 s slower (CPU time, 2-core host, scipy 1.17)
    from scipy import optimize as _sci_optimize

    xtol = max(tol.abs, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0))
    return float(
        _sci_optimize.brentq(f, lo, hi, xtol=xtol, rtol=max(tol.rel, 8.9e-16), maxiter=tol.max_iter)
    )


class RngStream:
    """Reproducible uniform stream with index-derived independent sub-streams."""

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        whole = isinstance(seed, numbers.Integral) or (isinstance(seed, float) and seed.is_integer())
        if not whole or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def substream(self, index: int) -> "RngStream":
        """Independent stream derived deterministically from (seed, index)."""
        return RngStream(self.seed, self._spawn_key + (int(index),))

    def uniform(self, size=None):
        return self.generator.uniform(size=size)
