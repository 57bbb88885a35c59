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
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import BracketingError, ConvergenceError, DivergenceError, DomainError, MomentExplosionError

__all__ = [
    "Tolerance",
    "UnderflowWarning",
    "logsumexp",
    "integrate",
    "window_sweep",
    "find_root",
    "complex_namespace",
    "check_strip",
    "require_finite",
    "domain_points",
    "shaped_like",
    "moment_from_log",
    "inf_past_double",
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


def inf_past_double(compute) -> float:
    """compute() of a float expression, or inf where it raises OverflowError past the
    double range (math.exp, float powers), for the caller to refuse by name."""
    try:
        return compute()
    except OverflowError:
        return math.inf


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


def _cos_sin(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of a real array from one tangent, t = tan(theta/2):
    (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), each within about one eps of libm's.

    numpy's float64 tan is vectorized where its cos and sin are not: 4 against
    18-22 ns per element (x86-64, numpy 2.4), so this costs less than cos alone."""
    t = np.tan(0.5 * theta)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    return (1.0 - t2) * r, 2.0 * r * t


def _array_exp(w: np.ndarray) -> np.ndarray:
    """e^w of a complex array as e^{Re w} (cos Im w + i sin Im w), by real ufuncs.

    Where Im w == 0 the imaginary part is that zero, as in np.exp: the product
    would give e^{Re w} * 0, which is NaN once e^{Re w} overflows."""
    im = w.imag
    cos, sin = _cos_sin(im)
    scale = np.exp(w.real)
    out = np.empty_like(w)
    np.multiply(scale, cos, out=out.real)
    out.imag = im
    np.multiply(scale, sin, out=out.imag, where=im != 0)
    return out


def _array_log(w: np.ndarray) -> np.ndarray:
    """Principal log w of a complex array as log|w| + i arctan2(Im w, Re w), by real ufuncs;
    the cut and the signed zeros on it are np.log's."""
    out = np.empty_like(w)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out


# Math namespaces of the complex moment functions: one formula body serves a
# scalar argument through cmath (the exact arithmetic of a scalar call) and an
# array argument through numpy, whose complex exp and log are replaced by the
# real-ufunc kernels above (several times faster per element for log).
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
    exp=_array_exp,
    log=_array_log,
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


def check_strip(z, strip: tuple[float, float], what: str) -> None:
    """Refuse z, a scalar or an array, unless the real part of every element is strictly
    inside the open interval `strip`: MomentExplosionError names the first other element
    as the order of a `what` ("jump moment of order 5.0 undefined: ...")."""
    lo, hi = strip
    if isinstance(z, np.ndarray) and z.ndim:
        inside = (z.real > lo) & (z.real < hi)
        if inside.all():
            return
        z = z[~inside].flat[0]
    elif lo < z.real < hi:
        return
    raise MomentExplosionError(f"{what} of order {z} undefined: admissible open interval is ({lo}, {hi})")


# numpy reduces a contiguous row with one inner-loop call per row, which
# dominates for short rows: below this width `logsumexp` takes the maximum and
# the count of maxima (in bytes, which hold it) down the columns of a
# transposed copy, 2x faster at 24 and 48 terms and slower from 130; neither
# depends on the order
_SHORT_ROW = 64


def logsumexp(a):
    """log(sum(exp(a))) along the last axis of a real array, by the algorithm
    of scipy.special.logsumexp(a, axis=-1) in scipy 1.17, double for double.

    With a_max the largest term of a row and m the number of terms equal to
    it, the row's value is log1p(s/m) + log(m) + a_max, s the sum of
    exp(a - a_max) over the other terms (0 stays 0). The sum runs on the
    contiguous last axis, so numpy adds in its pairwise order, as scipy
    does. An empty last axis gives -inf. A 1-d input gives a numpy scalar.

    exp runs only on the terms strictly between -inf and the maximum: the
    others add the 0 they add in scipy, and numpy's exp is 5-10x slower per
    element on -inf. Its value at a term does not depend on the terms around
    it, which `tests/test_numerics.py` checks against scipy. scipy replaces
    a value that is not finite by log(sum(exp(a))), which it computes for
    every row first; skipping those terms, the shifted form gives that value
    itself: -inf on a row of -inf, inf with a term of inf, NaN with a NaN.
    """
    a = np.ascontiguousarray(a, dtype=float)
    shape = a.shape[:-1]
    if a.shape[-1] == 0:
        return np.full(shape, -np.inf)[()]
    a = a.reshape(-1, a.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if a.shape[1] < _SHORT_ROW:
            cols = np.ascontiguousarray(a.T)
            a_max = cols.max(axis=0)
            m = np.add.reduce((cols == a_max).view(np.uint8), axis=0).astype(float)
            del cols  # at most two arrays of the input's size at a time
        else:
            a_max = a.max(axis=-1)
            m = np.count_nonzero(a == a_max[:, None], axis=-1).astype(float)
        e = np.subtract(a, a_max[:, None])
        below = (e < 0.0) & (e > -np.inf)
        np.exp(e, out=e, where=below)
        np.copyto(e, 0.0, where=~below)
        s = e.sum(axis=-1)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
    return out.reshape(shape)[()]


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
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # most callers pass a and b of one shape; np.broadcast_arrays costs 3.5 us
    # a call (x86-64, numpy 2.4), a tenth of a 16-panel call of this function
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
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


def _windows_past(ratio: float, growth: float, per_call: int) -> int:
    """Windows from u = 0 up to the first one that ends past ratio * first, at least
    per_call and at most MAX_WINDOWS: window j ends at first * (growth^(j+1) - 1) / (growth - 1)."""
    reach = ratio if growth == 1.0 else math.log1p((growth - 1.0) * ratio) / math.log(growth)
    return max(int(min(reach, MAX_WINDOWS - 1)) + 1, per_call)


def window_sweep(integrand, first, stop_at, tol: Tolerance, what, *, growth: float, stop_run: int,
                 per_call: int) -> np.ndarray:
    """Integrals over (0, inf) of integrand(u, point), one for each point i.

    `integrand(u, point)` returns the integrand of point point[r] at the
    nodes u[r], one row per panel. Point i is integrated in adjacent windows
    from u = 0, of lengths first[i] * growth^j (growth >= 1). A window is
    negligible when its value is within max(tol.abs, tol.rel * |running
    total|); a point stops after `stop_run` negligible windows in a row that
    end past stop_at[i] (an integrand peaked far out begins with negligible
    windows). The first call of `integrate` takes the same number of windows
    of every point: those up to the first one that ends past stop_at[i] for
    the point whose stop is nearest in windows (the smallest stop_at[i] /
    first[i]), and at least `per_call`. Each later call takes the next
    `per_call` windows of every point still running. A point's
    windows are summed in order from a total of 0, so the first call's
    running totals are those of a sweep of one window per call. Past
    stop_at[i], a rising run of window sizes raises DivergenceError; a point
    still running when `per_call` more windows would take it past
    MAX_WINDOWS raises ConvergenceError. Both carry the running totals of all
    points as best_estimate, and `what(i)` names point i in their message.
    """
    seg, stop_at = np.asarray(first, dtype=float), np.asarray(stop_at, dtype=float)
    total = np.zeros(seg.size)
    # state of the points still running (`active`) only, in their order: where
    # their next window starts (u0) and its length (seg), their running totals
    # and runs of negligible windows, and the sizes of their last windows (inf
    # before the first, so that the rule waits for DIVERGENCE_RUN windows);
    # `total` holds the running totals of all points
    active = np.arange(seg.size)
    u0, running, run = np.zeros(seg.size), np.zeros(seg.size), np.zeros(seg.size, dtype=int)
    recent = np.full((seg.size, DIVERGENCE_RUN - 1), np.inf)
    index = np.arange(_windows_past(min((stop_at / seg).tolist(), default=0.0), growth, per_call))
    steps = growth ** index
    # the first call, and as many more as leave each point the budget for per_call windows
    for _ in range((MAX_WINDOWS - index.size) // per_call + 1):
        lengths = seg[:, None] * steps
        ends = u0[:, None] + np.cumsum(lengths, axis=1)
        values = integrate(lambda u, panel: integrand(u, active[panel // index.size]), ends - lengths, ends, tol)[0]
        partial = running[:, None] + np.cumsum(values, axis=1)
        size = np.abs(values)
        negligible = size <= np.maximum(tol.abs, tol.rel * np.abs(partial))
        # length of the run of negligible windows ending at each window
        last_kept = np.maximum.accumulate(np.where(negligible, -1, index), axis=1)
        runs = np.where(last_kept < 0, run[:, None] + index + 1, index - last_kept)
        past = ends > stop_at[:, None]
        stops = (runs >= stop_run) & past
        stopped = stops.any(axis=1)
        last = np.where(stopped, stops.argmax(axis=1), index.size - 1)
        rows = np.arange(active.size)
        running, run = partial[rows, last], runs[rows, last]
        total[active] = running
        sizes = np.concatenate([recent, size], axis=1)
        recent = sizes[:, -(DIVERGENCE_RUN - 1):]
        # a window more than DIVERGENCE_GAIN times the one DIVERGENCE_RUN - 1
        # before it is rare; only then is the whole rule tested
        gained = sizes[:, DIVERGENCE_RUN - 1:] > DIVERGENCE_GAIN * sizes[:, :index.size]
        if gained.any():
            span = np.lib.stride_tricks.sliding_window_view(sizes, DIVERGENCE_RUN, axis=1)
            rising = (gained & past & (index <= last[:, None]) & (span[..., 0] > 0)
                      & np.all(span[..., 1:] >= DIVERGENCE_STEP * span[..., :-1], axis=-1))
            if rising.any():
                row, j = np.argwhere(rising)[0]
                total[active[row]] = partial[row, j]
                raise DivergenceError(f"{what(active[row])}: partial sums keep growing (window ending at "
                                      f"u={ends[row, j]:.3g}, size {values[row, j]:.3g})", best_estimate=total)
        keep = ~stopped
        active = active[keep]
        if active.size == 0:
            return total
        u0, seg = ends[keep, -1], lengths[keep, -1] * growth
        running, run, recent, stop_at = running[keep], run[keep], recent[keep], stop_at[keep]
        index, steps = index[:per_call], steps[:per_call]
    raise ConvergenceError(f"{what(active[0])}: window budget of {MAX_WINDOWS} exhausted by u={u0[0]:.3g}",
                           best_estimate=total)


def _finite_value(f, x: float) -> float:
    """f(x) as a float; a NaN or infinite value is refused, naming x."""
    fx = float(f(x))
    if not math.isfinite(fx):
        raise DomainError(f"find_root: f({x!r}) = {fx} is not finite")
    return fx


def find_root(f, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of f on [lo, hi]; requires a sign change on the bracket.

    Brent's method, as a line-for-line port of scipy's `brentq` (its C kernel,
    `brentq.c`): interpolation-accelerated bisection, so convergence is
    guaranteed for continuous f. With the same `xtol`, `rtol` and budget it
    evaluates f at the same points and returns the same double as
    `scipy.optimize.brentq`. Its callers are `heston.critical_moments` and the
    Riccati explosion oracle; implied volatility has its own Newton loop.

    A NaN or infinite f value raises DomainError naming x; an exhausted
    `tol.max_iter` raises ConvergenceError carrying the last iterate.
    """
    if not lo < hi:
        raise DomainError(f"find_root requires lo < hi, got [{lo}, {hi}]")
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = _finite_value(f, xpre), _finite_value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fpre:.6g}, f(hi)={fcur:.6g}"
        )
    xtol = max(tol.abs, 4.0 * sys.float_info.epsilon * max(abs(xpre), abs(xcur), 1.0))
    rtol = max(tol.rel, 8.9e-16)
    # xblk is the contrapoint: f(xblk) and f(xcur) have opposite signs, and
    # |f(xcur)| <= |f(xblk)|; scur and spre are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(tol.max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's quotient is then inf or NaN, which the test below refuses
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite_value(f, xcur)
    raise ConvergenceError(f"find_root: budget of {tol.max_iter} iterations exhausted on [{lo}, {hi}] "
                           f"at x={xcur!r}", best_estimate=xcur)


class RngStream:
    """Reproducible random stream (`generator`, a numpy Generator) with
    index-derived independent sub-streams."""

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
