"""Shared numeric kernel: special functions, quadrature, the window sweep, root
finding, RNG streams.

All routines are pure functions of their arguments. Random streams are explicit
values (`RngStream`), never shared mutable state.
"""
from __future__ import annotations

import cmath
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
    "erfcx",
    "k1e",
    "ndtri",
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


# glibc's malloc serves a request above its mmap threshold (128 KiB at start)
# with a fresh mapping, whose pages fault on first touch and are unmapped on
# free. Freeing a mapped chunk raises the threshold to that chunk's size and the
# heap's trim threshold to twice that (the dynamic M_MMAP_THRESHOLD of
# mallopt(3)). Freeing one 1 MiB array here lifts both above the temporaries of
# the oracles' sweeps, so that they reuse heap memory: without it a warm
# exact-density op took 100 to 220 minor page faults and the first one 4,400,
# against 2 and 370 with it (x86-64, glibc 2.36). Other allocators see one
# allocation and one free.
np.empty(1 << 17)


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


def _array_expm1(w: np.ndarray) -> np.ndarray:
    """e^w - 1 of a complex array as expm1(Re w) cos Im w - 2 sin^2(Im w / 2) + i e^{Re w} sin Im w
    (numpy's formula) by real ufuncs, from t = tan(Im w / 2): sin^2(Im w / 2) = t^2/(1 + t^2)
    does not cancel near w = 0. Where Im w == 0 the imaginary part is that zero, as in np.exp:
    the product would give e^{Re w} * 0, which is NaN once e^{Re w} overflows."""
    im = w.imag
    t = np.tan(0.5 * im)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    out = np.empty_like(w)
    out.real = np.expm1(w.real) * ((1.0 - t2) * r) - 2.0 * t2 * r
    out.imag = im
    np.multiply(np.exp(w.real), 2.0 * r * t, out=out.imag, where=im != 0)
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
# array argument through numpy, whose complex expm1 and log are replaced by the
# real-ufunc kernels above (several times faster per element for log). cmath
# has no expm1: a scalar takes numpy's complex one.
_SCALAR = SimpleNamespace(
    sqrt=cmath.sqrt,
    expm1=lambda w: complex(np.expm1(w)),
    log=cmath.log,
    where=lambda cond, yes, no: yes if cond else no,
    any=bool,
)
_ARRAY = SimpleNamespace(
    sqrt=np.sqrt,
    expm1=_array_expm1,
    log=_array_log,
    where=np.where,
    any=np.any,
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


def logsumexp(a):
    """log(sum(exp(a))) along the last axis of a real array of finite terms, as
    a_max + log(sum(exp(a - a_max))), a_max the largest term of a row: within
    about 2 eps of the row's value in |error| / max(1, |value|). A 1-d input
    gives a numpy scalar."""
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1)
    return a_max + np.log(np.exp(a - a_max[..., None]).sum(axis=-1))


# --------------------------------------------------------------------------- #
# Special functions: erfcx, e^x K1(x), the normal quantile
# --------------------------------------------------------------------------- #

# Veltkamp's splitter for doubles, 2^27 + 1: c = s x splits x into a head of
# 26 bits, x - (c - (c - x)) being the rest, so head * head is exact
_SPLITTER = 134217729.0
_SQRT_PI = math.sqrt(math.pi)
# below it e^(x^2) is a finite double and erfc(x) a normal one
_ERFCX_DIRECT = 26.0


def erfcx(x: float) -> float:
    """The scaled complementary error function e^(x^2) erfc(x) of a float x >= 0.

    Below 26 it is e^hi erfc(x) (1 + lo), where hi is the rounded x^2 and
    lo its rounding error (Dekker's product on Veltkamp's split of x):
    e^(x^2) formed from hi alone would be off by up to x^2 ulps. From 26 on, the
    asymptotic series (1/(x sqrt(pi))) sum_k (-1)^k (2k-1)!! / (2x^2)^k to
    k = 8, whose next term is below 2e-19.
    """
    if x < _ERFCX_DIRECT:
        split = _SPLITTER * x
        head = split - (split - x)
        hi = x * x
        # x^2 - hi = (head^2 - hi) + tail (head + x), the first difference
        # exact; the rounding of the second term moves 1 + lo by far less
        # than an ulp
        lo = (head * head - hi) + (x - head) * (head + x)
        return math.exp(hi) * math.erfc(x) * (1.0 + lo)
    w = 0.5 / (x * x)
    total = 1.0
    for odd in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0):
        total = 1.0 - odd * w * total
    return total / (x * _SQRT_PI)


# sqrt(x) e^x K1(x) on x > 1 in powers of t = 2/x - 1, highest first: the
# 33-term Chebyshev series of that function in t, computed with mpmath at 40
# digits (from 100 Chebyshev nodes; the terms left out sum to 8.6e-18), then
# expanded in powers of t at the same precision. These coefficients sum to
# 1.67 in absolute value against values of 1.25 to 1.46, so Horner's rule
# loses nothing to cancellation, and it takes two array operations a power
# where Clenshaw's recurrence for the Chebyshev form takes three.
_K1E_FAR = (
    -2.277802103992898e-08, 2.5863255020050868e-08, 1.5258088822221483e-07,
    -1.6612903754172516e-07, -4.783633120583913e-07, 5.00219639468379e-07,
    9.088288174678336e-07, -9.088111933518854e-07, -1.1699232767889883e-06,
    1.1170624309986416e-06, 1.059061754889333e-06, -9.545322767894645e-07,
    -7.187758069191014e-07, 6.225946860783068e-07, 3.1015032484825073e-07,
    -2.1626576754352872e-07, -2.2384026575231694e-07, 2.6532661955711313e-07,
    -2.7711659724826755e-07, 5.418683353836388e-07, -1.0591670141582397e-06,
    2.0295346733984334e-06, -4.030276119996956e-06, 8.342551942919494e-06,
    -1.8092857437286173e-05, 4.152315925908098e-05, -0.00010227195021987323,
    0.0002760388399705941, -0.0008443927414760359, 0.0031120066456231514,
    -0.015852854565983437, 0.18797890654571855, 1.4615569735231244,
)
# the power series of K1 at x <= 1, in w = x^2/4 (A&S 9.6.11):
# x K1(x) = 1 + w (2 log(x/2) sum_k g_k w^k - sum_k h_k w^k), with
# g_k = 1/(k! (k+1)!) and h_k = (psi(k+1) + psi(k+2)) g_k (mpmath, 40 digits),
# highest first; the first term left out is below 3e-18
_K1_SERIES_G = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(10, -1, -1))
_K1_SERIES_H = (
    3.309914735250272e-14, 3.495928729692882e-12, 3.002048746589188e-10, 2.045286003593878e-08,
    1.071545914091181e-06, 4.142247689271143e-05, 0.001115359491966528, 0.019182189839330562,
    0.18157516696085563, 0.6727843350984671, -0.15443132980306573,
)


def _horner(coeffs, w: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] w^(n-k) of an array w, coefficients highest first, in place."""
    out = np.full_like(w, coeffs[0])
    for c in coeffs[1:]:
        out *= w
        out += c
    return out


def k1e(x) -> np.ndarray:
    """The scaled modified Bessel function e^x K1(x) of a float array x > 0.

    Past x = 1, a polynomial of degree 32 in 2/x - 1 for sqrt(x) e^x K1(x)
    (`_K1E_FAR`); at x <= 1, the power series of x K1(x) in x^2/4, times
    e^x / x. The switch sits at 1, not at 2, because near 2 the series is
    a difference of 1 and about 0.72 and loses two bits to it.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    far = x > 1.0
    xs = x[far]
    t = 2.0 / xs
    t -= 1.0
    value = _horner(_K1E_FAR, t)
    value /= np.sqrt(xs)
    out[far] = value
    if not far.all():
        xs = x[~far]
        w = 0.25 * xs * xs
        xk1 = 1.0 + w * (2.0 * np.log(0.5 * xs) * _horner(_K1_SERIES_G, w) - _horner(_K1_SERIES_H, w))
        out[~far] = np.exp(xs) * xk1 / xs
    return out


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def ndtri(p: float) -> float:
    """The standard normal quantile: z with Phi(z) = p, for a float p in (0, 1).

    On the lower tail q = min(p, 1 - p) (1 - p is exact from p = 1/2 on):
    the rational start of Abramowitz & Stegun 26.2.23 (absolute error below
    4.5e-4), then two Halley steps on Phi(z) - q with Phi(z) = erfc(-z/sqrt 2)/2,
    each of which cubes the relative error; the result is within a few ulps
    of the quantile.
    """
    q = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(q))
    z = (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))) - t
    for _ in range(2):
        step = (0.5 * math.erfc(-z * _SQRT_HALF) - q) * _SQRT_2PI * math.exp(0.5 * z * z)
        z -= step / (1.0 + 0.5 * z * step)
    return z if p <= 0.5 else -z


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
        # vecdot sums each row alike wherever it sits; a BLAS matrix-vector
        # product does not, and would make a panel's value depend on its call
        kronrod = half * np.vecdot(fx, _GK_KRONROD)
        err = np.abs(kronrod - half * np.vecdot(fx, _GK_GAUSS))
        scale = np.abs(half) * np.vecdot(np.abs(fx), _GK_KRONROD)
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
                 per_call: int, start=0.0) -> np.ndarray:
    """Integrals over (start[i], inf) of integrand(u, point), one for each point i.

    `integrand(u, point)` returns the integrand of point point[r] at the
    nodes u[r], one row per panel. Point i is integrated in adjacent windows
    from u = start[i] (a scalar start is every point's), of lengths
    first[i] * growth^j (growth >= 1). A window is negligible when its value
    is within max(tol.abs, tol.rel * |running total|); a point stops after
    `stop_run` negligible windows in a row that end past stop_at[i] (an
    integrand peaked far out begins with negligible windows). The first call
    of `integrate` takes the same number of windows of every point: those up
    to the first one that ends past stop_at[i] for the point whose stop is
    nearest in windows (the smallest (stop_at[i] - start[i]) / first[i]), and
    at least `per_call`. Each later call takes the next `per_call` windows of
    every point still running. A point's
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
    u0 = np.broadcast_to(np.asarray(start, dtype=float), seg.shape)
    running, run = np.zeros(seg.size), np.zeros(seg.size, dtype=int)
    recent = np.full((seg.size, DIVERGENCE_RUN - 1), np.inf)
    index = np.arange(_windows_past(min(((stop_at - u0) / seg).tolist(), default=0.0), growth, per_call))
    # the first call, and as many more as leave each point the budget for per_call windows
    for _ in range((MAX_WINDOWS - index.size) // per_call + 1):
        # the recurrences of one window per call (each length the last times growth, each edge
        # the last plus its length, each total the last plus its window), whatever the split
        lengths = np.cumprod(np.column_stack([seg, np.full((seg.size, index.size - 1), growth)]), axis=1)
        edges = np.cumsum(np.column_stack([u0, lengths]), axis=1)
        ends = edges[:, 1:]
        values = integrate(lambda u, panel: integrand(u, active[panel // index.size]), edges[:, :-1], ends, tol)[0]
        partial = np.cumsum(np.column_stack([running, values]), axis=1)[:, 1:]
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
        index = index[:per_call]
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
