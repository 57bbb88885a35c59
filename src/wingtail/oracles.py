"""Independent ground-truth generators.

Three routes that never share code with the asymptotic formulas they check:
Fourier inversion of the product characteristic function (on a saddle-point
shifted contour so far wings stay in reach), Monte Carlo simulation of the
full mixed dynamics, and direct numerical integration of the variance
Riccati equation for moment explosion times.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OracleError
from .heston import HestonParams
from .mixed import MixedModel
from .numerics import RngStream, Tolerance, _cos_sin, domain_points, find_root, shaped_like, window_sweep

__all__ = [
    "MCResult",
    "density_fourier",
    "log_density_fourier_logx",
    "call_fourier",
    "simulate_paths",
    "summarize",
    "martingale_z",
    "riccati_explosion_time",
    "riccati_critical_moment",
    "riccati_log_mgf",
]

# Fourier inversion is certified on |log x| <= ORACLE_WINDOW; beyond it, tail
# claims must be validated by the quadrature convolution route and trend tests.
ORACLE_WINDOW = 12.0


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("std_error must be >= 0")


def summarize(samples: np.ndarray, seed: int) -> MCResult:
    n = int(samples.size)
    return MCResult(
        estimate=float(np.mean(samples)),
        std_error=float(np.std(samples, ddof=1) / math.sqrt(n)),
        n_paths=n,
        seed=seed,
    )


def martingale_z(model: MixedModel, sample: np.ndarray) -> float | None:
    """z-score of the capped mean of a terminal-price sample against its martingale value.

    Where E[X^2] = inf the raw mean has no standard error, but min(X, 2 x0) is bounded and
    E[min(X, 2 x0)] = E[X] - C(2 x0) is x0 - C(2 x0) exactly when X is a martingale. C is
    priced at damping 0.1, clipped inside (0, hi - 1) for the moment strip (lo, hi), which adds
    no put-call residue and so assumes nothing about E[X]. None when hi <= 1 or all are capped."""
    hi = model.moment_strip()[1]
    cap = 2.0 * model.x0
    capped = np.minimum(sample, cap)
    std_error = float(np.std(capped, ddof=1) / math.sqrt(capped.size))
    if hi <= 1.0 + 1e-9 or std_error == 0.0:
        return None
    price = call_fourier(model, cap, damping=min(0.1, 0.5 * (hi - 1.0)))
    return (float(np.mean(capped)) - model.x0 + price) / std_error


# The saddle solve: a table of K', K'' on 1025 orders per model gives the
# first guess; Newton steps stop once the saddle equation leaves a linear
# phase below 1e-6 over one peak width. At 257 orders the guess missed that
# phase on 13-40% of log x in [-12, 12] on the three configs (worst 2.1e-5),
# and a miss cost an array a second call of cgf_derivatives; at 1025 the
# worst phase is 1.1e-7, so the call that checks the guess is the only one.
SADDLE_NODES = 1025
SADDLE_ITER = 100
SADDLE_PHASE = 1e-6

DEFAULT_FOURIER_TOL = Tolerance(rel=1e-10, abs=1e-14)


# panel rows per evaluation of a Fourier integrand. At the 336 rows of an
# exact-density call each complex temporary took 113 KB, and glibc grew its heap
# for them and trimmed it after every call: 15,000 page faults per op. At 128
# rows (43 KB a temporary) they stay far below glibc's mmap and trim thresholds,
# which `numerics` lifts to 1 and 2 MiB at import (see the note there): about 2
# faults per op after the first (x86-64 Linux, glibc malloc).
_ROW_BLOCK = 128


def _peak_sweep(integrand, width: np.ndarray, tol: Tolerance, what) -> np.ndarray:
    """window_sweep from the peak at u = 0: segment j of a point is width * 1.4^j long
    (width floored at 1e-3); a point stops after 3 negligible segments in a row
    past 10 peak widths; the integrand sees the segments _ROW_BLOCK panel rows at a time.

    Each integrator call takes 8 segments of every running point, and a single point
    16. A scalar price is mostly the fixed cost of a call, and most points stop after
    9 to 16 segments: at 8 a call, 1,159 of the 1,320 scalar prices of a fourier-curves
    run (seed 101) took two calls, at 16 all but 82 take one. An array pays for every
    segment of every point, so it keeps 8: at 16, the median exact-density op, whose
    arrays hold about 42 and 28 points, went from 2.9-4.0 ms to 4.0-5.5 ms (3 runs
    of 36 ops, 2 cores).
    """
    def by_blocks(u, point):
        if u.shape[0] <= _ROW_BLOCK:
            return integrand(u, point)
        out = np.empty(u.shape)
        for start in range(0, u.shape[0], _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            out[rows] = integrand(u[rows], point[rows])
        return out

    return window_sweep(by_blocks, np.maximum(width, 1e-3), 10.0 * width, tol, what, growth=1.4, stop_run=3,
                        per_call=16 if width.size == 1 else 8)


@lru_cache(maxsize=256)
def _saddle_table(model: MixedModel):
    """Orders clustered toward the ends of the padded moment strip, with K, K', K'' there."""
    lo, hi = model.moment_strip()
    pad = 1e-7 * (hi - lo)
    nodes = lo + pad + (hi - lo - 2.0 * pad) * 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, SADDLE_NODES)))
    table = (nodes, *model.cgf_derivatives(nodes))
    for column in table:
        column.flags.writeable = False
    return table


def _saddle(model: MixedModel, ell: np.ndarray):
    """Contour shifts nu with K'(nu) = ell, clamped inside the moment strip, and K, K'' there.

    K = log E[X^nu] is convex, so each saddle equation has at most one root;
    the shift centers the inversion integral and removes the exponential
    cancellation that otherwise kills far-wing accuracy, and any shift near
    the saddle serves as well. The model's table of K', K'' brackets every
    root and gives its first guess by cubic Hermite interpolation of the
    inverse of K'. Then all points take bracket-safeguarded Newton steps on
    the analytic K', K'' in lockstep, one call per step, until the linear
    phase |K'(nu) - ell| * w left over one peak width w = K''^(-1/2) is below
    SADDLE_PHASE.
    """
    nodes, k_tab, k1_tab, k2_tab = _saddle_table(model)
    j = np.searchsorted(k1_tab, ell)
    # a point outside the table's range of K' is clamped to the end node past it
    end = np.minimum(j, SADDLE_NODES - 1)
    nu, k_nu, k2 = nodes[end], k_tab[end], k2_tab[end]
    todo = np.flatnonzero((j > 0) & (j < SADDLE_NODES))
    j, target = j[todo], ell[todo]
    a, b = nodes[j - 1], nodes[j]
    span = k1_tab[j] - k1_tab[j - 1]
    w = (target - k1_tab[j - 1]) / span
    x = (a * (1.0 + 2.0 * w) * (1.0 - w) ** 2 + b * w * w * (3.0 - 2.0 * w)
         + span * w * (1.0 - w) * ((1.0 - w) / k2_tab[j - 1] - w / k2_tab[j]))
    x = np.where((x > a) & (x < b), x, a + w * (b - a))
    for _ in range(SADDLE_ITER):
        k, k1, kk = model.cgf_derivatives(x)
        gap = k1 - target
        done = np.abs(gap) <= SADDLE_PHASE * np.sqrt(kk)
        nu[todo[done]], k_nu[todo[done]], k2[todo[done]] = x[done], k[done], kk[done]
        if done.all():
            return nu, k_nu, k2
        go = ~done
        todo, target, x, gap, kk = todo[go], target[go], x[go], gap[go], kk[go]
        a, b = np.where(gap < 0, x, a[go]), np.where(gap > 0, x, b[go])
        x = x - gap / kk
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
    raise OracleError(f"saddle point iteration did not settle at log x={target[0]:.6g}")


def log_density_fourier_logx(model: MixedModel, ell, tol: Tolerance | None = None):
    """log of the mixed price density at x = e^ell by saddle-shifted inversion.

    ell is a scalar (float result) or an array (array of its shape); all
    points of an array are inverted together. The contour shift nu solves the
    saddle equation, so the remaining integral is O(1)-scaled and
    non-oscillatory near its peak. The log form reaches |log x| = 1e6 on the pure Heston and
    reference Kou configs, but on the reference NIG config only 1e4: at 1e5 it raises
    ConvergenceError, its saddle (C / ell^2 from the strip edge) inside the saddle table's pad.
    """
    tol = tol or DEFAULT_FOURIER_TOL
    ells = domain_points(ell, np.isfinite, "density inversion requires finite log x")
    nu, k_nu, k2 = _saddle(model, ells)

    def integrand(u, point):
        # Re exp(w - k_nu - i u ell), w the log-moment, without the complex exponential
        w = model.log_moment(nu[point, None] + 1j * u)
        return np.exp(w.real - k_nu[point, None]) * _cos_sin(w.imag - u * ells[point, None])[0]

    what = lambda i: f"density inversion at log x={ells[i]:.6g}"
    width = 1.0 / np.sqrt(np.maximum(k2, 1e-12))
    total = _peak_sweep(integrand, width, tol, what)
    if not np.all(total > 0):
        raise OracleError(f"{what(np.flatnonzero(~(total > 0))[0])} returned non-positive mass")
    return shaped_like(ell, np.log(total / math.pi) + k_nu - nu * ells - ells)


def density_fourier(model: MixedModel, x, tol: Tolerance | None = None):
    """Density of the mixed price at x (scalar or array) by saddle-shifted Fourier inversion.

    Absolute/relative accuracy is certified for |log x| <= ORACLE_WINDOW; the
    routine works beyond that but reported reach should be quoted honestly.
    """
    domain_points(x, lambda v: v > 0, "density_fourier requires finite x > 0")
    log_value = log_density_fourier_logx(model, np.log(x) if np.ndim(x) else math.log(x), tol)
    return np.exp(log_value) if np.ndim(x) else math.exp(log_value)


def call_fourier(
    model: MixedModel,
    K,
    tol: Tolerance | None = None,
    damping: float | None = None,
):
    """European call price by damped-transform inversion (zero rates).

    K is a scalar (float result) or an array of strikes (array of its shape),
    all inverted together. The damping parameter alpha must keep alpha + 1
    inside the moment strip and away from the payoff poles at 0 and 1. By
    default it is chosen from the saddle of the damped integrand (clipped
    inside the strip), which keeps the integral cancellation-free at every
    strike; a fixed midpoint-of-strip damping loses all precision for steep
    tails at far strikes. Shifts below the poles price the put / covered call
    and are corrected by the residues (put-call parity), so any admissible
    alpha returns the same call value.
    """
    strikes = domain_points(K, lambda v: v > 0, "call_fourier requires finite K > 0")
    tol = tol or DEFAULT_FOURIER_TOL
    lo, hi = model.moment_strip()
    if hi <= 1.0 + 1e-9:
        raise OracleError(
            f"damping infeasible: upper moment bound {hi:.6g} leaves no room above 1"
        )
    kappa = np.log(strikes)
    pole_margin = min(0.05, 0.01 * (hi - lo))
    if damping is None:
        saddle, k_nu, k2 = _saddle(model, kappa)
        # keep the contour away from the payoff poles at nu = 0 and nu = 1: a
        # saddle nearer than pole_margin to its nearer pole moves to that
        # distance, on its own side of the pole
        pole = np.where(saddle < 0.5, 0.0, 1.0)
        off = saddle - pole
        nu = np.where(np.abs(off) < pole_margin, pole + np.where(off >= 0.0, pole_margin, -pole_margin), saddle)
        if np.any(nu != saddle):
            k_nu, _, k2 = model.cgf_derivatives(nu)
    else:
        alpha = float(damping)
        if not lo - 1.0 < alpha < hi - 1.0:
            raise OracleError(
                f"damping {alpha} outside the feasible interval ({lo - 1.0:.6g}, {hi - 1.0:.6g})"
            )
        if abs(alpha) < 1e-12 or abs(alpha + 1.0) < 1e-12:
            raise OracleError(f"damping {alpha} sits on a payoff pole")
        nu = np.full(strikes.size, alpha + 1.0)
        k_nu, _, k2 = model.cgf_derivatives(nu)
    alpha = nu - 1.0
    # the peak narrows to the distance of the nearer payoff pole from the contour
    width = np.minimum(1.0 / np.sqrt(np.maximum(k2, 1e-12)), np.minimum(np.abs(alpha), np.abs(nu)))

    def integrand(u, point):
        # Re[exp(w - k_nu - i u kappa) / p], p = (damp + iu)(damp + 1 + iu), in real arithmetic:
        # e^{Re w - k_nu} (Re p cos(theta) + Im p sin(theta)) / |p|^2, theta = Im w - u kappa
        damp = alpha[point, None]
        w = model.log_moment(damp + 1.0 + 1j * u)
        cos, sin = _cos_sin(w.imag - u * kappa[point, None])
        p_re, p_im = damp * (damp + 1.0) - u * u, u * (2.0 * damp + 1.0)
        scale = np.exp(w.real - k_nu[point, None]) / (p_re * p_re + p_im * p_im)
        return scale * (cos * p_re + sin * p_im)

    what = lambda i: f"call inversion at K={strikes[i]:.6g}"
    total = _peak_sweep(integrand, width, tol, what)
    value = np.exp(k_nu - alpha * kappa) / math.pi * total
    # residue corrections for contours below the payoff poles (Fourier pricing
    # of the damped payoff: alpha < 0 drops the stock term, alpha < -1 the
    # strike term; adding them back is put-call parity)
    value += np.where(alpha < -1.0, model.x0 - strikes, np.where(alpha < 0.0, model.x0, 0.0))
    return shaped_like(K, value)


# the Euler scheme of simulate_paths needs at least this many steps per year
MIN_STEPS_PER_YEAR = 50
# paths per sub-stream block of simulate_paths: fixes the sample's partition
# over sub-streams, and its four float64 work buffers (1 MB) fit a core's L2
_BLOCK_PATHS = 1 << 15


def simulate_paths(model: MixedModel, n_paths: int, steps: int, stream: RngStream) -> np.ndarray:
    """Terminal prices of the mixed model.

    The variance runs by full-truncation Euler, one normal per path and step.
    The log-price is then drawn once per path from its exact conditional law
    given the variance path (Broadie & Kaya 2006, Oper. Res. 54:217): with
    I = sum y+ dt, the Euler identity gives the sum of the variance shocks as
    w = (y_N - y0 - a t + b I) / c, and the independent shocks sum to N(0, I),
    so log X = log x0 + mu t - I/2 + rho w + sqrt(1 - rho^2) sqrt(I) Z. This
    is the terminal law of the Euler scheme that steps the log-price too, at
    half its normal draws. The independent jump factor multiplies the
    diffusion price at the end.

    Paths are partitioned into fixed blocks of 2**15, block i drawing from
    `stream.substream(i)`; a block's four work buffers take 1 MB, so they stay
    in a core's L2 cache. The diffusion of the blocks runs in one worker
    thread per available core (numpy releases the GIL in its ufuncs and
    normal draws), and each block's jump factors are drawn afterwards in the
    calling thread from the same sub-stream. The sample therefore depends
    only on (seed, n_paths, steps), not on the number of cores.
    """
    hp = model.heston
    if n_paths < 2:
        raise DomainError(f"need n_paths >= 2 for a standard error, got {n_paths}")
    if steps < MIN_STEPS_PER_YEAR * hp.t:
        raise DomainError(f"need at least {MIN_STEPS_PER_YEAR} steps per year, got {steps} for t={hp.t}")
    dt = hp.t / steps
    vol_scale = hp.c * math.sqrt(dt)
    rho_c = math.sqrt(1.0 - hp.rho * hp.rho)
    out = np.empty(n_paths)
    blocks = [(slice(start, min(start + _BLOCK_PATHS, n_paths)), stream.substream(index))
              for index, start in enumerate(range(0, n_paths, _BLOCK_PATHS))]

    def diffuse(rows: slice, gen: np.random.Generator) -> None:
        # a worker thread runs this, so it calls numpy only: every wingtail
        # function stays on the calling thread, where perfbench's tracer keeps
        # its one span stack
        m = rows.stop - rows.start
        y = np.full(m, hp.y0)
        integral = np.zeros(m)
        pos, shock = np.empty(m), np.empty(m)
        # y += (a - b y+) dt + c sqrt(y+ dt) z, in place through two scratch buffers
        for _ in range(steps):
            np.maximum(y, 0.0, out=pos)
            integral += pos
            np.multiply(pos, hp.b * dt, out=shock)
            y -= shock
            y += hp.a * dt
            np.sqrt(pos, out=pos)
            gen.standard_normal(out=shock)
            shock *= pos
            shock *= vol_scale
            y += shock
        integral *= dt
        # w = sum sqrt(y+ dt) z, from the Euler identity y_N = y0 + a t - b I + c w
        w = (y - hp.y0 - hp.a * hp.t + hp.b * integral) / hp.c
        log_x = math.log(hp.x0) + hp.mu * hp.t - 0.5 * integral + hp.rho * w
        log_x += rho_c * np.sqrt(integral) * gen.standard_normal(m)
        np.exp(log_x, out=out[rows])

    # the cores this process may run on; os.sched_getaffinity exists on Linux only
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(blocks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(diffuse, rows, sub.generator) for rows, sub in blocks]
        for future, (rows, sub) in zip(futures, blocks):
            future.result()
            if model.jumps is not None:
                out[rows] *= model.jumps.sample_factors(sub, rows.stop - rows.start)
    return out


# --------------------------------------------------------------------------- #
# Riccati ODE oracle for moment explosions (independent of the closed form)
# --------------------------------------------------------------------------- #

def riccati_explosion_time(params: HestonParams, s: float, t_cap: float) -> float:
    """Moment explosion time by direct integration of the variance Riccati ODE.

    V' = (c^2/2) V^2 + (c rho s - b) V + (s^2 - s)/2, V(0) = 0; the moment of
    order s is finite at t exactly while V has not blown up. Integration runs
    in V up to V = 1, then in R = 1/V down to the zero crossing, whose time is
    located by the solver's bracketed event root finding. Returns +inf when no
    blow-up happens before t_cap.
    """
    k = 0.5 * (s * s - s)
    if k <= 0.0:
        return math.inf
    c2h = 0.5 * params.c * params.c
    beta = params.c * params.rho * s - params.b
    t1 = _event_time(lambda v: c2h * v * v + beta * v + k, t_cap, 0.0, lambda v: v - 1.0, 1.0, t_cap / 50.0)
    if math.isinf(t1):
        return math.inf
    # in R = 1/V: R' = -(c^2/2 + beta R + k R^2), R(0) = 1, blow-up of V at R = 0
    return t1 + _event_time(lambda r: -(c2h + beta * r + k * r * r), t_cap - t1, 1.0, lambda r: r, -1.0,
                            t_cap / 50.0)


def _event_time(rhs, span: float, start: float, event, direction: float, max_step: float) -> float:
    """First time in (0, span) at which event(y) crosses 0 in `direction`, for
    y' = rhs(y), y(0) = start; +inf when it does not."""
    from scipy.integrate import solve_ivp

    def crossing(_t, y):
        return event(y[0])

    crossing.terminal, crossing.direction = True, direction
    sol = solve_ivp(lambda _t, y: [rhs(y[0])], (0.0, span), [start], events=crossing, rtol=1e-12, atol=1e-14,
                    max_step=max_step)
    return float(sol.t_events[0][0]) if sol.t_events[0].size else math.inf


def riccati_critical_moment(params: HestonParams, upper: bool = True) -> float:
    """Critical moment order located with the ODE oracle alone."""
    t = params.t
    edge = 1.0 + 1e-7 if upper else -1e-7
    probe, step = edge, 1.0
    for _ in range(200):
        probe = probe + step if upper else probe - step
        if riccati_explosion_time(params, probe, t_cap=3.0 * t) < t:
            break
        step *= 2.0
    else:
        raise OracleError("could not bracket the critical moment with the ODE oracle")
    lo, hi = (edge, probe) if upper else (probe, edge)

    def gap(s):
        ts = riccati_explosion_time(params, s, t_cap=10.0 * t)
        return (0.0 if math.isinf(ts) else 1.0 / ts) - 1.0 / t

    return find_root(gap, lo, hi, Tolerance(rel=1e-12, abs=1e-10, max_iter=200))


def riccati_log_mgf(params: HestonParams, s: float) -> float:
    """log E[X_t^s] by integrating the Riccati pair (V, phi) to the horizon."""
    from scipy.integrate import solve_ivp

    k = 0.5 * (s * s - s)
    c2h = 0.5 * params.c * params.c
    beta = params.c * params.rho * s - params.b

    def rhs(_t, y):
        v = y[0]
        return [c2h * v * v + beta * v + k, params.a * v]

    sol = solve_ivp(rhs, (0.0, params.t), [0.0, 0.0], rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise OracleError(f"Riccati integration failed at s={s}: {sol.message}")
    v_t, phi_t = sol.y[0][-1], sol.y[1][-1]
    return s * (math.log(params.x0) + params.mu * params.t) + phi_t + v_t * params.y0
