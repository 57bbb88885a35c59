"""Reference computations made apart from the program under test.

Everything here is written from published formulas and shares no code with
`wingtail`: it reads only the plain parameter fields of the model records.

- Heston log-moment in the trap-free form of Albrecher, Mayer, Schoutens and
  Tistaert (2007), "The little Heston trap".
- Kou (2002) double-exponential compound-Poisson log-moment.
- Symmetric centred NIG log-moment (Barndorff-Nielsen 1997).
- Moment explosion time of the Heston model in the form of Andersen and
  Piterbarg (2007), and the critical moments it implies.
- Density and call-price inversion with mpmath's quadrature (its
  double-precision `fp` context), on a contour shifted to the minimum of the
  damped integrand. `log_density` and `call_price` import mpmath
  themselves, so importing this module costs the timed set-up nothing.
"""
from __future__ import annotations

import cmath
import math


def heston_log_moment(h, z: complex) -> complex:
    """log E[X_t^z] for the Heston price, little-Heston-trap form."""
    z = complex(z)
    c2 = h.c * h.c
    xi = h.b - h.rho * h.c * z
    d = cmath.sqrt(xi * xi + c2 * (z - z * z))
    g = (xi - d) / (xi + d)
    e = cmath.exp(-d * h.t)
    var_part = (xi - d) / c2 * (1.0 - e) / (1.0 - g * e)
    mean_part = h.a / c2 * ((xi - d) * h.t - 2.0 * cmath.log((1.0 - g * e) / (1.0 - g)))
    return z * (math.log(h.x0) + h.mu * h.t) + mean_part + var_part * h.y0


def kou_log_moment(j, z: complex) -> complex:
    """log E[e^{z J_t}] of Kou's compound-Poisson log-jump at horizon t."""
    z = complex(z)
    return j.lam * j.t * (j.p * j.eta1 / (j.eta1 - z) + j.q * j.eta2 / (j.eta2 + z) - 1.0)


def nig_log_moment(j, z: complex) -> complex:
    """log E[e^{z Y_t}] of the symmetric centred NIG log-jump at horizon t."""
    z = complex(z)
    return j.delta * j.t * (j.alpha - cmath.sqrt(j.alpha * j.alpha - z * z))


def log_moment(heston, jumps, z: complex) -> complex:
    """log E[X_t^z] of the product of the Heston price and the jump factor."""
    out = heston_log_moment(heston, z)
    if jumps is None:
        return out
    if hasattr(jumps, "eta1"):
        return out + kou_log_moment(jumps, z)
    return out + nig_log_moment(jumps, z)


def explosion_time(h, s: float) -> float:
    """Moment explosion time T*(s) (Andersen and Piterbarg 2007, Prop. 3.1)."""
    if 0.0 <= s <= 1.0:
        return math.inf
    k = h.rho * h.c * s - h.b
    disc = k * k - h.c * h.c * (s * s - s)
    if disc >= 0.0:
        if k < 0.0:
            return math.inf
        gamma = math.sqrt(disc)
        return math.log((k + gamma) / (k - gamma)) / gamma
    gamma = math.sqrt(-disc)
    return 2.0 / gamma * math.atan2(gamma, k)


def critical_moment(h, upper: bool, xtol: float = 0.0) -> float:
    """The order s with T*(s) = t, on (1, inf) or on (-inf, 0), by bisection
    down to a bracket of width xtol (0: to the last bit)."""
    edge = 1.0 if upper else 0.0
    step = 1.0
    far = edge
    while True:
        far = far + step if upper else far - step
        if explosion_time(h, far) < h.t:
            break
        step *= 2.0
        if step > 1e6:
            raise ValueError("critical moment not bracketed")
    near = edge
    for _ in range(200):
        mid = 0.5 * (near + far)
        if mid in (near, far) or abs(far - near) <= xtol:
            break
        if explosion_time(h, mid) < h.t:
            far = mid
        else:
            near = mid
    return 0.5 * (near + far)


def moment_strip(heston, jumps) -> tuple[float, float]:
    """Open interval of orders s with E[X_t^s] finite."""
    lo, hi = critical_moment(heston, False), critical_moment(heston, True)
    if jumps is None:
        return lo, hi
    if hasattr(jumps, "eta1"):
        return max(lo, -jumps.eta2), min(hi, jumps.eta1)
    return max(lo, -jumps.alpha), min(hi, jumps.alpha)


def _golden_min(f, a: float, b: float, iters: int = 48) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


_BREAKS = [0.0, 1.0, 4.0, 16.0, 64.0, math.inf]


def log_density(heston, jumps, strip, ell: float) -> float:
    """log of the price density at x = e^ell.

    f(x) = (1/(pi x)) int_0^inf Re[M(nu + iu) x^-(nu + iu)] du with M the
    moment function; nu minimises the integrand at u = 0, which removes the
    cancellation in the far wings.
    """
    from mpmath import fp

    lo, hi = strip
    pad = 1e-6 * (hi - lo)
    nu = _golden_min(lambda v: log_moment(heston, jumps, v).real - v * ell, lo + pad, hi - pad)
    k0 = log_moment(heston, jumps, nu).real

    def integrand(u):
        return cmath.exp(log_moment(heston, jumps, complex(nu, u)) - k0 - 1j * u * ell).real

    total = fp.quad(integrand, _BREAKS)
    return math.log(total / math.pi) + k0 - nu * ell - ell


def call_price(heston, jumps, strip, log_strike: float) -> float:
    """Call price at strike e^log_strike (zero rates), damped transform.

    C = K^-alpha / pi int_0^inf Re[e^{-iu k} M(alpha + 1 + iu) /
    ((alpha + iu)(alpha + 1 + iu))] du (Carr and Madan 1999), with the contour
    alpha + 1 in (1, upper moment bound) placed at the minimum of the
    integrand at u = 0.
    """
    from mpmath import fp

    _lo, hi = strip
    span = hi - 1.0
    kappa = log_strike

    def log_peak(v):
        return log_moment(heston, jumps, v).real - (v - 1.0) * kappa - math.log((v - 1.0) * v)

    nu = _golden_min(log_peak, 1.0 + 0.02 * span, hi - 1e-6 * span)
    alpha = nu - 1.0
    shift = log_peak(nu)

    def integrand(u):
        z = complex(nu, u)
        num = cmath.exp(log_moment(heston, jumps, z) - 1j * u * kappa - alpha * kappa - shift)
        return (num / ((alpha + 1j * u) * z)).real

    return fp.quad(integrand, _BREAKS) * math.exp(shift) / math.pi
