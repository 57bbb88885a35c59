"""Heston diffusion component: moment explosion times, critical moments and
their slopes/curvatures, the closed-form moment function, and the explicit
tail constants that drive both wings of the stock-price density.

Conventions. The variance process is dY = (a - b*Y) dt + c*sqrt(Y) dZ and the
price is dX = mu*X dt + sqrt(Y)*X dW with corr(W, Z) = rho. Only rho <= 0 is
accepted: the tail formulas implemented here are established for the
non-positively correlated model, and positive rho is rejected loudly rather
than extrapolated.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, MomentExplosionError, SearchError
from .mellin import AT_INFINITY, AT_ZERO, ERROR_INV_SQRT_LOG, TailAsymptote, side_of
from .numerics import Tolerance, complex_namespace, find_root, inf_past_double, moment_from_log, require_finite

__all__ = [
    "HestonParams",
    "CriticalMoments",
    "HestonTailConstants",
    "explosion_time",
    "explosion_time_slope",
    "critical_moments",
    "tail_constants",
    "mgf",
    "log_mgf",
    "cgf_derivatives",
    "wing_constants",
    "wing_record",
]


@dataclass(frozen=True)
class HestonParams:
    """Diffusion parameters plus initial state and horizon (rates are zero)."""

    mu: float
    a: float
    b: float
    c: float
    rho: float
    x0: float
    y0: float
    t: float

    def __post_init__(self):
        require_finite(self)
        if self.a < 0:
            raise DomainError(f"need a >= 0, got {self.a}")
        if self.b < 0:
            raise DomainError(f"need b >= 0, got {self.b}")
        if not self.c > 0:
            raise DomainError(f"need c > 0, got {self.c}")
        if not (-1.0 < self.rho <= 0.0):
            raise DomainError(
                f"rho={self.rho} rejected: tail formulas are only established for "
                "-1 < rho <= 0, positive correlation is out of scope"
            )
        if not self.x0 > 0:
            raise DomainError(f"need x0 > 0, got {self.x0}")
        if not self.y0 > 0:
            raise DomainError(f"need y0 > 0, got {self.y0}")
        if not self.t > 0:
            raise DomainError(f"need t > 0, got {self.t}")
        if not sys.float_info.min <= inf_past_double(lambda: self.forward) <= sys.float_info.max:
            raise DomainError(f"the forward x0 e^(mu t) must be a normal double, got mu={self.mu}, t={self.t}, "
                              f"x0={self.x0}")

    @property
    def forward(self) -> float:
        """x0 * exp(mu*t), the mean of the price at the horizon, formed as
        exp(log x0 + mu t) so that it is a double whenever the product is."""
        return math.exp(math.log(self.x0) + self.mu * self.t)


@dataclass(frozen=True)
class CriticalMoments:
    """Critical moment orders at a fixed horizon, with slopes and curvatures."""

    s_plus: float
    s_minus: float
    sigma_plus: float
    sigma_minus: float
    kappa_plus: float
    kappa_minus: float
    t: float

    def __post_init__(self):
        if not self.s_plus >= 1:
            raise DomainError(f"s_plus must be >= 1, got {self.s_plus}")
        if not self.s_minus <= 0:
            raise DomainError(f"s_minus must be <= 0, got {self.s_minus}")
        if not (self.sigma_plus > 0 and self.sigma_minus > 0):
            raise DomainError("critical slopes must be positive")


@dataclass(frozen=True)
class HestonTailConstants:
    """The eight explicit constants of the two density wings."""

    A1: float
    A2: float
    A3: float
    A1t: float
    A2t: float
    A3t: float
    B1: float
    B1t: float

    def __post_init__(self):
        _refuse_out_of_range(vars(self))


def _beta(p: HestonParams, s: float) -> float:
    return p.c * p.rho * s - p.b


def _discriminant(p: HestonParams, s: float) -> float:
    # discriminant of (c^2/2) V^2 + beta V + (s^2-s)/2, up to the factor 4
    beta = _beta(p, s)
    return beta * beta - p.c * p.c * (s * s - s)


def explosion_time(params: HestonParams, s: float) -> float:
    """First horizon at which E[X_t^s] becomes infinite; +inf if it never does.

    No explosion for s in [0, 1], nor where the discriminant is >= 0; else the
    arctangent formula of the negative discriminant. The logarithmic branch of
    the general closed form (discriminant > 0 with beta > 0) cannot occur for
    rho <= 0, b >= 0, c > 0: for s > 1, beta = c rho s - b <= 0; for s < 0,
    beta > 0 forces beta^2 <= rho^2 c^2 s^2 < c^2 (s^2 - s), a negative
    discriminant.
    """
    if 0.0 <= s <= 1.0:
        return math.inf
    delta = _discriminant(params, s)
    if delta >= 0.0:
        return math.inf
    m = math.sqrt(-delta)
    return 2.0 / m * (0.5 * math.pi - math.atan(_beta(params, s) / m))


def explosion_time_slope(params: HestonParams, s: float) -> float:
    """d/ds of the explosion time, analytic on the arctangent branch."""
    delta = _discriminant(params, s)
    if delta >= 0.0:
        raise DomainError(
            f"analytic slope needs the oscillatory branch (discriminant < 0), "
            f"got {delta} at s={s}"
        )
    c2 = params.c * params.c
    beta = _beta(params, s)
    beta_p = params.c * params.rho
    delta_p = 2.0 * beta * beta_p - c2 * (2.0 * s - 1.0)
    m = math.sqrt(-delta)
    m_p = -delta_p / (2.0 * m)
    theta = 0.5 * math.pi - math.atan(beta / m)
    # m^2 + beta^2 simplifies to c^2 s (s - 1)
    theta_p = -(beta_p * m - beta * m_p) / (c2 * s * (s - 1.0))
    return 2.0 * theta_p / m - 2.0 * theta * m_p / (m * m)


def _bracket_critical(params: HestonParams, upper: bool) -> tuple[float, float]:
    """Bracket [lo, hi] with T*(lo) > t >= T*(hi) on the requested side."""
    t = params.t
    edge = 1.0 + 1e-9 if upper else -1e-9
    step = 1.0
    probe = edge
    for _ in range(200):
        probe = probe + step if upper else probe - step
        if explosion_time(params, probe) < t:
            return (edge, probe) if upper else (probe, edge)
        step *= 2.0
    raise SearchError(
        f"could not bracket the {'upper' if upper else 'lower'} critical moment: "
        f"explosion time stayed above t={t} out to s={probe}"
    )


@lru_cache(maxsize=256)
def critical_moments(params: HestonParams) -> CriticalMoments:
    """Critical moment orders s+/s- solving T*(s) = t, with slopes and curvatures.

    s+ is found on (1, inf) and s- on (-inf, 0) by bracketed root finding on
    1/T*(s) (continuous across the non-explosive region where T* = +inf).
    Slopes use the analytic derivative of the closed form; curvatures use a
    central difference of that derivative (relative step 1e-5).
    """
    t = params.t
    results = {}
    for upper in (True, False):
        lo, hi = _bracket_critical(params, upper)

        def gap(s):
            ts = explosion_time(params, s)
            return (0.0 if math.isinf(ts) else 1.0 / ts) - 1.0 / t

        tol = Tolerance(rel=4e-16, abs=1e-13, max_iter=300)
        s_crit = find_root(gap, lo, hi, tol)
        slope = explosion_time_slope(params, s_crit)
        h = 1e-5 * max(1.0, abs(s_crit))
        curv = (explosion_time_slope(params, s_crit + h) - explosion_time_slope(params, s_crit - h)) / (2.0 * h)
        results[upper] = (s_crit, abs(slope), curv)

    s_plus, sig_plus, kap_plus = results[True]
    s_minus, sig_minus, kap_minus = results[False]
    return CriticalMoments(
        s_plus=s_plus,
        s_minus=s_minus,
        sigma_plus=sig_plus,
        sigma_minus=sig_minus,
        kappa_plus=kap_plus,
        kappa_minus=kap_minus,
        t=t,
    )


def log_mgf(params: HestonParams, z):
    """log E[X_t^z] for complex z with Re(z) inside the finite-moment strip.

    z may be a scalar (complex result, computed with cmath) or a numpy array
    (complex array of its shape, computed elementwise with numpy by the same
    formula). The trap-free branch of Albrecher, Mayer, Schoutens & Tistaert
    (2007): d is the principal square root with Re(d) >= 0, and with
    E = 1 - e^(-d t) and q = 1 - E/2 + bb (E/d)/2,
        V = (z^2 - z) (E/d) / (2 q),   C = (a/c^2) ((bb - d) t - 2 log q),
    where q never crosses the cut of the logarithm for admissible z. E/d is
    formed from expm1 and is t at d = 0, so the one form runs through the
    double root d = 0 of the Riccati quadratic without cancelling; q = 0 is
    an exact explosion.
    """
    z, xp = complex_namespace(z)
    a, b, c, rho, t = params.a, params.b, params.c, params.rho, params.t
    drift = z * (math.log(params.x0) + params.mu * t)
    bb = b - rho * c * z  # = -beta(z)
    d = xp.sqrt(bb * bb + c * c * (z - z * z))  # the principal root, Re(d) >= 0
    E = -xp.expm1(-d * t)
    at_root = d == 0
    E_d = xp.where(at_root, t, E / xp.where(at_root, 1.0, d))
    q = 1.0 - 0.5 * E + 0.5 * bb * E_d
    if xp.any(q == 0):
        raise MomentExplosionError(f"moment of order {_first(z, q == 0)} explodes exactly at t={t}")
    c2 = c * c
    V = (z * z - z) * E_d / (2.0 * q)
    C = a / c2 * ((bb - d) * t - 2.0 * xp.log(q))
    return drift + C + V * params.y0


def _first(z, mask):
    return z[mask].flat[0] if isinstance(z, np.ndarray) else z


# Taylor coefficients in u of cosh(sqrt u) and sinh(sqrt u)/sqrt u, and of the
# first two derivatives of the latter; used for |u| <= 1e-3, where the closed
# forms of the derivatives lose more than eps/u^2 to cancellation
_CH = 1.0 / np.array([math.factorial(2 * n) for n in range(7)], dtype=float)
_SH = 1.0 / np.array([math.factorial(2 * n + 1) for n in range(7)], dtype=float)
_SH1 = _SH[1:] * np.arange(1, 7)
_SH2 = _SH1[1:] * np.arange(1, 6)


def _ch_sh(u: np.ndarray):
    """cosh(r), sinh(r)/r with r = sqrt(u) (u real, either sign), their u-derivatives
    Sh' and Sh'', and a log scale: for u > 1e-3 the first four values are
    returned divided by e^r and `scale` = r, else `scale` = 0."""
    shape, u = u.shape, u.reshape(-1)
    r = np.sqrt(np.abs(u))
    pos = u > 0
    em = np.exp(-2.0 * r)
    ch = np.where(pos, 0.5 * (1.0 + em), np.cos(r))
    sh = np.where(pos, 0.5 * (1.0 - em), np.sin(r)) / np.where(r > 0, r, 1.0)
    scale = np.where(pos, r, 0.0)
    small = np.abs(u) <= 1e-3
    uu = np.where(small, 1.0, u)
    sh1 = (ch - sh) / (2.0 * uu)
    sh2 = (0.5 * sh - 3.0 * sh1) / (2.0 * uu)
    if small.any():
        poly = np.polynomial.polynomial.polyval
        us = u[small]
        ch[small], sh[small], scale[small] = poly(us, _CH), poly(us, _SH), 0.0
        sh1[small], sh2[small] = poly(us, _SH1), poly(us, _SH2)
    return tuple(v.reshape(shape) for v in (ch, sh, sh1, sh2, scale))


def cgf_derivatives(params: HestonParams, s):
    """K(s) = log E[X_t^s] and its first two derivatives at real s in the strip.

    s is a scalar or an array; returns three float arrays of its shape. Written
    with the even functions cosh(d t/2) and sinh(d t/2)/d of d^2, which stay real
    and smooth through the double root and for d^2 < 0:
        V = 2k S / Q,   C = (a/c^2)(bb t - 2 log Q),   Q = cosh(d t/2) + bb S,
    with S = sinh(d t/2)/d and k = (s^2 - s)/2; the derivatives follow by the
    chain rule through u = d^2 t^2/4.
    """
    s = np.asarray(s, dtype=float)
    a, b, c, rho, t = params.a, params.b, params.c, params.rho, params.t
    c2 = c * c
    bb, bb1 = b - rho * c * s, -rho * c
    k, k1 = 0.5 * (s * s - s), s - 0.5
    quarter = 0.25 * t * t
    u = quarter * (bb * bb + c2 * (s - s * s))
    u1 = quarter * (2.0 * bb * bb1 + c2 * (1.0 - 2.0 * s))
    u2 = quarter * (2.0 * bb1 * bb1 - 2.0 * c2)
    ch, sh, sh1, sh2, scale = _ch_sh(u)
    # s-derivatives of Ch(u(s)) and Sh(u(s)); Ch' = Sh/2 in u
    ch_1, ch_2 = 0.5 * sh * u1, 0.5 * (sh1 * u1 * u1 + sh * u2)
    sh_1, sh_2 = sh1 * u1, sh2 * u1 * u1 + sh1 * u2
    half_t = 0.5 * t
    Q = ch + half_t * bb * sh
    Q1 = ch_1 + half_t * (bb1 * sh + bb * sh_1)
    Q2 = ch_2 + half_t * (2.0 * bb1 * sh_1 + bb * sh_2)
    N, N1, N2 = t * k * sh, t * (k1 * sh + k * sh_1), t * (sh + 2.0 * k1 * sh_1 + k * sh_2)
    V = N / Q
    V1 = (N1 - V * Q1) / Q
    V2 = (N2 - 2.0 * V1 * Q1 - V * Q2) / Q
    ac2 = a / c2
    C = ac2 * (bb * t - 2.0 * (np.log(Q) + scale))
    C1 = ac2 * (bb1 * t - 2.0 * Q1 / Q)
    C2 = -2.0 * ac2 * (Q2 / Q - (Q1 / Q) ** 2)
    m = math.log(params.x0) + params.mu * t
    y0 = params.y0
    return s * m + C + V * y0, m + C1 + V1 * y0, C2 + V2 * y0


def mgf(params: HestonParams, s: float) -> float:
    """E[X_t^s] for real s strictly inside the critical interval (s-, s+)."""
    if explosion_time(params, s) <= params.t:
        cm = critical_moments(params)
        raise MomentExplosionError(
            f"moment of order s={s} is infinite at t={params.t}: "
            f"admissible open interval is ({cm.s_minus:.6g}, {cm.s_plus:.6g})"
        )
    val = log_mgf(params, s)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise SearchError(f"moment evaluation lost reality at s={s}: {val}")
    return moment_from_log(val.real, s)


def _sinh_bracket(params: HestonParams, s: float) -> float:
    """sqrt(q)/sinh(t/2 sqrt(q)) for q the quadratic discriminant at s, as the
    same analytic function sqrt(-q)/sin(t/2 sqrt(-q)): at a critical moment
    T*(s) = t is finite, which `explosion_time` is only for q < 0. A sine that
    is not positive (q >= 0 reads as sin 0) means an inconsistent critical moment.
    """
    r = math.sqrt(max(-_discriminant(params, s), 0.0))
    sn = math.sin(0.5 * params.t * r)
    if sn <= 0:
        raise SearchError(
            f"sin continuation of the sinh bracket is non-positive at s={s}; "
            "inconsistent critical moment"
        )
    return r / sn


# the names of a wing's constants (A, A2, A3, B) on each side
_SIDE_NAMES = {AT_INFINITY: ("A1", "A2", "A3", "B1"), AT_ZERO: ("A1t", "A2t", "A3t", "B1t")}


def _refuse_out_of_range(constants: dict[str, float]) -> None:
    for name, value in constants.items():
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and within the double range, got {value}")


def _side_constants(params: HestonParams, side: str) -> dict[str, float]:
    """The constants (A, A2, A3, B) of the wing on `side`, keyed by their names.

    With s the wing's critical moment (s+ at infinity, s- at zero), A3 is its
    power, s+ + 1 or -(s- + 1). With M = x0 e^{mu t}, X_t = M X_t^0 gives
    D(x) = D^0(x/M)/M, so B = A M^s. A is the exp of one log sum and B is
    exp(log A + s log M): only a constant itself past the double range comes
    out as inf or 0, for the caller to refuse by name. For M = 1, B = A.
    """
    cm = critical_moments(params)
    a, c, t, y0 = params.a, params.c, params.t, params.y0
    c2 = c * c
    ac2 = a / c2
    if side == AT_INFINITY:
        s, sigma, kappa, power = cm.s_plus, cm.sigma_plus, cm.kappa_plus, cm.s_plus + 1.0
    else:
        s, sigma, kappa, power = cm.s_minus, cm.sigma_minus, cm.kappa_minus, -(cm.s_minus + 1.0)
    beta = _beta(params, s)
    bracket = 2.0 * _sinh_bracket(params, s) / (c2 * s * (s - 1.0))
    log_a = (-0.5 * math.log(math.pi) - (0.75 + ac2) * math.log(2.0) + (0.25 - ac2) * math.log(y0)
             + (2.0 * ac2 - 0.5) * math.log(c) - (ac2 + 0.25) * math.log(sigma)
             - y0 * (beta / c2 + kappa / (c2 * sigma * sigma)) - a * t / c2 * beta + 2.0 * ac2 * math.log(bracket))
    log_forward = math.log(params.x0) + params.mu * t
    A = inf_past_double(lambda: math.exp(log_a))
    A2 = 2.0 * math.sqrt(2.0 * y0) / c / math.sqrt(sigma)
    B = inf_past_double(lambda: math.exp(log_a + s * log_forward))
    return dict(zip(_SIDE_NAMES[side], (A, A2, power, B)))


@lru_cache(maxsize=256)
def tail_constants(params: HestonParams) -> HestonTailConstants:
    """The eight wing constants A1-A3, their tilded twins, and B1/B1t: the
    constants of the two wings (see `_side_constants`) put together."""
    return HestonTailConstants(**_side_constants(params, AT_INFINITY), **_side_constants(params, AT_ZERO))


def wing_constants(params: HestonParams, wing: str) -> dict[str, float]:
    """The constants (A, A2, A3, B) of the large or the small wing, keyed by their
    names (A1 ... B1 or A1t ... B1t); refuses by name one of them outside (0, inf)."""
    constants = _side_constants(params, side_of(wing))
    _refuse_out_of_range(constants)
    return constants


def wing_record(params: HestonParams, wing: str) -> TailAsymptote:
    """Density asymptote on the large (x -> inf) or small (x -> 0) wing, from the
    constants of that wing only (`wing_constants`)."""
    _, A2, A3, B = wing_constants(params, wing).values()
    return TailAsymptote(r1=B, r2=A2, r3=A3, r4=-0.75 + params.a / params.c**2, side=side_of(wing),
                         error_order=ERROR_INV_SQRT_LOG)
