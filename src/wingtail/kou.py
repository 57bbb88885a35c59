"""Double-exponential compound-Poisson jump factor.

The law of the jump factor at horizon t is an atom of mass e^(-lam*t) at 1
plus an absolutely continuous part
    H(t, x) = G1(t, log x) x^(-eta1-1)   for x > 1,
    H(t, x) = G2(t, -log x) x^(eta2-1)   for 0 < x < 1,
where G1 and G2 are entire power series with coefficients a_k, b_k. This
module computes the exact coefficients, their closed-form approximations, the
fractional-integral comparison functions, and the wing asymptotes of H.

Each exact coefficient is read off the principal part of the jump law's
moment function E[e^(zT)] at its essential singularity z = eta1 (a_k) or
z = -eta2 (b_k): a double sum of positive terms, summed to rounding. Its
first term is the closed-form approximation a_hat_k or b_hat_k, so the
exact coefficient exceeds it.

All coefficient arithmetic runs in log space: the raw coefficients decay like
1/(k! (k+1)!) and the series are needed at arguments u = log x up to 1e4.
"""
from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .mellin import AT_INFINITY, ERROR_INV_SQRT_LOG, TailAsymptote, side_of
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    check_strip,
    complex_namespace,
    domain_points,
    integrate,
    logsumexp,
    require_finite,
    shaped_like,
)

__all__ = [
    "KouJumpParams",
    "CoefficientTable",
    "coefficients",
    "g1_log",
    "g2_log",
    "h_density",
    "h_log_density_logx",
    "frac_integral",
    "h_wing_record",
    "log_jump_mgf",
    "jump_cgf_derivatives",
    "risk_neutral_drift",
    "sample_jump_factors",
]


@dataclass(frozen=True)
class KouJumpParams:
    """Jump intensity, two-sided log-jump rates, mixing weights, horizon.

    eta1 > 1 is required: it is exactly the condition for the jump factor to
    have finite expectation. The methods after the grouped constants are the
    jump-law interface that `MixedModel` uses; each calls the module function
    of the same law.
    """

    kind = "kou"
    density_jumps_at_one = True  # H(t, 1-) = b_0 differs from H(t, 1+) = a_0

    lam: float
    eta1: float
    eta2: float
    p: float
    q: float
    t: float

    def __post_init__(self):
        require_finite(self)
        if not self.lam > 0:
            raise DomainError(f"need lam > 0, got {self.lam}")
        if not self.eta1 > 1:
            raise DomainError(f"need eta1 > 1 (finite mean of the jump factor), got {self.eta1}")
        if not self.eta2 > 0:
            raise DomainError(f"need eta2 > 0, got {self.eta2}")
        if not (self.p > 0 and self.q > 0):
            raise DomainError(f"need p, q > 0, got p={self.p}, q={self.q}")
        if abs(self.p + self.q - 1.0) > 1e-12:
            raise DomainError(f"need p + q = 1, got {self.p + self.q}")
        if not self.t > 0:
            raise DomainError(f"need t > 0, got {self.t}")

    # grouped constants of the closed-form coefficient approximations;
    # named *_jump to keep them apart from the diffusion-side B1
    @property
    def b1_jump(self) -> float:
        return self.eta1 * self.lam * self.t * self.p

    @property
    def b2_jump(self) -> float:
        return self.eta2 * self.lam * self.t * self.q

    @property
    def c1_jump(self) -> float:
        shift = self._up_exp_shift()
        return _normal_prefactor(self.b1_jump / (2.0 * math.pi) * math.exp(shift), "c1_jump", shift)

    def _up_exp_shift(self) -> float:
        # exponential prefactor of the upward-side coefficients
        return self.eta2 * self.lam * self.t * self.q / (self.eta1 + self.eta2) - self.lam * self.t

    def _down_exp_shift(self) -> float:
        return self.eta1 * self.lam * self.t * self.p / (self.eta1 + self.eta2) - self.lam * self.t

    @property
    def atom_mass(self) -> float:
        """Mass e^(-lam t) of the atom at price 1 (no jump by the horizon)."""
        return math.exp(-self.lam * self.t)

    def moment_strip(self) -> tuple[float, float]:
        return -self.eta2, self.eta1

    def log_mgf(self, z):
        return log_jump_mgf(self, z)

    def cgf_derivatives(self, s):
        return jump_cgf_derivatives(self, s)

    def wing_record(self, wing: str) -> TailAsymptote:
        return h_wing_record(self, wing)

    def price_density(self, x):
        """H(t, x) at x > 0, a scalar or an array (`h_density`)."""
        return h_density(self, x)

    def sample_factors(self, stream, size: int) -> np.ndarray:
        return sample_jump_factors(self, stream, size)

    def martingale_drift(self) -> float:
        return risk_neutral_drift(self)


@dataclass(frozen=True)
class CoefficientTable:
    """Exact series coefficients with their closed-form approximations.

    Arrays are indexed by k. `log_a`/`log_b` duplicate a and b in log space for
    overflow-safe series evaluation at large arguments.
    """

    a: np.ndarray
    b: np.ndarray
    a_hat: np.ndarray
    b_hat: np.ndarray
    d: np.ndarray
    l: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray
    truncation_k: int


_LOG_FACTORIALS = np.zeros(1)  # log(n!) at index n


def _log_factorial(n: int) -> np.ndarray:
    """log(m!) for m = 0 .. n at least, by a compensated (Kahan) running sum
    of log m: within 0.65 ulp up to m = 3000 (scipy's gammaln is up to 2 ulps
    off); the exact coefficients and their closed forms share it."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS  # returned as checked or built, whatever another thread stores
    if n >= len(table):
        out, total, carry = [0.0], 0.0, 0.0
        for m in range(1, 2 * n + 2):
            step = math.log(m) - carry
            new_total = total + step
            carry, total = (new_total - total) - step, new_total
            out.append(total)
        table = _LOG_FACTORIALS = np.array(out)
    return table


def _normal_prefactor(value: float, name: str, shift: float) -> float:
    """value, refused by name where its factor e^shift takes it below the normal double range."""
    if not value >= sys.float_info.min:
        raise DomainError(f"Kou {name} underflows the double range: {value} at the log shift {shift:.6g}")
    return value


_LOG_TAIL = -57.0 * math.log(2.0)
# terms of either index past which a table is refused
_MAX_TERMS = 4096
# series terms evaluated at once (512 KB)
_BLOCK_TERMS = 1 << 16


def _log_row_sums(log_terms, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Log sums of the rows of log_terms(rows), (rows, width) arrays formed in blocks of at most
    _BLOCK_TERMS terms, and which rows have settled: a row's last term is at most half the one
    before it and below 2^-57 of its sum (_LOG_TAIL), a 16th of the unit roundoff. Where the ratio of a
    row's terms keeps falling, the terms after its last add at most the last."""
    sums, settled = [], []
    for block in np.array_split(rows, -(-rows.size * width // _BLOCK_TERMS)):
        terms = log_terms(block)
        sums.append(logsumexp(terms))
        last = terms[:, -1]
        settled.append((last - terms[:, -2] <= -math.log(2.0)) & (last < sums[-1] + _LOG_TAIL))
    return np.concatenate(sums), np.concatenate(settled)


def _settled_sums(log_terms, rows: np.ndarray, lam_t: float, n: int = 32) -> tuple[np.ndarray, int]:
    """Log sums of the rows of log_terms(rows, n), each over its first n terms, n doubling from the
    given count for the rows that have not settled (`_log_row_sums`), up to _MAX_TERMS; and the
    count at which the last rows settled."""
    out, settled = _log_row_sums(lambda block: log_terms(block, n), rows, n)
    while not settled.all():
        n *= 2
        if n > _MAX_TERMS:
            raise ConvergenceError(
                f"Kou coefficient table needs more than {_MAX_TERMS} series terms at lam t = {lam_t:g}")
        pending = np.flatnonzero(~settled)
        sums, done = _log_row_sums(lambda block: log_terms(block, n), rows[pending], n)
        out[pending[done]], settled[pending[done]] = sums[done], True
    return out, n


def _log_residues(lam_t: float, eta_num: float, eta_den: float, p: float, q: float, k_max: int) -> np.ndarray:
    """log a_k for k <= k_max; log b_k with (eta1, p) and (eta2, q) swapped.

    Near its singularity, at w = eta_num - z, E[e^(zT)] is e^(-lam t) exp(A / w)
    exp(c mu / (c - w)), with A = lam t p eta_num, c = eta1 + eta2 and
    mu = lam t q eta_den / c. The density's part e^(-eta_num u) sum_k a_k u^k
    gives it the principal part sum_k a_k k! / w^(k+1), so
        a_k = e^(-lam t) / k! sum_{j>=0} h_j A^(k+j+1) / (k+j+1)!,
    where h_0 = e^mu and h_j = c^-j sum_{i>=1} mu^i / i! C(i+j-1, j) are the
    Taylor coefficients of exp(c mu / (c - w)). The j = 0 term is a_hat_k.
    Both sums are of positive terms, in log space. The term ratio of an i-sum
    falls in i; that of a j-sum falls from j = 1 on in every law tried (lam t
    from 0.01 to 1000). Each row, a k of the j-sums or a j of the i-sums,
    doubles its terms, from 32, until it has settled (`_settled_sums`): the
    rows of large k settle within a few terms of j, the row k = 0 last. Each
    h_j is formed once, as the first row of j-sums that needs it asks for it.
    """
    mu = lam_t * q * eta_den / (eta_num + eta_den)
    log_a, log_mu, log_c = math.log(lam_t * p * eta_num), math.log(mu), math.log(eta_num + eta_den)
    log_h, n_i = np.array([mu]), 32

    def i_terms(rows, n):
        lf, i = _log_factorial(n + rows.max()), np.arange(1, n)
        return i * log_mu - lf[i] - lf[i - 1] + lf[i + rows[:, None] - 1]

    def j_terms(rows, n):
        nonlocal log_h, n_i
        lf = _log_factorial(n + rows.max() + 1)
        if log_h.size < n:
            # rows of larger j need more terms of i: these start where the last settled
            j = np.arange(log_h.size, n)
            i_sums, n_i = _settled_sums(i_terms, j, lam_t, n_i)
            log_h = np.concatenate([log_h, i_sums - lf[j] - j * log_c])
        kj = rows[:, None] + np.arange(n) + 1
        return log_h[:n] + kj * log_a - lf[kj]

    k = np.arange(k_max + 1)
    return _settled_sums(j_terms, k, lam_t)[0] - lam_t - _log_factorial(k_max)[k]


def coefficients(params: KouJumpParams, k_max: int) -> CoefficientTable:
    """Exact a_k, b_k for k <= k_max plus hat/d/l approximation sequences.

    The exact coefficients come from the principal parts of the jump law's
    moment function at its singularities (`_log_residues`), summed to
    rounding; a_hat_k and b_hat_k take their log factorials from the same
    table. A table needs more terms as lam t grows, and ConvergenceError
    refuses one that needs more than _MAX_TERMS of either index: with
    eta1 = 2, eta2 = 1, p = 1/2 a 20-term table (k_max = 19) reaches
    lam t = 3071. k_max must be an integer (Python or numpy, not bool).
    """
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    log_a = _log_residues(params.lam * params.t, params.eta1, params.eta2, params.p, params.q, k_max)
    log_b = _log_residues(params.lam * params.t, params.eta2, params.eta1, params.q, params.p, k_max)
    ks = np.arange(k_max + 1)
    lf = _log_factorial(k_max + 1)

    log_a_hat = params._up_exp_shift() + (ks + 1) * math.log(params.b1_jump) - lf[ks] - lf[ks + 1]
    log_b_hat = params._down_exp_shift() + (ks + 1) * math.log(params.b2_jump) - lf[ks] - lf[ks + 1]

    def closed_form_seq(b_const, shift):
        # log c = log(b/(2 pi)) + shift, which stays finite where c underflows
        log_c = math.log(b_const / (2.0 * math.pi)) + shift
        kk = ks[1:].astype(float)
        return np.concatenate([[log_c], log_c + kk * math.log(b_const) + 2.0 * kk - (2.0 * kk + 2.0) * np.log(kk)])

    log_d = closed_form_seq(params.b1_jump, params._up_exp_shift())
    log_l = closed_form_seq(params.b2_jump, params._down_exp_shift())

    linear = map(np.exp, (log_a, log_b, log_a_hat, log_b_hat, log_d, log_l))
    return CoefficientTable(*linear, log_a=log_a, log_b=log_b, truncation_k=k_max)


# coefficient tables by parameter set, least recently used first, bounded like
# the lru_caches of heston; every series below is evaluated at DEFAULT_TOL
TABLE_CACHE_SIZE = 256
_TABLE_CACHE: OrderedDict[KouJumpParams, CoefficientTable] = OrderedDict()


def _table(params: KouJumpParams, k_min: int) -> CoefficientTable:
    cached = _TABLE_CACHE.pop(params, None)
    if cached is None or cached.truncation_k < k_min:
        cached = coefficients(params, max(k_min, 64))
    _TABLE_CACHE[params] = cached
    if len(_TABLE_CACHE) > TABLE_CACHE_SIZE:
        _TABLE_CACHE.popitem(last=False)
    return cached


def _series_k_budget(b_const: float, u: float) -> int:
    # the terms of sum_k c B^k e^{2k} k^{-2k-2} u^k peak near k ~ sqrt(B u)
    return int(2.5 * math.sqrt(max(b_const * u, 1.0))) + 48


def _log_series(log_coeffs: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, bool]:
    """log sum_k exp(log_coeffs[k]) u^k at every point of u, one row of terms per point, and
    whether the truncation is short (a last term above DEFAULT_TOL.rel of its sum)."""
    ks = np.arange(len(log_coeffs))
    zero = u == 0.0
    with np.errstate(divide="ignore"):
        log_terms = log_coeffs + ks * np.where(zero, 1.0, np.log(u))[:, None]
    total = logsumexp(log_terms)
    short = bool(np.any(log_terms[~zero, -1] > total[~zero] + math.log(DEFAULT_TOL.rel)))
    return np.where(zero, log_coeffs[0], total), short


def _g_log(params: KouJumpParams, u, up: bool):
    """log G1(t, u) (up=True) or log G2(t, u) at every point of u, with one
    table doubled (up to five times) until the series truncates at the largest u."""
    name = "G1" if up else "G2"
    us = domain_points(u, lambda v: v >= 0, f"{name} requires finite u >= 0")
    table = _table(params, _series_k_budget(params.b1_jump if up else params.b2_jump, us.max(initial=0.0)))
    for growth in range(6):
        if growth:
            table = _table(params, 2 * table.truncation_k)
        values, short = _log_series(table.log_a if up else table.log_b, us)
        if not short:
            return shaped_like(u, values)
    raise ConvergenceError(f"{name} series did not truncate cleanly at u={us.max()}", best_estimate=values)


def g1_log(params: KouJumpParams, u):
    """log G1(t, u) at u >= 0, a scalar (float result) or an array; overflow-safe for large u."""
    return _g_log(params, u, up=True)


def g2_log(params: KouJumpParams, u):
    """log G2 series value at downward displacement u >= 0, a scalar or an array."""
    return _g_log(params, u, up=False)


def h_log_density_logx(params: KouJumpParams, ell):
    """log H(t, x) at x = e^ell, a scalar (float result) or an array of finite
    ell; ell = 0 gives the right-limit log a_0, the large-wing series at u = 0."""
    u = domain_points(ell, np.isfinite, "the Kou jump density requires finite ell = log x")
    out, up = np.empty(u.size), u >= 0
    if up.any():
        out[up] = g1_log(params, u[up]) + (-params.eta1 - 1.0) * u[up]
    if not up.all():
        out[~up] = g2_log(params, -u[~up]) + (params.eta2 - 1.0) * u[~up]
    return shaped_like(ell, out)


def h_density(params: KouJumpParams, x):
    """Density H(t, x) of the absolutely continuous part of the jump-factor law,
    at x > 0, a scalar (float result) or an array."""
    xs = domain_points(x, lambda v: v > 0, "the Kou jump density requires finite x > 0")
    return shaped_like(x, np.exp(h_log_density_logx(params, np.log(xs))))


def frac_integral(order: float, s: float, r: float, u: float) -> float:
    """u^order * (fractional integral of order `order` of s*cosh(r*sqrt(.))) at u.

    Only the comparison orders -3/2 and -5/2 are supported. Computed (rel 1e-11)
    by quadrature of the scaled kernel representation
        (s / Gamma(-order)) * int_0^1 cosh(r sqrt(u w)) (1-w)^(-order-1) dw
    in q with w = 1 - q^2, which removes the branch point of (1-w)^(-order-1)
    at w = 1 and leaves a smooth integrand.
    """
    if order not in (-1.5, -2.5):
        raise DomainError(f"order must be -3/2 or -5/2, got {order}")
    if not (s > 0 and r > 0):
        raise DomainError(f"need s > 0 and r > 0, got s={s}, r={r}")
    if not u > 0:
        raise DomainError(f"need u > 0, got {u}")
    power = -2.0 * order - 1.0
    front = s / math.exp(math.lgamma(-order))
    integrand = lambda q, _panel: 2.0 * q**power * np.cosh(r * np.sqrt(u * (1.0 - q * q)))
    value, _ = integrate(integrand, 0.0, 1.0, Tolerance(rel=1e-11, abs=0.0))
    return front * float(value)


def watson_params(params: KouJumpParams) -> tuple[float, float]:
    """(s, r) tying the cosh comparison function to the jump parameters."""
    return 2.0 * math.sqrt(math.pi) * params.c1_jump, 2.0 * math.sqrt(params.b1_jump)


def h_wing_record(params: KouJumpParams, wing: str) -> TailAsymptote:
    """Asymptote of the full density H on one wing: the leading term of the
    series factor G1 (large wing) or G2 (small wing) times the power
    x^(-eta1-1) or x^(eta2-1)."""
    side = side_of(wing)
    if side == AT_INFINITY:
        b, shift, r3 = params.b1_jump, params._up_exp_shift(), params.eta1 + 1.0
    else:
        b, shift, r3 = params.b2_jump, params._down_exp_shift(), params.eta2 - 1.0
    return TailAsymptote(
        r1=_normal_prefactor(0.5 / math.sqrt(math.pi) * b**0.25 * math.exp(shift), f"{wing}-wing prefactor r1", shift),
        r2=2.0 * math.sqrt(b),
        r3=r3,
        r4=-0.75,
        side=side,
        error_order=ERROR_INV_SQRT_LOG,
    )


def log_jump_mgf(params: KouJumpParams, z):
    """log E[exp(z * T_t)] for complex z with -eta2 < Re(z) < eta1.

    z may be a scalar (complex result) or a numpy array (elementwise, every
    element inside the strip).
    """
    z, _ = complex_namespace(z)
    check_strip(z, params.moment_strip(), "jump moment")
    e1, e2 = params.eta1, params.eta2
    return params.lam * params.t * (params.p * e1 / (e1 - z) + params.q * e2 / (e2 + z) - 1.0)


def jump_cgf_derivatives(params: KouJumpParams, s):
    """log E[exp(s T_t)] and its first two derivatives at real s in (-eta2, eta1).

    s is a scalar or an array; returns three float arrays of its shape.
    """
    s = np.asarray(s, dtype=float)
    check_strip(s, params.moment_strip(), "jump moment")
    lam_t, e1, e2 = params.lam * params.t, params.eta1, params.eta2
    up, down = params.p * e1 / (e1 - s), params.q * e2 / (e2 + s)
    return (
        lam_t * (up + down - 1.0),
        lam_t * (up / (e1 - s) - down / (e2 + s)),
        2.0 * lam_t * (up / (e1 - s) ** 2 + down / (e2 + s) ** 2),
    )


def risk_neutral_drift(params: KouJumpParams) -> float:
    """Diffusion drift making the jump-diffusion price a martingale at zero rates."""
    return params.lam * (params.q / (params.eta2 + 1.0) - params.p / (params.eta1 - 1.0))


def sample_jump_factors(params: KouJumpParams, stream, size: int) -> np.ndarray:
    """Vector of independent draws of the jump factor exp(T_t)."""
    gen = stream.generator
    n_jumps = gen.poisson(params.lam * params.t, size=size)
    n_up = gen.binomial(n_jumps, params.p)
    n_down = n_jumps - n_up
    up = gen.standard_gamma(n_up) / params.eta1
    down = gen.standard_gamma(n_down) / params.eta2
    return np.exp(up - down)
