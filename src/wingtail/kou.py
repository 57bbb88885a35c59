"""Double-exponential compound-Poisson jump factor.

The law of the jump factor at horizon t is an atom of mass e^(-lam*t) at 1
plus an absolutely continuous part
    H(t, x) = G1(t, log x) x^(-eta1-1)   for x > 1,
    H(t, x) = G2(t, -log x) x^(eta2-1)   for 0 < x < 1,
where G1 and G2 are entire power series whose coefficients a_k, b_k come from
mixing Poisson weights with combinatorial up/down jump decompositions. This
module computes the exact coefficients, their closed-form approximations, the
fractional-integral comparison functions, and the wing asymptotes of H.

Each exact coefficient is a Poisson-weighted series over n of Kou's up/down
decomposition weights P_{n,k} (Kou 2002). The table is built in one array
pass per series window over every k and both sides at once, in blocks of
bounded size; a wider window adds only the terms of its new n. Each k stops
by its own truncation rule, and the values are those of summing each k
alone, bit for bit.

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
    log_factorials,
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


_LGAMMA_CACHE = log_factorials(1024)  # log(n!) at index n


def _log_factorial(n: int) -> np.ndarray:
    global _LGAMMA_CACHE
    if n >= len(_LGAMMA_CACHE):
        _LGAMMA_CACHE = log_factorials(2 * n + 2)
    return _LGAMMA_CACHE


def _normal_prefactor(value: float, name: str, shift: float) -> float:
    """value, refused by name where its factor e^shift takes it below the normal double range."""
    if not value >= sys.float_info.min:
        raise DomainError(f"Kou {name} underflows the double range: {value} at the log shift {shift:.6g}")
    return value


# rows of `_side_logs`: 0 is the up side (P), 1 the down side (Q)
_SIDES = np.arange(2)


def _side_logs(params: KouJumpParams) -> np.ndarray:
    """Columns log(eta_num/(eta1+eta2)), log(eta_den/(eta1+eta2)), log p,
    log q, log eta_num of the up side (eta_num = eta1) and the down side, which
    is the up side with (eta1, p) and (eta2, q) swapped."""
    def side(eta_num, eta_den, p, q):
        return [math.log(eta_num / (eta_num + eta_den)), math.log(eta_den / (eta_num + eta_den)),
                math.log(p), math.log(q), math.log(eta_num)]
    e1, e2, p, q = params.eta1, params.eta2, params.p, params.q
    return np.array([side(e1, e2, p, q), side(e2, e1, q, p)])


def _index_plane(j: np.ndarray, width: int):
    """The parts of the i-sum terms of log P_{K+j,K} that depend on the
    offsets j (a 1-d integer array) and o = 0..width-1 alone, at shape
    (j, o): the first term lf[j-1] - lf[o] - lf[j-1-o], -inf where
    o > j - 1 (outside the sum, so every term there is -inf), lf[n - i] =
    lf[j - o], n - i = j - o and o. Clamped indices only reach the entries
    outside the sum. The planes are read-only."""
    lf = _log_factorial(int(j.max()) + width + 2)
    jj, oo = j[:, None], np.arange(width)
    n_i = jj - oo
    with np.errstate(invalid="ignore"):
        first = np.where(oo <= jj - 1, lf[np.maximum(jj - 1, 0)] - lf[oo] - lf[np.maximum(jj - 1 - oo, 0)], -np.inf)
    planes = first, lf[np.maximum(n_i, 0)], n_i, np.broadcast_to(oo, n_i.shape).copy()
    for plane in planes:
        plane.flags.writeable = False
    return planes


# the planes of the windows up to 96 terms, which nearly every table uses
# (0.4 MB in all); a wider window's planes (up to 9 MB at 768) are built per pass
_KEPT_PLANES: dict[int, tuple] = {}


def _window_plane(size: int):
    """`_index_plane` of the offsets j that a coefficient window of `size`
    terms adds (1..24 for the first, size/2 + 1..size after), at i-sum width
    size."""
    planes = _KEPT_PLANES.get(size)
    if planes is None:
        planes = _index_plane(np.arange(size // 2 + 1 if size > 24 else 1, size + 1), size)
        if size <= 96:
            _KEPT_PLANES[size] = planes
    return planes


def _log_pnk_rows(K: np.ndarray, side: np.ndarray, j: np.ndarray, planes, logs: np.ndarray) -> np.ndarray:
    """log P_{n,K} (side 0) or log Q_{n,K} (side 1) at n = K + j, for each
    row of the integer arrays K >= 1 and side (ascending: the rows of side 0
    first) and each offset of the 1-d array j, shape (rows, j); P_{K,K} =
    p^K. `planes` is `_index_plane(j, width)`, width >= max(j): the inner
    i-sum runs over the offsets o = i - K = 0..width-1, on the last axis of
    a (rows, j, o) block.

    Each term is the six-term sum of the per-K series, in its order,
    (lf[n-K-1] - lf[o] - lf[n-1-K-o]) + (lf[n] - lf[i] - lf[n-i])
    + o log r_up + (n-i) log r_dn + i log p + (n-i) log q, with r_up, r_dn
    the side's ratios of eta: the parts that depend on (j, o) alone come
    from the planes, and each side's planes are added to its rows, so every
    element is the same double as for one K alone."""
    first, lf_n_i, n_i, o = planes
    lf = _log_factorial(int(K.max()) + o.shape[1] + 2)
    KK = K[:, None]
    terms = lf[KK + j][:, :, None] - lf[KK + o[0]][:, None, :]
    terms -= lf_n_i
    terms += first
    split = int(np.searchsorted(side, 1))
    halves = list(zip(_SIDES, (slice(0, split), slice(split, None))))
    for s, rows in halves:
        terms[rows] += o * logs[s, 0]
    for s, rows in halves:
        terms[rows] += n_i * logs[s, 1]
    terms += ((KK + o[0]) * logs[side, 2][:, None])[:, None, :]
    for s, rows in halves:
        terms[rows] += n_i * logs[s, 3]
    out = logsumexp(terms)
    if j[0] == 0:
        out[:, 0] = K * logs[side, 2]
    return out


# i-sum terms that one block of `_log_coefficients` evaluates at once: whole
# rows, or a run of one row's offsets j where a row's new terms are more (the
# windows of 384 and 768). `logsumexp` holds at most two arrays the size of its
# input at a time (a transposed copy for rows under 64 terms, then the shifted
# exponentials) besides byte masks. At 2**15 doubles (256 KB) the 64-term table
# at lam = 100 peaks at 1.2 MB under tracemalloc (1.4 MB when it also builds
# the kept planes) and takes 0.19 s there, 0.06-0.09 s untraced (2-core
# x86-64). Blocks of 2**13 and 2**14 measured slower; 2**16 measured the same
# and 2**17 slower, with thousands of page faults per table from arrays past
# glibc's mmap threshold. These runs loaded scipy, which left that threshold
# near 460 KB; `numerics` now lifts it to 1 MiB at import (see the note there),
# so a block larger than 2**15 would need measuring again.
_BLOCK_TERMS = 1 << 15

# terms of the widest series window
_MAX_WINDOW = 768


def _log_coefficients(params: KouJumpParams, k_max: int, tol: Tolerance) -> np.ndarray:
    """log a_k at [0, k] and log b_k at [1, k], for every k <= k_max.

    Each coefficient is its Poisson-weighted n-series over the window
    n = K..K+size, K = k + 1: one row of terms. A row has settled when its
    last four terms decrease and its last term is below tol.rel of its sum
    (the weights decay factorially, so the rule is reached quickly); the
    rows that have not go on to the next pass with the window doubled, up to
    768 terms. A pass computes only the terms of the new n, in blocks of at
    most _BLOCK_TERMS i-sum terms, and sums each row over all its terms.

    Each row sums exactly the terms the one-k-at-a-time series summed, so
    every value is that series' value bit for bit. A term keeps its value
    across passes, though the series recomputed it with a wider i-sum, which
    only adds zeros after the same terms: numpy's pairwise sum keeps eight
    running sums up to 128 terms and halves a longer row (at a multiple of
    8), so at the widths 24 * 2^m the nonzero terms meet the same partial
    sums in the same order.
    """
    logs = _side_logs(params)
    lam_t = params.lam * params.t
    ks = np.arange(2 * (k_max + 1)) % (k_max + 1)
    side = np.repeat(_SIDES, k_max + 1)
    K = ks + 1
    lf = _log_factorial(k_max + 1 + _MAX_WINDOW)
    log_pi = -lam_t + np.arange(lf.size) * math.log(lam_t) - lf
    total = np.empty(K.size)
    pending = np.arange(K.size)
    log_terms = (log_pi[K] + K * logs[side, 2])[:, None]
    size = 24
    while pending.size and size <= _MAX_WINDOW:
        planes = _window_plane(size)
        j = np.arange(log_terms.shape[1], size + 1)
        new = np.empty((pending.size, j.size))
        # a block is whole rows, or a run of the offsets j of one row
        rows_per_block = max(1, _BLOCK_TERMS // (j.size * size))
        j_per_block = min(j.size, max(1, _BLOCK_TERMS // size))
        for start in range(0, pending.size, rows_per_block):
            rows = pending[start:start + rows_per_block]
            for a in range(0, j.size, j_per_block):
                cut = slice(a, a + j_per_block)
                new[start:start + rows.size, cut] = (
                    log_pi[K[rows, None] + j[cut]]
                    + _log_pnk_rows(K[rows], side[rows], j[cut], [plane[cut] for plane in planes], logs)
                )
        log_terms = np.concatenate([log_terms, new], axis=1)
        sums = logsumexp(log_terms)
        decreasing = np.all(log_terms[:, -3:] < log_terms[:, -4:-1], axis=-1)
        settled = decreasing & (log_terms[:, -1] < sums + math.log(tol.rel))
        total[pending[settled]] = sums[settled]
        pending, log_terms = pending[~settled], log_terms[~settled]
        size *= 2
    if pending.size:
        raise ConvergenceError(f"coefficient n-series did not settle for k={ks[pending].min()}")
    return (K * logs[side, 4] - lf[ks] + total).reshape(2, k_max + 1)


def coefficients(params: KouJumpParams, k_max: int, tol: Tolerance = DEFAULT_TOL) -> CoefficientTable:
    """Exact a_k, b_k for k <= k_max plus hat/d/l approximation sequences.

    The exact coefficients come from one array pass per window size over
    every k and both sides (`_log_coefficients`). Each k stops by its own
    rule, and ConvergenceError names the first k that has not settled at the
    largest window, 768 terms. That bounds the intensity: at the default
    tolerance a 20-term table (k_max = 19) settles up to lam t = 629.7 with
    eta1 = 2, eta2 = 1, p = 1/2, and up to 618-864 with the other jump
    parameters tried (613 at rel = 1e-12). k_max must be an integer (Python
    or numpy, not bool).
    """
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    ks = np.arange(k_max + 1)
    lf = _log_factorial(k_max + 4)
    log_a, log_b = _log_coefficients(params, k_max, tol)

    log_a_hat = params._up_exp_shift() + (ks + 1) * math.log(params.b1_jump) - lf[ks] - lf[ks + 1]
    log_b_hat = params._down_exp_shift() + (ks + 1) * math.log(params.b2_jump) - lf[ks] - lf[ks + 1]

    def closed_form_seq(b_const, shift):
        # log c = log(b/(2 pi)) + shift, which stays finite where c underflows
        log_c = math.log(b_const / (2.0 * math.pi)) + shift
        kk = ks[1:].astype(float)
        return np.concatenate([[log_c], log_c + kk * math.log(b_const) + 2.0 * kk - (2.0 * kk + 2.0) * np.log(kk)])

    log_d = closed_form_seq(params.b1_jump, params._up_exp_shift())
    log_l = closed_form_seq(params.b2_jump, params._down_exp_shift())

    return CoefficientTable(
        a=np.exp(log_a),
        b=np.exp(log_b),
        a_hat=np.exp(log_a_hat),
        b_hat=np.exp(log_b_hat),
        d=np.exp(log_d),
        l=np.exp(log_l),
        log_a=log_a,
        log_b=log_b,
        truncation_k=k_max,
    )


# coefficient tables by parameter set, least recently used first, bounded like
# the lru_caches of heston; every table is built, and every series below
# evaluated, at DEFAULT_TOL
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
