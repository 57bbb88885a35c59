"""Black-Scholes pricing/inversion, call-price tail asymptotics, and the
five-term implied-volatility wing expansions.

Wing expansions are driven entirely by a density tail record (prefactor,
exp-sqrt-log coefficient, power, log-power): the call tail follows by double
integration, and matching Black-Scholes wings term by term yields explicit
coefficients for sqrt(L), 1, log L/sqrt(L), 1/sqrt(L) and log L/L, with a
1/L error, where L is the log-moneyness of the wing. Deep wings underflow
double precision as prices and overflow it as strikes, so the wing path
works in the log-moneyness k = log(K/x0) and in log prices in units of the
spot, log(C/x0), throughout; only `bs_call` takes a float strike. Each
wing is one `SmileExpansion`, which carries the unit-spot record it was
built from and prices the wing's calls from it. The small wing at L is
priced as the large wing, at the same L, of the density reflected about
the spot (see `TailAsymptote.reflected`).
Implied volatility is found by safeguarded Newton on the log price, from a
closed-form start (the leading-order Black-Scholes wing inversion with one
Mills-ratio correction), not by a bracketed root-finder.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import DomainError, InfinitePriceError, InversionError, RegimeGuardError
from .mellin import AT_INFINITY, TailAsymptote
from .mixed import WING_LARGE, WING_SMALL, MixedModel, mixed_asymptote
from .numerics import erfcx, ndtri

__all__ = [
    "GUARD",
    "SmileExpansion",
    "bs_call",
    "bs_log_call",
    "bs_implied_vol_from_log",
    "expansion_from_tail",
    "smile_expansion",
]

# The wing formulas are used only at log-moneyness L >= GUARD.
GUARD = 4.0


# --------------------------------------------------------------------------- #
# Black-Scholes (zero rates)
# --------------------------------------------------------------------------- #

def bs_call(x0: float, K: float, T: float, sigma: float) -> float:
    """Black-Scholes call with zero rates; sigma = 0 returns intrinsic value."""
    if not (x0 > 0 and K > 0 and T > 0):
        raise DomainError(f"need x0, K, T > 0, got {x0}, {K}, {T}")
    if sigma < 0:
        raise DomainError(f"need sigma >= 0, got {sigma}")
    if sigma == 0.0:
        return max(x0 - K, 0.0)
    from scipy.special import ndtr  # loaded on first use: no CLI path prices by strike

    srt = sigma * math.sqrt(T)
    d1 = (math.log(x0 / K) + 0.5 * srt * srt) / srt
    d2 = d1 - srt
    return x0 * ndtr(d1) - K * ndtr(d2)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
# the 4-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(4)
# gives it; calling that at import would start LAPACK, for about 0.8 MB of resident memory
_GL_RULE = ((-0.8611363115940526, 0.34785484513745357), (-0.33998104358485626, 0.6521451548625464),
            (0.33998104358485626, 0.6521451548625464), (0.8611363115940526, 0.34785484513745357))


def _mills_slope(s: float) -> float:
    """-M'(s) = 1 - s M(s) at s > 0, which cancels log2(3 s^2) bits: from s = 3
    it is M(s) T(s), T(s) = 1/(s + 2/(s + 3/(s + ...))) to 60 levels (1/M = s + T),
    within 6.2e-16 of 50 digits from there up to s = 1e6; below 3 as written, within 3.8e-15."""
    m = _SQRT_HALF_PI * erfcx(s * _SQRT_HALF)
    if s < 3.0:
        return 1.0 - s * m
    tail = 0.0
    for n in range(61, 1, -1):
        tail = n / (s + tail)
    return m / (s + tail)


def _mills_difference(z1: float, delta: float) -> float:
    """M(z1) - M(z1 + delta) of the Mills ratio M(z) = (1 - Phi(z)) / phi(z)
    = sqrt(pi/2) erfcx(z / sqrt(2)) over a short step, z1 > 0 and
    0 < delta < max(0.07, 0.02 z1), where the plain difference would cancel:
    the integral of -M'(s) over (z1, z1 + delta) by 4-point Gauss-Legendre
    (`_mills_slope`). Against 40-digit mpmath the rule's own error is below
    1.2e-16 of the integral up to z1 = 1e6 (steps of 0.07 z1 would leave 8e-14
    near z1 = 20).
    """
    half = 0.5 * delta
    total = 0.0
    for node, weight in _GL_RULE:
        total += weight * _mills_slope(z1 + half * (1.0 + node))
    return half * total


def bs_log_call(k: float, T: float, sigma: float) -> float:
    """log(C/x0) of the Black-Scholes call at log-moneyness k = log(K/x0),
    by one of three forms of C, none of which forms the difference
    Phi(d1) - e^k Phi(d2) of two values close to each other:
    - out of the money (d1 < 0): a difference of two Mills ratios
      (`_log_call_out_of_the_money`);
    - near the money (d1 >= 0 >= d2): C = (erf(d1/sqrt 2) - erf(d2/sqrt 2))/2
      - (e^k - 1) erfc(-d2/sqrt 2)/2, whose erf difference adds two terms of
      one sign, and whose last term is below C/2 where it subtracts (k > 0);
    - in the money (d2 > 0): put-call parity, C = 1 - e^k + P, two positive
      terms, with the put P = e^k C(-k) (put-call symmetry at zero rates)
      out of the money.
    """
    if not (math.isfinite(k) and math.isfinite(T) and T > 0):
        raise DomainError(f"need a finite k and a finite T > 0, got {k}, {T}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"bs_log_call needs a finite sigma > 0, got {sigma}")
    srt = sigma * math.sqrt(T)
    d1 = (-k + 0.5 * srt * srt) / srt
    if d1 < 0.0:
        return _log_call_out_of_the_money(d1, srt)
    d2 = d1 - srt
    if d2 > 0.0:
        # the call at -k has d1 = -d2
        return math.log(-math.expm1(k) + math.exp(k + _log_call_out_of_the_money(-d2, srt)))
    return math.log(0.5 * (math.erf(d1 * _SQRT_HALF) - math.erf(d2 * _SQRT_HALF))
                    - 0.5 * math.expm1(k) * math.erfc(-d2 * _SQRT_HALF))


def _log_call_out_of_the_money(d1: float, srt: float) -> float:
    """log(C/x0) of the call whose d1 is negative, at total volatility srt.

    x0 phi(d1) = K phi(d2) exactly, so C = phi(d1) (M(-d1) - M(-d2)), M the
    Mills ratio, with no cancellation left in the difference (Phi(d1) -
    e^k Phi(d2) loses the digits of C / Phi(d1) to the rounding of two
    values near d1^2 / 2).
    """
    z1 = -d1
    if srt >= 0.02 * z1 and srt >= 0.07:
        # the two ratios differ by at least 1.7% (the least at z1 = 3.5): their plain
        # difference, with phi(d1) sqrt(pi/2) = e^(-d1^2/2) / 2, loses at most 6 bits;
        # below srt = 0.07 it would lose up to 6.6 near the money, the short step none
        diff = erfcx(z1 * _SQRT_HALF) - erfcx((z1 + srt) * _SQRT_HALF)
        return -0.5 * d1 * d1 - _LOG_2 + math.log(diff)
    return -0.5 * d1 * d1 - _HALF_LOG_2PI + math.log(_mills_difference(z1, srt))


# the lowest volatility the inversion returns: a price at or below its value
# inverts to it
_VOL_FLOOR = 1e-8
# the loop ends in a few steps; the budget only bounds a broken evaluation
_NEWTON_BUDGET = 200
_EPS = sys.float_info.epsilon


def _start_vol(log_price: float, k: float, T: float) -> float:
    """Closed-form start for the inversion of log(C/x0) at log-moneyness k.

    An in-the-money call is read as the out-of-the-money put of the same
    volatility, by put-call parity and symmetry (P = C - (1 - e^k) at k, a
    call of log price log P - k at -k). On the out-of-the-money side the
    leading-order wing inversion (Gao-Lee) solves -log C = d1^2/2 for the
    total volatility: v = sqrt(2(l + k)) - sqrt(2 l), l = -log C, with l
    corrected once by the Mills ratio C ~ phi(d1) v / (d1 d2) where d1 < -1
    at both the uncorrected and the corrected start.
    The at-the-money volatility of the same price, which is below the root
    at every k >= 0, is the start where that is larger (near the money).
    """
    if k < 0.0:
        put = math.exp(log_price) + math.expm1(k)
        if put > 0.0:
            log_price, k = math.log(put) - k, -k
    v = 0.0
    if k > 0.0:
        ell = -log_price
        v = 2.0 * k / (math.sqrt(2.0 * (ell + k)) + math.sqrt(2.0 * ell))
        d1 = -k / v + 0.5 * v
        if d1 < -1.0:
            ell += math.log(v / (d1 * (d1 - v))) - _HALF_LOG_2PI
            if ell > 0.0:
                corrected = 2.0 * k / (math.sqrt(2.0 * (ell + k)) + math.sqrt(2.0 * ell))
                if -k / corrected + 0.5 * corrected < -1.0:
                    v = corrected
    # the at-the-money volatility w, C = erf(w / sqrt 8), where it can be the
    # larger: erfc(y) <= e^(-y^2) bounds w^2 by -8 log(1 - C)
    if v * v < -8.0 * math.log(-math.expm1(log_price)):
        v = max(v, -2.0 * ndtri(max(-0.5 * math.expm1(log_price), sys.float_info.min)))
    return max(v / math.sqrt(T), _VOL_FLOOR)


def bs_implied_vol_from_log(log_price: float, k: float, T: float) -> float:
    """Implied volatility of the log price log(C/x0) at log-moneyness k.

    Safeguarded Newton on g(sigma) = log C(sigma) - log_price from the
    closed-form start `_start_vol`, with d log C / d sigma = phi(d1) sqrt(T) / C.
    Every evaluation narrows a bracket (lo, hi) of the root, since g
    increases. A Newton step that leaves it or more than doubles sigma, or
    that has no accurate derivative (far below the root, where log C and
    -d1^2/2 cancel), is replaced by a bisection, or by a doubling while no
    upper end is known. Below the volatility floor 1e-8 is never evaluated:
    a price at or below the floor's value returns the floor. An in-the-money
    price whose put (by parity) is at its rounding level evaluates the floor
    first, and returns it in that one evaluation when its price is as high:
    from the parity start Newton would creep down the rounding plateau of
    such a price, and stop at its top. The loop stops
    - when the residual is small enough that the Newton step from it is
      exact to rounding: the step's quadratic error |g''/g'| step^2, with
      g''/g' = d1 d2 / sigma - g', is within one ulp of sigma; it returns
      the stepped volatility;
    - when the residual is at the rounding level of the log price;
    - or when the bracket has collapsed to a few ulps, where rounding of g
      keeps the residual from certifying a step (a price that barely
      determines sigma, such as deep in the money).
    """
    if not (math.isfinite(k) and math.isfinite(T) and T > 0):
        raise DomainError(f"need a finite k and a finite T > 0, got {k}, {T}")
    if not math.isfinite(log_price):
        raise DomainError(f"bs_implied_vol_from_log needs a finite log_price, got {log_price}")
    if log_price >= 0.0:
        raise InversionError(f"price {math.exp(log_price):.6g} x0 at or above the spot bound")
    if k < 0.0 and log_price <= math.log(-math.expm1(k)):
        raise InversionError(
            f"price {math.exp(log_price):.6g} x0 at or below intrinsic value {-math.expm1(k):.6g} x0"
        )
    if k < 0.0:
        # a put at the rounding level of the price: the price is intrinsic
        # value in double precision, which every volatility up to some level
        # gives. It inverts to the floor when the floor's price reaches it
        price = math.exp(log_price)
        if price + math.expm1(k) <= 4.0 * _EPS * price and bs_log_call(k, T, _VOL_FLOOR) >= log_price:
            return _VOL_FLOOR
    sqrt_t, half_log_t = math.sqrt(T), 0.5 * math.log(T)
    lo, hi = 0.0, math.inf  # lo = 0: no volatility below the root evaluated yet
    sigma = _start_vol(log_price, k, T)
    for _ in range(_NEWTON_BUDGET):
        log_c = bs_log_call(k, T, sigma)
        g = log_c - log_price
        if g == 0.0 or (g > 0.0 and sigma == _VOL_FLOOR):
            return sigma
        if g < 0.0:
            lo = sigma
        else:
            hi = sigma
        if abs(g) <= 2.0 * _EPS * -log_price or hi - lo <= 4.0 * _EPS * lo:
            return sigma
        v = sigma * sqrt_t
        d1 = -k / v + 0.5 * v
        log_dg = -0.5 * d1 * d1 - _HALF_LOG_2PI + half_log_t - log_c
        nxt = math.nan
        # a derivative in the double range, and with log_dg, a difference of
        # two terms near d1^2 / 2, good to three digits
        if abs(log_dg) < 700.0 and d1 * d1 * _EPS < 2e-3:
            dg = math.exp(log_dg)
            step = g / dg
            nxt = sigma - step
            if max(lo, _VOL_FLOOR) <= nxt <= hi and abs(d1 * (d1 - v) / sigma - dg) * step * step <= _EPS * nxt:
                return nxt
        if not lo < nxt < min(hi, 2.0 * sigma):
            nxt = _VOL_FLOOR if lo == 0.0 else 2.0 * sigma if hi == math.inf else 0.5 * (lo + hi)
        sigma = max(nxt, _VOL_FLOOR)
    raise InversionError(f"no volatility in [{lo:.17g}, {hi:.17g}] certified within {_NEWTON_BUDGET} steps")


# --------------------------------------------------------------------------- #
# Five-term wing expansions and the call-price tail
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SmileExpansion:
    """Implied-vol wing expansion: c_lead*sqrt(L) + c_const + c_llog*log(L)/sqrt(L)
    + c_inv/sqrt(L) + c_llog2*log(L)/L, error O(1/L), and the leading-term
    call price of the wing, from `unit`, the record at infinity that prices
    the wing at unit spot (see `_unit_spot_tail`).

    L is log(K/x0) on the large wing and log(x0/K) on the small wing.
    """

    wing: str
    c_lead: float
    c_const: float
    c_llog: float
    c_inv: float
    c_llog2: float
    unit: TailAsymptote

    def __post_init__(self):
        if self.wing not in (WING_LARGE, WING_SMALL):
            raise DomainError(f"unknown wing {self.wing!r}")
        if not self.c_lead > 0:
            raise DomainError(f"c_lead must be positive, got {self.c_lead}")
        for name in ("c_lead", "c_const", "c_llog", "c_inv", "c_llog2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} is not finite")

    def evaluate(self, L: float) -> float:
        """Implied volatility at log-moneyness L >= GUARD on this wing."""
        if not L >= GUARD:
            raise RegimeGuardError(f"the {self.wing}-wing expansion needs L >= {GUARD}, got {L:.6g}")
        sq = math.sqrt(L)
        lg = math.log(L)
        return self.c_lead * sq + self.c_const + self.c_llog * lg / sq + self.c_inv / sq + self.c_llog2 * lg / L

    def log_call(self, L: float) -> float:
        """log(C/x0) of the leading-term call price at log-moneyness L >= GUARD
        on this wing; on the small wing, the price whose implied volatility at
        k = L is the small-wing one at k = -L.

        Integrating the large-wing tail of `unit` twice gives, at unit spot,
            C = r1 / ((r3-1)(r3-2)) * L^r4 * exp(r2 sqrt(L)) * e^((2-r3) L),
        with relative error of order L^(-1/2).
        """
        if not L >= GUARD:
            raise RegimeGuardError(f"the {self.wing}-wing call price needs L >= {GUARD}, got {L:.6g}")
        unit = self.unit
        return (
            math.log(unit.r1)
            - math.log((unit.r3 - 1.0) * (unit.r3 - 2.0))
            + unit.r4 * math.log(L)
            + unit.r2 * math.sqrt(L)
            + (2.0 - unit.r3) * L
        )


def _unit_spot_tail(tail: TailAsymptote, x0: float) -> TailAsymptote:
    """The record at infinity that prices the wing of `tail`, at unit spot.

    C(x0 e^L)/x0 is the call at unit spot on the density of X/x0, whose
    record has prefactor r1 x0^(1-r3) at infinity and r1 x0^(1+r3) at zero.
    A record at zero is then reflected about the unit spot, so the small
    wing at log-moneyness L is priced as the large wing at L.
    """
    unit = replace(tail, r1=tail.r1 * x0 ** (1.0 - tail.r3 if tail.side == AT_INFINITY else 1.0 + tail.r3))
    return unit if unit.side == AT_INFINITY else unit.reflected()


def _wing_coefficients(unit: TailAsymptote, T: float):
    """Coefficient algebra on the unit-spot record at infinity `unit`, whose
    exponent offsets are e_lo = r3 - 2 and e_hi = r3 - 1.

    The 1/sqrt(L) coefficient carries the same (1/sqrt(e_lo) - 1/sqrt(e_hi))
    factor as the other subleading terms: every perturbation of the matching
    equation enters through the derivative of the leading-order wing map, and
    the price-inversion oracle confirms the residual times L stays bounded
    only with that factor in place (without it the residual grows like
    sqrt(L); see the wing self-consistency tests).
    """
    r1n, r2, r4 = unit.r1, unit.r2, unit.r4
    e_lo, e_hi = unit.r3 - 2.0, unit.r3 - 1.0
    sq_hi, sq_lo = math.sqrt(e_hi), math.sqrt(e_lo)
    s2t = math.sqrt(2.0 * T)
    base2 = 1.0 / sq_lo - 1.0 / sq_hi
    base3 = e_lo**-1.5 - e_hi**-1.5
    c_lead = math.sqrt(2.0 / T) * (sq_hi - sq_lo)
    c_const = r2 / s2t * base2
    c_llog = (2.0 * r4 + 1.0) / (2.0 * s2t) * base2
    c_inv = (
        base2 / s2t * math.log(2.0 * math.sqrt(math.pi) * r1n / (sq_hi * sq_lo * (sq_hi - sq_lo)))
        + r2 * r2 / (4.0 * s2t) * base3
    )
    c_llog2 = r2 * (2.0 * r4 + 1.0) / (4.0 * s2t) * base3
    return c_lead, c_const, c_llog, c_inv, c_llog2


def expansion_from_tail(tail: TailAsymptote, x0: float, T: float) -> SmileExpansion:
    """Wing expansion from a density tail record; the record's side picks the wing.

    The coefficients depend on the exponent offsets (r3 - 2, r3 - 1) and on
    the prefactor of the record at infinity that prices the wing at unit
    spot (`_unit_spot_tail`): the record itself, r1 x0^(1-r3), on the large
    wing; on the small wing (density ~ r1 x^(s3 - 1), s3 = r3 + 1) the
    record reflected about the spot, offsets (s3, s3 + 1), prefactor r1 x0^s3.
    """
    for name, value in (("x0", x0), ("T", T)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"expansion_from_tail needs a finite {name} > 0, got {value}")
    wing = WING_LARGE if tail.side == AT_INFINITY else WING_SMALL
    unit = _unit_spot_tail(tail, x0)
    e_lo = unit.r3 - 2.0
    if not e_lo > 0.0:
        raise InfinitePriceError(
            f"{wing}-wing expansion needs a positive exponent offset, got {e_lo} (record r3={tail.r3})"
        )
    return SmileExpansion(wing, *_wing_coefficients(unit, T), unit)


def smile_expansion(model: MixedModel, wing: str) -> SmileExpansion:
    """Five-term wing expansion of the model smile on the requested wing.

    Requires the martingale drift for the jump component (implied volatility
    is defined against the spot as forward); raises on a degenerate regime or
    an exploding prefactor moment, propagated from the wing record.
    """
    mu_star = 0.0 if model.jumps is None else model.jumps.martingale_drift()
    if abs(model.heston.mu - mu_star) > 1e-9 * max(1.0, abs(mu_star)):
        raise DomainError(
            f"model drift {model.heston.mu} is not the martingale drift {mu_star}; "
            "install the no-arbitrage drift before asking for smile asymptotics"
        )
    return expansion_from_tail(mixed_asymptote(model, wing), model.x0, model.t)
