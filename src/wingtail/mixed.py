"""Mixed model: an independent product of a Heston price factor and a jump
factor (double-exponential compound Poisson, or NIG). The density of the
product is the multiplicative convolution of the component densities; each
wing of the mixed density is dictated by whichever component has the heavier
tail there, with equality of exponents a refused degenerate case.
"""
from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import heston as _heston
from .errors import DegenerateRegimeError, DomainError
from .heston import HestonParams
from .kou import KouJumpParams
from .mellin import (SWEEP_WINDOWS, WING_LARGE, WING_SMALL, TailAsymptote, convolve_asymptote, mellin_convolve,
                     side_of)
from .nig import NIGParams
from .numerics import Tolerance, moment_from_log

__all__ = [
    "WING_LARGE",
    "WING_SMALL",
    "DOMINANT_JUMP",
    "DOMINANT_DIFFUSION",
    "WingRegime",
    "MixedModel",
    "classify_wing",
    "mixed_asymptote",
    "mixed_density",
]

DOMINANT_JUMP = "jump"
DOMINANT_DIFFUSION = "diffusion"

# competing wing exponents within this relative distance are a degenerate wing
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class WingRegime:
    """Which component dominates a wing, and by how much (exponent gap)."""

    wing: str
    dominant: str
    margin: float

    def __post_init__(self):
        if not self.margin > 0:
            raise DomainError(f"WingRegime margin must be > 0, got {self.margin}")


@dataclass(frozen=True)
class MixedModel:
    """Heston component plus an optional independent jump component.

    `jumps=None` means the pure diffusion model (the zero-intensity limit).
    The jump law is used only through its interface (`KouJumpParams` and
    `NIGParams` both provide it): `kind`, `moment_strip()`, `log_mgf(z)`,
    `cgf_derivatives(s)`, `wing_record(wing)`, `price_density(x)` (x a
    scalar or an array), `atom_mass`, `density_jumps_at_one` (whether
    `price_density` may jump at x = 1), `sample_factors(stream, size)` and
    `martingale_drift()`. A model is just its two factors: each wing record
    of either is formed when its wing is read, from that wing's constants only.
    """

    heston: HestonParams
    jumps: KouJumpParams | NIGParams | None = None

    def __post_init__(self):
        if self.jumps is not None and abs(self.jumps.t - self.heston.t) > 1e-12 * max(1.0, self.heston.t):
            raise DomainError(
                f"component horizons differ: diffusion t={self.heston.t}, jumps t={self.jumps.t}"
            )

    @property
    def jump_kind(self) -> str | None:
        return None if self.jumps is None else self.jumps.kind

    @property
    def t(self) -> float:
        return self.heston.t

    @property
    def x0(self) -> float:
        return self.heston.x0

    def log_moment(self, z):
        """log E[X_t^z] of the mixed price; product law adds the exponents.

        z is a complex scalar or a numpy array of them (elementwise result).
        """
        total = _heston.log_mgf(self.heston, z)
        if self.jumps is not None:
            total += self.jumps.log_mgf(z)
        return total

    def cgf_derivatives(self, s):
        """K(s) = log E[X_t^s] and K'(s), K''(s) at real s (scalar or array) in the strip."""
        K, K1, K2 = _heston.cgf_derivatives(self.heston, s)
        if self.jumps is None:
            return K, K1, K2
        J, J1, J2 = self.jumps.cgf_derivatives(s)
        return K + J, K1 + J1, K2 + J2

    def moment_strip(self) -> tuple[float, float]:
        """Open interval of moment orders with E[X_t^s] finite."""
        cm = _heston.critical_moments(self.heston)
        lo, hi = cm.s_minus, cm.s_plus
        if self.jumps is not None:
            jump_lo, jump_hi = self.jumps.moment_strip()
            lo, hi = max(lo, jump_lo), min(hi, jump_hi)
        return lo, hi

    def jump_moment(self, s: float) -> float:
        """Moment of order s of the jump factor (atom included for Kou), by `moment_from_log`."""
        return 1.0 if self.jumps is None else moment_from_log(self.jumps.log_mgf(complex(s)).real, s)


def classify_wing(model: MixedModel, wing: str) -> WingRegime:
    """Dominance classification on one wing; equality of exponents is refused.

    Large wing: the mixed density decays like x^(-e) with e the smaller of
    the diffusion power A3 and the jump power; the component attaining the
    smaller power dominates. Small wing: densities grow like x^(+e) with the
    smaller exponent dominating likewise. The powers are read off the moment
    strips (lo, hi), Heston's (s-, s+) and the jump law's: hi + 1 at infinity
    and -(lo + 1) at zero.
    """
    side_of(wing)  # refuses an unknown wing
    if model.jumps is None:
        return WingRegime(wing=wing, dominant=DOMINANT_DIFFUSION, margin=math.inf)
    cm = _heston.critical_moments(model.heston)
    jump_lo, jump_hi = model.jumps.moment_strip()
    if wing == WING_LARGE:
        diff_exp, jump_exp = cm.s_plus + 1.0, jump_hi + 1.0
    else:
        diff_exp, jump_exp = -(cm.s_minus + 1.0), -jump_lo - 1.0
    gap = diff_exp - jump_exp
    scale = max(1.0, abs(diff_exp), abs(jump_exp))
    if abs(gap) <= DEGENERACY_RTOL * scale:
        raise DegenerateRegimeError(
            f"{wing} wing is degenerate: competing exponents coincide "
            f"(diffusion {diff_exp:.12g} vs jump {jump_exp:.12g}); the moment in the "
            "would-be prefactor is infinite and no leading-term formula exists"
        )
    dominant = DOMINANT_JUMP if jump_exp < diff_exp else DOMINANT_DIFFUSION
    return WingRegime(wing=wing, dominant=dominant, margin=abs(gap))


def mixed_asymptote(model: MixedModel, wing: str) -> TailAsymptote:
    """Leading term of the mixed density on one wing (x -> inf or x -> 0).

    The Mellin transfer rule `convolve_asymptote` applied to the dominant
    component's wing record, the co-factor's moment strip and its moment of
    order -rho - 1, where rho is the record's Mellin point (-r3 at infinity,
    +r3 at zero). Jump-dominant: the jump record times a diffusion moment.
    Diffusion-dominant: the diffusion record times a jump-factor moment.
    """
    regime = classify_wing(model, wing)
    if model.jumps is None:
        return _heston.wing_record(model.heston, wing)
    if regime.dominant == DOMINANT_JUMP:
        record, cm = model.jumps.wing_record(wing), _heston.critical_moments(model.heston)
        strip, moment = (cm.s_minus, cm.s_plus), lambda s: _heston.mgf(model.heston, s)
    else:
        record, strip, moment = _heston.wing_record(model.heston, wing), model.jumps.moment_strip(), model.jump_moment
    return convolve_asymptote(record, strip, moment(-record.mellin_point - 1.0))


DENSITY_TOL = Tolerance(rel=1e-8, abs=1e-14)

# The price of the diffusion factor is F * Y, with F = x0 e^(mu t) its forward
# and Y the price of the same Heston law with mu = 0 and x0 = 1, its shape. The
# density of Y at convolution nodes t is memoized by shape, so models that
# differ only in drift or spot share it. mellin_convolve places a point's nodes
# on the unit panels of log t that its span and sweep take, with the same bits
# whichever takes a panel, and on their halves where the integrator bisects,
# except for a jump law whose density may jump at 1 (Kou): then the 42 nodes of
# the two panels beside log x move with x. So each shape is inverted about once
# per node, and a smooth law's (NIG) point inverts nothing once earlier points
# have taken all of its panels. At most MEMO_MODELS shapes are kept, the least
# recently used dropped first, and at most MEMO_NODES nodes per shape: a shape's
# memo is emptied before it would grow past that, and keeps nothing of a call
# with more new nodes. A full shape holds about 1.5 MB (float keys and values in
# a dict), so the memo stays below about 6 MB. New nodes are inverted MEMO_CHUNK
# at a time: a first point's 1,030 in one batch (when every span reached
# |log t| = 24; a first point takes 378 to 442 now) raised the peak resident
# memory by about 3 MB. A value never depends on the memo's state: the
# inversion of a point does not depend on the other points of its batch (see
# `window_sweep` and `integrate`). One lock guards the memo and is held through
# an inversion, so threads on one shape invert each node once.
MEMO_MODELS = 4
MEMO_NODES = 2**13
MEMO_CHUNK = 128
_DIFFUSION_MEMO: OrderedDict[HestonParams, dict[float, float]] = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _diffusion_density(shape: HestonParams):
    """The density of the pure diffusion model on the Heston shape `shape` (mu = 0, x0 = 1)
    as an array callable read through its memo."""
    from . import oracles  # local import: oracles depends on this module

    with _MEMO_LOCK:
        memo = _DIFFUSION_MEMO.pop(shape, {})
        _DIFFUSION_MEMO[shape] = memo
        if len(_DIFFUSION_MEMO) > MEMO_MODELS:
            _DIFFUSION_MEMO.popitem(last=False)
    pure = MixedModel(heston=shape)

    def density(t: np.ndarray) -> np.ndarray:
        keys = t.ravel().tolist()
        with _MEMO_LOCK:
            new = sorted(set(keys).difference(memo))
            fresh = {}
            for start in range(0, len(new), MEMO_CHUNK):
                chunk = new[start:start + MEMO_CHUNK]
                fresh.update(zip(chunk, oracles.density_fourier(pure, np.array(chunk)).tolist()))
            values = np.array([memo[y] if y in memo else fresh[y] for y in keys]).reshape(t.shape)
            if len(memo) + len(fresh) > MEMO_NODES:
                memo.clear()
            if len(fresh) <= MEMO_NODES:
                memo.update(fresh)
        return values

    return density


# a factor's bulk: the mean of its log -/+ BULK_SDS standard deviations
BULK_SDS = 3.0
_LOG_NORMAL_DOUBLES = (math.log(sys.float_info.min), math.log(sys.float_info.max))


@lru_cache(maxsize=64)
def _bulks(shape: HestonParams, jumps) -> tuple[tuple[float, float], tuple[float, float]]:
    """The bulks of log Y, Y the diffusion shape, and of log J, J the jump factor,
    from their cumulants at 0."""
    def bulk(_, mean, var):
        half = BULK_SDS * math.sqrt(float(var))
        return float(mean) - half, float(mean) + half

    return bulk(*_heston.cgf_derivatives(shape, 0.0)), bulk(*jumps.cgf_derivatives(0.0))


def _cover(shape: HestonParams, jumps, x: float, log_z: float) -> tuple[float, float]:
    """The interval of v = log t that the convolution span of the point z = x/F
    covers: 0, log z, the bulk of log Y and the bulk of log z - log J. Refuses,
    naming the point, the cover and the end's factor, a cover whose nodes (the
    span and one sweep call each way) would put t or z/t outside the normal doubles."""
    (y_lo, y_hi), (j_lo, j_hi) = _bulks(shape, jumps)
    ends = {"0 and log z": (min(0.0, log_z), max(0.0, log_z)), "the diffusion shape's bulk of log Y": (y_lo, y_hi),
            "the jump factor's bulk of log z - log J": (log_z - j_hi, log_z - j_lo)}
    low_by, high_by = min(ends, key=lambda k: ends[k][0]), max(ends, key=lambda k: ends[k][1])
    cover = ends[low_by][0], ends[high_by][1]
    least, most = _LOG_NORMAL_DOUBLES
    for side, v, by in (("low", math.floor(cover[0]) - SWEEP_WINDOWS, low_by),
                        ("high", math.ceil(cover[1]) + SWEEP_WINDOWS, high_by)):
        if not (least <= v <= most and least <= log_z - v <= most):
            raise DomainError(f"mixed_density at x={x}: the convolution cover [{cover[0]:.6g}, {cover[1]:.6g}] "
                              f"of log t, its {side} end set by {by}, puts nodes at log t = {v}, where t or "
                              f"x/(F t) is not a normal double (log z = {log_z:.6g})")
    return cover


def mixed_density(model: MixedModel, x: float) -> float:
    """Exact mixed density by quadrature composition (oracle grade, not asymptote).

    With F the forward of the Heston part and g_Y the density of its shape
    (the same law with mu = 0 and x0 = 1; Fourier inverted, through the memo
    of the shape), the density at x is g_Y(x/F) / F for the pure diffusion.
    With jumps it is [(f * g_Y)(x/F) + atom * g_Y(x/F)] / F: the
    multiplicative convolution, to DENSITY_TOL, of the jump price density f
    with g_Y, plus the atom-weighted g_Y when the jump law has an atom at 1
    (Kou). The convolution's span covers 0, log(x/F) and the bulks (mean -/+
    BULK_SDS sd, from the cumulants at 0) of log Y and of log(x/F) - log J.
    Refuses an x whose x/F is not a normal double, and a point whose cover
    would take the convolution's nodes past the normal doubles.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"mixed_density requires finite x > 0, got {x}")
    forward = model.heston.forward
    z = x / forward
    if not sys.float_info.min <= z < math.inf:
        raise DomainError(f"mixed_density at x={x}: x / forward = {z} is outside the normal double range "
                          f"(forward x0 e^(mu t) = {forward})")
    shape = replace(model.heston, mu=0.0, x0=1.0)
    diffusion = _diffusion_density(shape)
    jumps = model.jumps
    if jumps is None:
        return float(diffusion(np.array([z]))[0]) / forward
    cover = _cover(shape, jumps, x, math.log(z))
    conv = mellin_convolve(jumps.price_density, diffusion, z, DENSITY_TOL, jumps.density_jumps_at_one, cover)
    if jumps.atom_mass:
        conv += jumps.atom_mass * float(diffusion(np.array([z]))[0])
    return conv / forward
