"""Mixed model: an independent product of a Heston price factor and a jump
factor (double-exponential compound Poisson, or NIG). The density of the
product is the multiplicative convolution of the component densities; each
wing of the mixed density is dictated by whichever component has the heavier
tail there, with equality of exponents a refused degenerate case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import heston as _heston
from . import kou as _kou
from . import nig as _nig
from .errors import DegenerateRegimeError, DomainError
from .heston import HestonParams, HestonTailConstants
from .kou import KouJumpParams
from .mellin import TailAsymptote
from .nig import NIGParams
from .numerics import Tolerance

__all__ = [
    "WING_LARGE",
    "WING_SMALL",
    "DOMINANT_JUMP",
    "DOMINANT_DIFFUSION",
    "WingRegime",
    "MixedModel",
    "classify",
    "classify_wing",
    "mixed_tail_asymptote",
    "mixed_zero_asymptote",
    "mixed_density",
]

WING_LARGE = "large"
WING_SMALL = "small"
DOMINANT_JUMP = "jump"
DOMINANT_DIFFUSION = "diffusion"


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
    Tail constants of the diffusion part are computed eagerly and stored in
    `derived`; the record is immutable after construction.
    """

    heston: HestonParams
    jumps: KouJumpParams | NIGParams | None = None
    degeneracy_rtol: float = 1e-9
    derived: HestonTailConstants = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.jumps is not None and abs(self.jumps.t - self.heston.t) > 1e-12 * max(1.0, self.heston.t):
            raise DomainError(
                f"component horizons differ: diffusion t={self.heston.t}, jumps t={self.jumps.t}"
            )
        object.__setattr__(self, "derived", _heston.tail_constants(self.heston))

    @property
    def jump_kind(self) -> str | None:
        if self.jumps is None:
            return None
        return "kou" if isinstance(self.jumps, KouJumpParams) else "nig"

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
        if self.jump_kind == "kou":
            total += _kou.log_jump_mgf(self.jumps, z)
        elif self.jump_kind == "nig":
            total += _nig.log_nig_mgf(self.jumps, z)
        return total

    def cgf_derivatives(self, s):
        """K(s) = log E[X_t^s] and K'(s), K''(s) at real s (scalar or array) in the strip."""
        K, K1, K2 = _heston.cgf_derivatives(self.heston, s)
        if self.jump_kind == "kou":
            J, J1, J2 = _kou.jump_cgf_derivatives(self.jumps, s)
        elif self.jump_kind == "nig":
            J, J1, J2 = _nig.nig_cgf_derivatives(self.jumps, s)
        else:
            return K, K1, K2
        return K + J, K1 + J1, K2 + J2

    def moment_strip(self) -> tuple[float, float]:
        """Open interval of moment orders with E[X_t^s] finite."""
        cm = _heston.critical_moments(self.heston)
        lo, hi = cm.s_minus, cm.s_plus
        if self.jump_kind == "kou":
            lo, hi = max(lo, -self.jumps.eta2), min(hi, self.jumps.eta1)
        elif self.jump_kind == "nig":
            lo, hi = max(lo, -self.jumps.alpha), min(hi, self.jumps.alpha)
        return lo, hi

    def jump_moment(self, s: float) -> float:
        """Moment of order s of the jump factor (atom included for Kou)."""
        if self.jumps is None:
            return 1.0
        if self.jump_kind == "kou":
            return _kou.jump_mgf(self.jumps, s)
        return _nig.nig_mgf(self.jumps, s)


def _jump_exponents(model: MixedModel) -> tuple[float, float]:
    """(power at infinity, power at zero) of the jump price density tails."""
    if model.jump_kind == "kou":
        return model.jumps.eta1 + 1.0, model.jumps.eta2 - 1.0
    if model.jump_kind == "nig":
        return model.jumps.alpha + 1.0, model.jumps.alpha - 1.0
    raise DomainError("no jump component present")


def classify_wing(model: MixedModel, wing: str) -> WingRegime:
    """Dominance classification on one wing; equality of exponents is refused.

    Large wing: the mixed density decays like x^(-e) with e the smaller of
    the diffusion power A3 and the jump power; the component attaining the
    smaller power dominates. Small wing: densities grow like x^(+e) with the
    smaller exponent dominating likewise.
    """
    if wing not in (WING_LARGE, WING_SMALL):
        raise DomainError(f"unknown wing {wing!r}")
    if model.jumps is None:
        return WingRegime(wing=wing, dominant=DOMINANT_DIFFUSION, margin=math.inf)
    jump_inf, jump_zero = _jump_exponents(model)
    if wing == WING_LARGE:
        diff_exp, jump_exp = model.derived.A3, jump_inf
    else:
        diff_exp, jump_exp = model.derived.A3t, jump_zero
    gap = diff_exp - jump_exp
    scale = max(1.0, abs(diff_exp), abs(jump_exp))
    if abs(gap) <= model.degeneracy_rtol * scale:
        raise DegenerateRegimeError(
            f"{wing} wing is degenerate: competing exponents coincide "
            f"(diffusion {diff_exp:.12g} vs jump {jump_exp:.12g}); the moment in the "
            "would-be prefactor is infinite and no leading-term formula exists"
        )
    dominant = DOMINANT_JUMP if jump_exp < diff_exp else DOMINANT_DIFFUSION
    return WingRegime(wing=wing, dominant=dominant, margin=abs(gap))


def classify(model: MixedModel) -> tuple[WingRegime, WingRegime]:
    """Regimes at the large and small wings (raises on a degenerate wing)."""
    return classify_wing(model, WING_LARGE), classify_wing(model, WING_SMALL)


def _jump_tail_record(model: MixedModel, wing: str) -> TailAsymptote:
    if model.jump_kind == "kou":
        return _kou.h_tail_asymptote(model.jumps) if wing == WING_LARGE else _kou.h_zero_asymptote(model.jumps)
    return _nig.nig_tail_record(model.jumps) if wing == WING_LARGE else _nig.nig_zero_record(model.jumps)


def mixed_tail_asymptote(model: MixedModel) -> TailAsymptote:
    """Leading term of the mixed density as x -> inf.

    Jump-dominant: the jump tail record scaled by the diffusion moment of
    matching order. Diffusion-dominant: the diffusion tail record scaled by
    the jump-factor moment of order A3 - 1. Both prefactors are the Mellin
    transform of the co-factor at the tail exponent.
    """
    regime = classify_wing(model, WING_LARGE)
    if model.jumps is None:
        return _heston.tail_record(model.heston)
    if regime.dominant == DOMINANT_JUMP:
        record = _jump_tail_record(model, WING_LARGE)
        order = record.r3 - 1.0  # eta1 or alpha
        return record.scaled(_heston.mgf(model.heston, order))
    record = _heston.tail_record(model.heston)
    return record.scaled(model.jump_moment(model.derived.A3 - 1.0))


def mixed_zero_asymptote(model: MixedModel) -> TailAsymptote:
    """Leading term of the mixed density as x -> 0 (mirror of the large wing).

    The diffusion-dominant prefactor uses the jump moment of order -A3t - 1,
    the evaluation point of the underlying Mellin transform. For NIG jumps the
    small-wing formula is obtained by the x <-> 1/x symmetry of the jump law
    rather than stated directly; such records carry a note saying so.
    """
    regime = classify_wing(model, WING_SMALL)
    if model.jumps is None:
        return _heston.zero_record(model.heston)
    note = "extrapolated-by-symmetry" if model.jump_kind == "nig" else ""
    if regime.dominant == DOMINANT_JUMP:
        record = _jump_tail_record(model, WING_SMALL)
        order = -(record.r3 + 1.0)  # -eta2 or -alpha
        out = record.scaled(_heston.mgf(model.heston, order))
    else:
        record = _heston.zero_record(model.heston)
        out = record.scaled(model.jump_moment(-model.derived.A3t - 1.0))
    if note:
        out = out.with_note(note)
    return out


def mixed_density(model: MixedModel, x: float, tol: Tolerance | None = None) -> float:
    """Exact mixed density by quadrature composition (oracle grade, not asymptote).

    Kou: atom-weighted diffusion density plus the multiplicative convolution
    of the diffusion density (Fourier inverted) with the jump density H.
    NIG: full convolution with the closed-form jump density.
    """
    from . import oracles  # local import: oracles depends on this module
    from .mellin import mellin_convolve

    if not x > 0:
        raise DomainError(f"mixed_density requires x > 0, got {x}")
    tol = tol or Tolerance(rel=1e-8, abs=1e-14, max_iter=400)
    pure = MixedModel(heston=model.heston, jumps=None)
    d1 = lambda y: oracles.density_fourier(pure, y)
    if model.jumps is None:
        return d1(x)
    # windowed variable = the diffusion factor (concentrated near t = 1), so
    # the window sweep stays short for any x; the jump density is the smooth
    # co-factor evaluated at x/t
    if model.jump_kind == "kou":
        j = model.jumps
        conv = mellin_convolve(lambda v: _kou.h_density(j, v), d1, x, tol, min_windows=24)
        return j.atom_mass * d1(x) + conv
    return mellin_convolve(lambda v: _nig.nig_price_density(model.jumps, v), d1, x, tol, min_windows=24)
