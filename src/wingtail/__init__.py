"""wingtail: sharp tail and implied-volatility wing asymptotics for mixed
stochastic price models (Heston diffusion times an independent jump factor),
with every asymptotic formula cross-checked against quadrature, Fourier
inversion, and Monte Carlo oracles.
"""

from .errors import (
    BracketingError,
    ConvergenceError,
    DegenerateRegimeError,
    DivergenceError,
    DomainError,
    InfinitePriceError,
    InversionError,
    MomentExplosionError,
    NoArbitrageError,
    OracleError,
    RegimeGuardError,
    SearchError,
    WingtailError,
)
from .heston import CriticalMoments, HestonParams, HestonTailConstants
from .kou import CoefficientTable, KouJumpParams
from .mellin import TailAsymptote
from .mixed import MixedModel, WingRegime
from .nig import NIGParams
from .numerics import RngStream, Tolerance
from .oracles import MCResult

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "ConvergenceError",
    "DegenerateRegimeError",
    "DivergenceError",
    "DomainError",
    "InfinitePriceError",
    "InversionError",
    "MomentExplosionError",
    "NoArbitrageError",
    "OracleError",
    "RegimeGuardError",
    "SearchError",
    "WingtailError",
    "CriticalMoments",
    "HestonParams",
    "HestonTailConstants",
    "CoefficientTable",
    "KouJumpParams",
    "TailAsymptote",
    "MixedModel",
    "WingRegime",
    "NIGParams",
    "RngStream",
    "Tolerance",
    "MCResult",
    "__version__",
]
