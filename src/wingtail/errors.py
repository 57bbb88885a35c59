"""Exception taxonomy shared by all wingtail modules.

Every domain violation raises a structured error naming the violated
condition; numerical routines never return garbage silently.
"""


class WingtailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WingtailError):
    """Argument outside the mathematical domain of an operation."""


class BracketingError(DomainError):
    """Root finder called without a sign change on the bracket."""


class ConvergenceError(WingtailError):
    """Iteration budget exhausted; carries the best estimate found so far."""

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class DivergenceError(WingtailError):
    """An integral or series was detected to diverge; carries the partial sum reached."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class MomentExplosionError(DomainError):
    """Requested moment order is at or beyond the explosion boundary."""


class InfinitePriceError(DomainError):
    """Call price diverges (tail power exponent at or below 2)."""


class RegimeGuardError(DomainError):
    """Evaluation point is inside the guard region of an asymptotic formula."""


class DegenerateRegimeError(WingtailError):
    """Competing tail exponents coincide; the wing classification is meaningless."""


class NoArbitrageError(DomainError):
    """No drift can make the model a martingale for these parameters."""


class SearchError(WingtailError):
    """A bracketed search failed to locate its target; carries diagnostics."""


class OracleError(WingtailError):
    """An oracle computation (Fourier inversion, quadrature route) failed."""


class InversionError(DomainError):
    """Implied-volatility inversion target outside no-arbitrage bounds."""
