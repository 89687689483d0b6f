"""Exception types shared across the package."""


class QGammaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QGammaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class Overflow(QGammaError, OverflowError):
    """A result exceeds the representable double range."""


class NonConvergence(QGammaError):
    """A psi_q or psi_q^(m) n-series hit the term cap before its stopping rule fired.

    Carries the partial sum and the last error estimate so callers can
    inspect how far the evaluation got.
    """

    def __init__(self, message, partial_value, error_estimate, terms_used):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate
        self.terms_used = terms_used


class BracketFailure(QGammaError):
    """No sign change found within the allowed bracket expansion range."""


class AlphaBelowRoot(QGammaError, ValueError):
    """The shift parameter violates the alpha >= x* hypothesis.

    Carries the offending alpha and the computed root so callers can report
    by how much the hypothesis fails.
    """

    def __init__(self, alpha, root):
        super().__init__(f"alpha={alpha!r} is below the positive root {root!r} of the q-digamma")
        self.alpha = alpha
        self.root = root

