"""Exception types shared across the package."""


class MemKernelError(Exception):
    """Base class for all package-specific failures."""


class ExpressionSyntaxError(MemKernelError, ValueError):
    """Raised by the expression parser; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(MemKernelError, ArithmeticError):
    """Division by zero or non-finite result while evaluating an expression."""


class AlphaDegenerate(MemKernelError):
    """The sensor/initial-data pairing integral is numerically zero."""


class PsiDegenerate(MemKernelError):
    """The sensor moment at the right endpoint is numerically zero."""


class BoundaryIncompatible(MemKernelError):
    """Initial data violate the clamped condition at the left endpoint."""


class CompatibilityFailed(MemKernelError):
    """Measurement data fail the initial-time consistency identities."""

    def __init__(self, report):
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"compatibility checks failed: {failed}")
        self.report = report


class NoConvergence(MemKernelError):
    """Fixed-point iteration did not contract within the allowed iterations.

    ``reason`` is ``"budget"`` when the iteration limit ran out and
    ``"diverged"`` when the distances blew up first.
    """

    def __init__(self, iterations, last_ratio, window=None, reason="budget"):
        where = f" in window {window}" if window is not None else ""
        super().__init__(
            f"no convergence after {iterations} iterations{where} "
            f"(last ratio {last_ratio:.3g}); window is too long"
        )
        self.iterations = iterations
        self.last_ratio = last_ratio
        self.window = window
        self.reason = reason


class NonFinite(MemKernelError):
    """A marching solution or iterate produced inf/nan values."""

    def __init__(self, context, step=None):
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"non-finite values in {context}{at}")
        self.context = context
        self.step = step


class ConfigError(MemKernelError, ValueError):
    """Invalid or inconsistent run configuration."""
