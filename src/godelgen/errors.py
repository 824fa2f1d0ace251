"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class GodelgenError(Exception):
    """Base class for all errors raised by this package."""


class SigSyntaxError(GodelgenError):
    """Signature text could not be parsed."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Diagnostic:
    """One violated validation rule, tied to the declaration that broke it."""

    rule: str      # stable identifier, e.g. "single-index"
    subject: str   # type or constructor name
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.message} [{self.rule}]"


class SigValidationError(GodelgenError):
    """Signature parsed but violates a well-formedness rule."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class TermError(GodelgenError):
    """Term text failed to parse, or a term failed to type-check."""


class CodeOutOfRange(GodelgenError):
    """A code has no preimage in the requested class (finite or empty)."""


class FuelExhausted(GodelgenError):
    """Decoding did not finish within the supplied fuel."""

    def __init__(self, message: str = "fuel exhausted during decode"):
        super().__init__(message)


class NoWellFoundedPlan(GodelgenError):
    """Every candidate tag order left some class without a terminating decode."""

    def __init__(self, failed_classes: list[str]):
        self.failed_classes = list(failed_classes)
        super().__init__(
            "no tag assignment yields a terminating decode for: "
            + ", ".join(self.failed_classes)
        )
