"""Exception taxonomy shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant (non-finite values, bad ranges)."""


class ShapeMismatchError(ValidationError):
    """Two latent-shaped quantities do not share the same shape."""


class ConfigurationError(ValueError):
    """The run configuration is incomplete or inconsistent (missing extractor,
    unset endpoint, invalid variant, ...)."""


class TrajectoryError(RuntimeError):
    """A sampling trajectory failed; carries the step index where it happened."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class SuiteFormatError(ValueError):
    """A benchmark suite file is malformed; names the offending item and field."""

    def __init__(self, message: str, item: object = None, field: str | None = None):
        loc = ""
        if item is not None:
            loc += f" [item {item}]"
        if field is not None:
            loc += f" [field '{field}']"
        super().__init__(message + loc)
        self.item = item
        self.field = field


class TransportError(RuntimeError):
    """A transient transport failure talking to the judge; retryable."""


class VerdictError(RuntimeError):
    """The judge response had no parsable verdict; carries the raw response."""

    def __init__(self, message: str, raw_response: str):
        super().__init__(message)
        self.raw_response = raw_response


class JudgeParseError(VerdictError):
    """The judge trailer parsed but the score was non-integer or out of range."""
