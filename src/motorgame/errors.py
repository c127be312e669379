"""Exception types shared across the package."""


class MotorGameError(Exception):
    """Base class for all package errors."""


class ContractViolationError(MotorGameError):
    """An operation was called outside its contract (bad design point,
    step after episode end, mismatched shapes, ...)."""


class TextFormatError(MotorGameError):
    """A text file could not be parsed; ``line`` is the 1-based line
    number of the fault when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedCatalogError(TextFormatError):
    """A catalog file could not be parsed."""


class CatalogVersionError(MotorGameError):
    """A catalog file declares an unsupported format version."""


class GenerationExhaustedError(MotorGameError):
    """Variant sampling failed to produce a feasible variant; the target
    bands are most likely misconfigured."""


class CheckpointVersionError(MotorGameError):
    """A checkpoint file declares an unsupported format version."""


class CheckpointFormatError(TextFormatError):
    """A checkpoint file could not be parsed."""


class TrainingDivergedError(MotorGameError):
    """Training produced non-finite losses or gradients."""

    def __init__(self, message: str, update_index: int | None = None):
        self.update_index = update_index
        if update_index is not None:
            message = f"update {update_index}: {message}"
        super().__init__(message)
