"""Exception types and the integer check shared across the package."""

import numpy as np


def is_int(value) -> bool:
    """An int or a numpy integer; not a bool or a float, though int() takes them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class MotorGameError(Exception):
    """Base class for all package errors."""


class ContractViolationError(MotorGameError):
    """An operation was called outside its contract (bad design point,
    step after episode end, mismatched shapes, ...)."""


class TextFormatError(MotorGameError):
    """A text file could not be parsed; ``path`` and the 1-based ``line``
    locate the fault when known, and prefix the message as ``PATH:LINE: ``."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path, self.line = path, line
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class MalformedCatalogError(TextFormatError):
    """A catalog file could not be parsed."""


class GenerationExhaustedError(MotorGameError):
    """Variant sampling failed to produce a feasible variant; the target
    bands are most likely misconfigured."""


class CheckpointFormatError(TextFormatError):
    """A checkpoint file could not be parsed."""


class TrainingDivergedError(MotorGameError):
    """Training produced non-finite losses or gradients; ``train`` sets the
    index of the update that diverged."""

    update_index: int | None = None
