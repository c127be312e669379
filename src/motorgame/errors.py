"""Exception types, and the integer and count checks shared across the package."""

import numpy as np


def is_int(value) -> bool:
    """An int or a numpy integer; not a bool or a float, though int() takes them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int = 1) -> int:
    """The count rule: ``value`` as an int, if is_int() and at least ``least``."""
    if not is_int(value) or value < least:
        raise ContractViolationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class MotorGameError(Exception):
    """Base class for all package errors."""


class ContractViolationError(MotorGameError):
    """An operation was called outside its contract (bad design point,
    step after episode end, mismatched shapes, ...)."""


class TextFormatError(MotorGameError):
    """A catalog, checkpoint, config or metrics file could not be parsed;
    the file's ``path`` and the 1-based ``line``
    locate the fault when known, and prefix the message as ``PATH:LINE: ``."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path, self.line = path, line
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class GenerationExhaustedError(MotorGameError):
    """Variant sampling failed to produce a feasible variant; the target
    bands are most likely misconfigured."""


class TrainingDivergedError(MotorGameError):
    """Training produced non-finite losses or gradients; ``train`` sets the
    index of the update that diverged."""

    update_index: int | None = None
