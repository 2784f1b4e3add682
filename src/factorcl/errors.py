"""Exception types shared across the package, and its one integer test."""

import numbers


def is_int(value) -> bool:
    """Whether ``value`` is an integer (Python's or numpy's) and not a bool.

    A bool is an int to Python, and a float would only fail (or be
    truncated) deep inside stream generation or training.
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(ValueError):
    """Non-finite values or a numerically undefined operation."""


class DataError(ValueError):
    """Malformed sample data, e.g. a label outside the valid range."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class FormatError(ValueError):
    """Corrupt or truncated checkpoint or data file.

    ``offset`` is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingError(RuntimeError):
    """Training diverged.  Carries the task/epoch/step where it happened."""

    def __init__(self, message: str, task: int, epoch: int, step: int):
        super().__init__(f"{message} (task {task}, epoch {epoch}, step {step})")
        self.task = task
        self.epoch = epoch
        self.step = step
