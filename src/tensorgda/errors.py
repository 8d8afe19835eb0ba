"""Exception taxonomy shared by all tensorgda modules.

Each class owns the CLI's exit code for it in ``exit_code``: 2 usage and
configuration, 3 data and files, 4 numeric failures; subclasses inherit it.
"""


class TensorGdaError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class DimensionError(TensorGdaError):
    """Shapes of the operands are inconsistent."""
    exit_code = 3


class InvalidModeError(DimensionError):
    """A mode index is outside the valid range for the tensor."""


class NumericInputError(TensorGdaError):
    """An input contains NaN or infinite entries."""
    exit_code = 4


class ConvergenceError(TensorGdaError):
    """An iterative numeric routine failed to converge."""
    exit_code = 4


class SingularityError(TensorGdaError):
    """A matrix that must be positive definite is not; try a larger ridge."""
    exit_code = 4


class DegenerateModeError(TensorGdaError):
    """All singular values along a mode are zero."""
    exit_code = 4


class ConfigurationError(TensorGdaError):
    """A configuration value is invalid or inconsistent with the data."""
    exit_code = 2


class DatasetError(TensorGdaError):
    """A dataset file or manifest cannot be used."""
    exit_code = 3


class PgmParseError(DatasetError):
    """A PGM file is malformed.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset
