"""Exception hierarchy shared across the package.

CLI exit codes: ConfigError -> 1, DataError family -> 2, NumericalError -> 3.
"""


class MicoError(Exception):
    """Base class for all package errors."""


class ConfigError(MicoError):
    """Invalid configuration or usage."""


class ShapeError(ConfigError):
    """Tensor shapes incompatible with the requested operation."""


class GraphError(ConfigError):
    """Misuse of the autodiff tape (non-scalar loss, repeated backward, ...)."""


class OptimizerError(ConfigError):
    """Optimizer state inconsistent with the parameters (e.g. missing grad)."""


class DataError(MicoError):
    """Invalid or non-finite input data."""


class FileFormatError(DataError):
    """Base class for serialized-file problems."""


class HeaderError(FileFormatError):
    """Bad magic bytes or malformed header."""


class TruncationError(FileFormatError):
    """File shorter than its header promises."""


class ChecksumError(FileFormatError):
    """CRC mismatch over header + payload."""


class UndefinedMetricError(DataError):
    """Metric has no defined value on this input (no comparable pairs, single class)."""


class NumericalError(MicoError):
    """NaN/Inf encountered where finite values are required."""
