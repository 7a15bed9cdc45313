"""Exception types shared across the package, and the one check that turns
a malformed config object into one of them.

Every error raised by spdtok code derives from SpdTokError so callers can
catch the whole family with one clause. Numerical routines raise the
specific subclass named in their contract.
"""

import inspect


class SpdTokError(Exception):
    """Base class for all spdtok errors."""


class NonFinite(SpdTokError):
    """Input or intermediate value contains NaN or Inf."""


class NoConvergence(SpdTokError):
    """Iterative solver failed to reach its tolerance.

    Carries the last iterate and the residual at the point of failure so
    callers can inspect or salvage partial results.
    """

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class DomainError(SpdTokError):
    """Scalar argument outside the mathematical domain (e.g. eigenvalue <= 0)."""


class DimMismatch(SpdTokError):
    """Operands have incompatible dimensions."""


class NotSymmetric(SpdTokError):
    """Matrix fails the symmetry tolerance required by the operation."""


class ShapeMismatch(SpdTokError):
    """Tensor shape does not match what the operation expects."""


class DegenerateBatch(SpdTokError):
    """Batch statistics requested over fewer than two elements."""


class LabelOutOfRange(SpdTokError):
    """Class label outside [0, n_classes)."""


class TooFewSamples(SpdTokError):
    """Covariance estimation needs at least two samples per channel."""


class BandOutOfRange(SpdTokError):
    """Frequency band violates 0 < lo < hi < Nyquist."""


class InvalidSpec(SpdTokError):
    """Dataset or experiment specification is inconsistent."""


class GraphCycle(SpdTokError):
    """Autodiff graph contains a cycle (defensive; should be unreachable)."""


class MissingRun(SpdTokError):
    """Run directory does not contain the expected report files."""


class ContainerError(SpdTokError):
    """Base class for matrix-container I/O failures."""


class BadMagic(ContainerError):
    """File does not start with the container magic bytes."""


class VersionUnsupported(ContainerError):
    """Container version or dtype code is not supported by this reader."""


class TruncatedFile(ContainerError):
    """File ended before the declared payload was fully read."""


class ChecksumMismatch(ContainerError):
    """Stored CRC32 does not match the payload."""


def checked_fields(cls, obj, supplied=()) -> dict:
    """`obj`, a config object read from outside, as keyword arguments of `cls`
    less its `supplied` ones; InvalidSpec unless it is a dict that binds to them."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{cls.__name__} needs a JSON object, got {type(obj).__name__}")
    try:
        inspect.signature(cls).bind(**obj, **dict.fromkeys(supplied))
    except TypeError as err:
        raise InvalidSpec(f"{cls.__name__}: {err}") from None
    return obj
