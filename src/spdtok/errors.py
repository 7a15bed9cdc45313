"""Exception types shared across the package, and the one check that turns
a malformed config into one of them.

Every error raised by spdtok code derives from SpdTokError so callers can
catch the whole family with one clause. Numerical routines raise the
specific subclass named in their contract.

Every config dataclass derives from `ConfigFields`, whose `__post_init__`
checks each field against its annotation and its class's `RULES` table, then
runs the class's `cross_check` for the rules that tie fields together. A
`RULES` entry is an interval such as "[0, 1)" that the number, or every
number of a tuple, lies in; a tuple of the allowed values; or, under the key
"len(name)", an interval for the length of the tuple field `name`.
"""

import dataclasses
import functools
import inspect
import math
import types
import typing


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


def checked_seed(seed) -> int:
    """`seed` if it is a non-negative int (not a bool), the seeds numpy's
    generators take; InvalidSpec otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def checked_fields(cls, obj) -> dict:
    """`obj`, a config object read from outside, as keyword arguments of `cls`;
    InvalidSpec unless it is a dict that binds to them."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{cls.__name__} needs a JSON object, got {type(obj).__name__}")
    try:
        inspect.signature(cls).bind(**obj)
    except TypeError as err:
        raise InvalidSpec(f"{cls.__name__}: {err}") from None
    return obj


class ConfigFields:
    """Mixin of the config dataclasses: the typed and ranged check on
    construction (see the module docstring), and the dict round trip."""

    RULES = {}

    def __post_init__(self):
        cls = type(self)
        for name, hint in _field_hints(cls).items():
            value = getattr(self, name)
            try:
                typed = _conform(value, hint)
            except TypeError:
                raise InvalidSpec(f"{cls.__name__}.{name}={value!r}: "
                                  f"not {inspect.formatannotation(hint)}") from None
            object.__setattr__(self, name, typed)  # frozen classes too
        for key, rule in cls.RULES.items():
            name = key[4:-1] if key.startswith("len(") else key
            value = getattr(self, name)
            if name != key:
                ok, why = _inside(len(value), rule), "length outside"
            elif isinstance(rule, str):
                ok, why = all(_inside(x, rule) for x in _numbers(value)), "outside"
            else:
                ok, why = value in rule, "not one of"
            if not ok:
                raise InvalidSpec(f"{cls.__name__}.{name}={value!r}: {why} {rule}")
        self.cross_check()

    def cross_check(self):
        """InvalidSpec unless the fields agree with each other."""

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj):
        """`cls` built from a config object read from outside, nested configs too."""
        kwargs = dict(checked_fields(cls, obj))
        for name, hint in _field_hints(cls).items():
            if name in kwargs and isinstance(hint, type) and issubclass(hint, ConfigFields):
                kwargs[name] = hint.from_dict(kwargs[name])
        return cls(**kwargs)


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _conform(value, hint):
    """`value` as the annotated type `hint`, with lists made tuples; TypeError
    unless it is one. JSON `true` is no int, an int is a float as it stands,
    and a float must be finite."""
    if hint is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and _finite(value)
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif typing.get_origin(hint) in (typing.Union, types.UnionType):
        for option in typing.get_args(hint):
            try:
                return _conform(value, option)
            except TypeError:
                pass
        ok = False
    elif typing.get_origin(hint) is tuple:  # tuple[item, ...]
        if not isinstance(value, (tuple, list)):
            raise TypeError
        item = typing.get_args(hint)[0]
        return tuple(_conform(v, item) for v in value)
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise TypeError
    return value


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _numbers(value) -> list:
    return [x for v in value for x in _numbers(v)] if isinstance(value, tuple) else [value]


@functools.cache
def _bounds(interval: str) -> tuple:
    return tuple(float(b) for b in interval[1:-1].split(","))


def _inside(x, interval: str) -> bool:
    """Whether `x` lies in `interval`, written "[lo, hi)" and the like."""
    lo, hi = _bounds(interval)
    return ((lo <= x) if interval[0] == "[" else (lo < x)) and \
        ((x <= hi) if interval[-1] == "]" else (x < hi))
