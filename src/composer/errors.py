"""Exception hierarchy shared across the package, and the exact-type checks
the JSON artifact loaders run on every field they read (a missing field, an
unknown one, a wrongly typed one and a malformed packed float array are
ParseErrors)."""

import base64
import binascii
import math
from contextlib import contextmanager
from itertools import accumulate

import numpy as np


class ComposerError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ComposerError):
    """Malformed input text (FCIDUMP or JSON artifact)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ComposerError):
    """Input violates a documented precondition."""


class NotPSDError(ComposerError):
    """Two-electron supermatrix is not positive semidefinite."""


class DegenerateGapError(ComposerError):
    """Orbital-energy denominator too small for perturbative amplitudes."""


class NormalizationError(ComposerError):
    """Coefficient vector is not normalized to tolerance."""


class ShapeError(ComposerError):
    """Array dimensions inconsistent with the declared register sizes."""


class CapacityError(ComposerError):
    """Branch count exceeds the selector register capacity."""


class MaskError(ComposerError):
    """Mask indices do not address a valid generator pool."""


class BindError(ComposerError):
    """Dial-stage pool does not fit the compiled skeleton."""

    def __init__(self, message, addresses=()):
        if addresses:
            message = f"{message} (addresses: {sorted(addresses)})"
        super().__init__(message)
        self.addresses = tuple(addresses)


class SectorError(ComposerError):
    """Model-space state lies outside the fixed particle-number sector."""


class RankError(ComposerError):
    """Requested subspace rank exceeds the available numerical rank."""


class ZeroTensorError(ComposerError):
    """Operation undefined on an identically zero tensor."""


class SpectralBoundError(ComposerError):
    """Matrix argument exceeds the unit spectral-norm domain."""


class DegenerateBasisError(ComposerError):
    """All overlap-matrix eigenvalues fall below the regularization cut."""


# exact JSON value types: a bool is not an int and an int is not a string;
# a number must be a finite float (``json`` reads NaN and Infinity, strict JSON
# has neither, and an int may be too large for a float)
INT = (int,)
NUMBER = (int, float)
STR = (str,)
LIST = (list,)
DICT = (dict,)


def checked(value, kinds, what):
    """``value`` if its exact type is one of ``kinds``; else a ParseError."""
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ParseError(f"{what} must be {names}, not {type(value).__name__}")
    if type(value) in NUMBER and float in kinds:
        _check_finite([value], what)
    return value


def checked_list(value, kinds, what):
    """A JSON list whose entries all have one of the exact types ``kinds``."""
    checked(value, LIST, what)
    types = set(map(type, value))
    bad = types.difference(kinds)
    if bad:
        names = " or ".join(k.__name__ for k in kinds)
        raise ParseError(
            f"{what} entries must be {names}, not {min(t.__name__ for t in bad)}"
        )
    if float in kinds:
        _check_finite(value, f"{what} entries")
    return value


def checked_keys(doc, keys, what):
    """A ParseError naming a key of ``doc`` outside ``keys``, if it holds one."""
    if not doc.keys() <= keys:
        raise ParseError(f"{what} has unknown field {min(doc.keys() - keys)!r}")


def checked_packed(value, what):
    """A float64 array from its standard base64 of little-endian bytes.

    A ParseError unless ``value`` is a string of canonical base64 that
    decodes to whole 8-byte values, every one finite.
    """
    values, _ = checked_packed_batch([(value, what)])
    return values


def checked_packed_batch(fields):
    """``(values, bounds)``: every ``(value, what)`` field decoded as one array.

    Each field is checked as :func:`checked_packed` checks one; field ``k``
    is ``values[bounds[k]:bounds[k + 1]]``.  The bytes are joined and read
    with one ``frombuffer`` and checked with one finiteness test, so the
    slices are views of one read-only buffer.
    """
    raws = [_packed_bytes(value, what) for value, what in fields]
    values = np.frombuffer(b"".join(raws), "<f8")
    bounds = [0, *accumulate(len(raw) // 8 for raw in raws)]
    if not np.isfinite(values).all():
        for (_, what), start, stop in zip(fields, bounds, bounds[1:]):
            _check_finite(values[start:stop].tolist(), f"{what} entries")
    return values, bounds


def _packed_bytes(value, what):
    """The bytes of one packed field: canonical base64 of whole float64 values.

    Canonical: re-encoding the bytes gives ``value`` back, which refuses
    what a lenient decoder skips, such as a stray ``=`` after a full quad
    or nonzero bits after the last byte.  A strict decode leaves only the
    last quad in question (it refuses padding before the end and any
    character off the alphabet), so the length and that quad, re-encoded
    from the last one to three bytes, are checked without encoding the
    whole field again.  A refused value is decoded again strictly, only to
    say what is wrong with it.
    """
    checked(value, STR, what)
    try:
        raw = binascii.a2b_base64(value, strict_mode=True)
        tail = raw[-(len(raw) % 3 or 3):]
        canonical = len(value) == 4 * -(-len(raw) // 3) and (
            binascii.b2a_base64(tail, newline=False) == value[-4:].encode()
        )
    except ValueError:  # binascii.Error, or a non-ASCII character
        canonical = False
    if not canonical:
        try:
            base64.b64decode(value, validate=True)
        except ValueError as exc:
            raise ParseError(f"{what} must be strict base64: {exc}") from None
        raise ParseError(
            f"{what} must be strict base64: not the canonical encoding of its bytes"
        )
    if len(raw) % 8:
        raise ParseError(f"{what} holds {len(raw)} bytes, not whole float64 values")
    return raw


@contextmanager
def fields_of(artifact):
    """Loader scope in which a field the document lacks is a ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{artifact} has no field {exc.args[0]!r}") from None


def _check_finite(numbers, what):
    """A ParseError unless every JSON number is a finite float."""
    try:
        if all(map(math.isfinite, numbers)):
            return
        worst = repr(next(v for v in numbers if not math.isfinite(v)))
    except OverflowError:
        worst = "an int too large for a float"
    raise ParseError(f"{what} must be finite, not {worst}")
