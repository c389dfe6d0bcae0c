"""Exception types raised across the package, and the one argument check.

Integer arguments (code parameters, L, d, seeds, frame counters) go through
``integer``, real ones (sigma, VNRs, the LLR clip) through ``real``; arrays
of any shape through ``numeric`` (any integer or real dtype: the channel
input), length-n vectors through ``vector`` (``numeric``: observations) or
``int_vector`` (an integer dtype int64 holds: exact maps), whose ``as_array``
refuses a ragged nesting; with ``rows`` they also take a (B, n) block of
frames.  Each checks before any cast, so no entry point
truncates, parses or wraps its input: it raises its own error.
"""

import math
import numbers

import numpy as np


class QclatticeError(Exception):
    """Base class for all package errors."""


class InvalidParams(QclatticeError):
    """Parameter set violates a construction constraint."""


class Singular(QclatticeError):
    """Matrix is not invertible over the required ring."""


class SingularBlock(Singular):
    """Last circulant block of the parity-check matrix is singular."""


class NotInLattice(QclatticeError):
    """Vector has no integer preimage under the requested map."""


class NotLatticePoint(QclatticeError):
    """Vector is not a point of the expected lattice translate."""


class SearchExhausted(QclatticeError):
    """Randomized code search hit its restart budget."""


class ShapingOverflow(QclatticeError):
    """Input exceeds the recoverable shaping window."""


class DecodeFailure(QclatticeError):
    """Iterative decoder failed to reach a valid codeword."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class ZeroSeedSlice(QclatticeError):
    """A permutation seed slice is all-zero and cannot seed an LFSR."""


class ConstellationViolation(QclatticeError):
    """Message coordinate lies outside the transmit constellation."""


class FormatError(QclatticeError):
    """Malformed key, ciphertext or observation file."""


def integer(v, what: str, lo=-math.inf, hi=math.inf, error=InvalidParams) -> int:
    """v as a Python int: an integer type but bool (not 2.0 or "2") in [lo, hi), or raise error."""
    # type(v) is int skips the ABC check, which costs 0.5 us; a bool's type is bool
    if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral))
            or not lo <= v < hi):
        try:
            shown = repr(v)
        except ValueError:  # an int or Fraction past 4,300 digits: its type and size
            shown = f"a {int(v).bit_length()}-bit {type(v).__name__}"
        raise error(f"{what} must be an integer in [{lo}, {hi}), not {shown}")
    return int(v)


def real(v, what: str, lo=-math.inf, hi=math.inf, error=InvalidParams) -> float:
    """v as a Python float: a real type but bool (not "0.5"), finite, in [lo, hi], or raise error."""
    # bounds test the float the message shows (repr(10**5000) raises): lo=math.ulp(0.0) is v > 0
    ok = type(v) is float or not isinstance(v, bool) and isinstance(v, numbers.Real)
    try:
        f = float(v) if ok else math.nan
    except OverflowError:
        f = math.inf
    if not (math.isfinite(f) and lo <= f <= hi):
        raise error(f"{what} must be a finite real in [{lo}, {hi}], not {f if ok else v!r}")
    return f


def as_array(v, what: str, error=InvalidParams) -> np.ndarray:
    """np.asarray(v), or raise error where numpy builds no array (a ragged nesting)."""
    try:
        return np.asarray(v)
    except (TypeError, ValueError) as e:
        raise error(f"{what} is not an array: {e}") from None


def numeric(v, what: str, error=InvalidParams) -> np.ndarray:
    """v as an array of any shape and an integer or real dtype, uncast, or raise error."""
    v = as_array(v, what, error)
    if v.dtype.kind not in "iuf":
        raise error(f"{what} dtype {v.dtype} is not numeric")
    return v


def vector(v, n: int, what: str, error=InvalidParams, rows=False) -> np.ndarray:
    """``numeric`` of shape (n,), or (B, n) when rows, or raise error."""
    v = numeric(v, what, error)
    if v.shape != (n,) and not (rows and v.ndim == 2 and v.shape[1] == n):
        raise error(f"{what} has shape {v.shape}, not ({'B, ' if rows else ''}{n},)")
    return v


def int_vector(v, n: int, what: str, error=InvalidParams, rows=False) -> np.ndarray:
    """``vector`` of an integer dtype int64 holds (not bool or uint64), as int64."""
    v = as_array(v, what, error)
    kind = v.dtype.kind  # int64 holds every signed type and unsigned below 64 bits
    if not (kind == "i" or kind == "u" and v.dtype.itemsize < 8):
        raise error(f"{what} dtype {v.dtype} is not an integer type int64 holds")
    return vector(v, n, what, error, rows).astype(np.int64, copy=False)
