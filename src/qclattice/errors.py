"""Exception types raised across the package."""


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
