"""Key-schedule material: reseeding LFSR streams and block permutations.

Bit-order format constants (fixed for interoperability): LFSR state is an
unsigned integer of gamma bits, the output bit is the least significant
state bit, and the feedback taps are the low-degree coefficients of the
feedback polynomial.  Each permutation stream is seeded by one gamma-bit
value of the key field t (``CipherParams.secret_fields`` gives its layout).

Every stream emits many bits per Python operation and seeks to any
position in O(log t) multiplications:

- Stepping.  ``Lfsr.advance(k)`` emits length - deg(taps) bits per word
  with one shift-XOR per tap (56 bits for the d = 61 control register).
  Past four words it uses the power series instead: the output is
  P(x)/c*(x), where c* is the reciprocal of the characteristic polynomial
  and P, of degree below the length, is the state times c* truncated, so
  k bits and the next state come from one carry-less product of P with a
  cached prefix of 1/c* (the 258-bit error vector of the 9-bit register
  in one product instead of 52 words).
- Jumping.  ``Lfsr.jump(k)`` applies r = x^k mod c(x) to the next
  2*length - 1 output bits (Haramoto, Matsumoto, Nishimura, Panneton &
  L'Ecuyer, "Efficient Jump Ahead for F2-Linear Random Number Generators",
  INFORMS J. Computing 2008); short jumps just advance.  ``ReseedingLfsr.seek(t)`` jumps the
  companion register to the segment holding bit t and the main register to
  its phase.
- Permutations.  Each permutation of a ``PermutationStream`` is a rotation
  of one sequence: the accepted values in the order one cycle of the
  gamma-bit register visits them.  That ring is cached per (q, gamma,
  taps); ``next_perm()`` returns a slice of it and ``seek(j)`` sets the
  cycle position.  Every draw is a permutation by construction:
  ``_permutation_ring`` checks once per ring that the walk visits every
  nonzero state once, so ``BlockPermutation`` does not re-check a frame.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .bitmat import poly_to_bits
from .errors import InvalidParams, ZeroSeedSlice


@functools.lru_cache(maxsize=64)
def _feedback(length: int, taps: int):
    """(c*, tap exponents, word) for the characteristic c(x) = x^length + taps(x).

    c*(x) = x^length c(1/x) is its reciprocal; word is the number of
    feedback bits that depend only on the current state.
    """
    recip = gf2poly.reverse((1 << length) | taps, length)
    tap_list = tuple(i for i in range(length) if taps >> i & 1)
    return recip, tap_list, length - max(taps.bit_length() - 1, 0)


# Measured crossovers at lengths 9 and 61: past four words one series
# product is cheaper than word stepping, and advance(k), whose cost grows
# with k * length, is cheaper than x^k mod c(x) below k * length = 2^21.
_SERIES_AFTER_WORDS = 4
_JUMP_BY_ADVANCE_BELOW = 1 << 21


class Lfsr:
    """Fibonacci LFSR over GF(2) with integer state.

    One step: output = state & 1; feedback = parity(state & taps);
    next state = (state >> 1) | (feedback << (length - 1)).
    The output s obeys s[i + length] = sum of s[i + k] over the taps k, so
    its characteristic polynomial is c(x) = x^length + taps(x).  A
    primitive feedback polynomial gives period 2^length - 1 through all
    nonzero states.
    """

    __slots__ = ("length", "taps", "state", "_mask", "_recip", "_tap_list", "_word")

    def __init__(self, length: int, poly: int, seed: int):
        if length < 1:
            raise InvalidParams("LFSR length must be >= 1")
        mask = (1 << length) - 1
        if seed & mask == 0:
            raise InvalidParams("LFSR seed must be nonzero")
        self.length = length
        self.taps = poly & mask
        self.state = seed & mask
        self._mask = mask
        self._recip, self._tap_list, self._word = _feedback(length, self.taps)

    def _output(self, nbits: int) -> int:
        """The next ``nbits`` output bits, first least significant; no step."""
        s = self.state
        p = s  # P = state * c* mod x^length, with c* = 1 + sum of x^(length - t)
        for t in self._tap_list:
            if t:
                p ^= s << (self.length - t)
        p &= self._mask
        inv = gf2poly.inverse_series(self._recip, 1 << (nbits - 1).bit_length())
        seq = 0
        while p:
            low = p & -p
            seq ^= inv << (low.bit_length() - 1)
            p ^= low
        return seq & ((1 << nbits) - 1)

    def advance(self, k: int) -> int:
        """Take ``k`` steps and return their output bits, first least significant."""
        if k > _SERIES_AFTER_WORDS * self._word:
            seq = self._output(k + self.length)
            self.state = seq >> k  # the state is the next `length` output bits
            return seq & ((1 << k) - 1)
        out = pos = 0
        while pos < k:
            w = min(self._word, k - pos)
            s = self.state
            fb = 0
            for t in self._tap_list:
                fb ^= s >> t
            low = (1 << w) - 1
            out |= (s & low) << pos
            self.state = (s >> w) | ((fb & low) << (self.length - w))
            pos += w
        return out

    def jump(self, k: int) -> None:
        """Take ``k`` steps in O(log k) multiplications, discarding the output."""
        if k < 0:
            raise InvalidParams("cannot jump an LFSR backwards")
        if k * self.length < _JUMP_BY_ADVANCE_BELOW:
            self.advance(k)
            return
        r = gf2poly.xpowmod(k, (1 << self.length) | self.taps)
        ahead = self._output(2 * self.length - 1)
        state = 0
        while r:
            low = r & -r
            state ^= ahead >> (low.bit_length() - 1)
            r ^= low
        self.state = state & self._mask


class ReseedingLfsr:
    """LFSR whose seed is refreshed from a companion LFSR each period.

    The main register (polynomial q) emits bits; after every 2^l1 - 1
    output bits the companion register (polynomial p) steps once and its
    state replaces the main state.  With q and p primitive the companion
    walks the main register through all 2^l1 - 1 nonzero seeds, so the
    joint state first recurs after exactly (2^l1 - 1)^2 output bits.
    """

    def __init__(self, length: int, q_poly: int, p_poly: int, seed: int):
        self.main = Lfsr(length, q_poly, seed)
        self.companion = Lfsr(length, p_poly, seed)
        self.seed = self.main.state
        self.segment = (1 << length) - 1
        self.phase = 0

    def next_bits(self, count: int) -> np.ndarray:
        acc = pos = 0
        while pos < count:
            k = min(count - pos, self.segment - self.phase)
            acc |= self.main.advance(k) << pos
            pos += k
            self.phase += k
            if self.phase == self.segment:
                self.phase = 0
                self.companion.advance(1)
                self.main.state = self.companion.state
        return poly_to_bits(acc, count)

    def seek(self, t: int) -> None:
        """Position the stream at output bit ``t`` (0 = first bit after seeding)."""
        if t < 0:
            raise InvalidParams("stream position must be >= 0")
        reseeds, self.phase = divmod(t, self.segment)
        self.companion.state = self.seed
        self.companion.jump(reseeds)
        self.main.state = self.companion.state
        self.main.jump(self.phase)


@functools.lru_cache(maxsize=32)
def _permutation_ring(q: int, gamma: int, taps: int):
    """Every permutation a stream over (q, gamma, taps) can draw.

    Walk one period of the register from state 1.  ``ring`` holds, twice
    over, the accepted values (state - 1 < q) in the order the walk visits
    them; the draw from cycle position i is ``ring[offset[i]:offset[i] + q]``,
    and ``position[s]`` is the cycle position of state s.
    """
    period = (1 << gamma) - 1
    walk = Lfsr(gamma, taps, 1).advance(period + gamma)
    windows = np.lib.stride_tricks.sliding_window_view(
        poly_to_bits(walk, period + gamma), gamma
    )
    states = windows @ (1 << np.arange(gamma))
    if states[period] != 1 or np.unique(states[:period]).size != period:
        raise InvalidParams(f"permutation polynomial is not primitive of degree {gamma}")
    states = states[:period]
    accepted = np.flatnonzero(states <= q)
    if accepted.size < q:
        raise InvalidParams(f"q={q} exceeds the LFSR state range 2^{gamma}-1")
    ring = np.tile(states[accepted] - 1, 2)
    ring.flags.writeable = False
    offset = tuple(np.searchsorted(accepted, np.arange(period)).tolist())
    position = np.zeros(1 << gamma, dtype=np.int64)
    position[states] = np.arange(period)
    position.flags.writeable = False
    return ring, offset, position


class PermutationStream:
    """Stream of permutations of {0..q-1}, one per LFSR initial value.

    A draw runs a throwaway LFSR from the current initial value and maps
    visited states to values s - 1, discarding those >= q; one period of a
    primitive gamma-bit LFSR visits every nonzero state once, so exactly q
    values are accepted within 2^gamma - 1 steps, duplicates cannot occur,
    and the accepted order defines the permutation.  After each draw the
    persistent register steps once, so consecutive frames use consecutive
    initial values and the permutation sequence has period 2^gamma - 1.

    Draws come from the cached ring of ``_permutation_ring``, so they are
    read-only views that stay valid for the life of the process.
    """

    def __init__(self, q: int, seed: int, gamma: int, poly: int):
        mask = (1 << gamma) - 1
        if seed & mask == 0:
            raise ZeroSeedSlice("permutation seed slice is all-zero")
        self.q = q
        self._ring, self._offset, position = _permutation_ring(q, gamma, poly & mask)
        self._period = mask
        self._start = int(position[seed & mask])
        self.pos = self._start

    def next_perm(self) -> np.ndarray:
        off = self._offset[self.pos]
        self.pos += 1
        if self.pos == self._period:
            self.pos = 0  # next frame draws from the next initial value
        return self._ring[off : off + self.q]

    def seek(self, j: int) -> None:
        """Position the stream at draw ``j`` (0 = the draw from the seed)."""
        self.pos = (self._start + j) % self._period


class BlockPermutation:
    """Block-diagonal permutation: v independent q-blocks.

    Unchecked: each block must be a permutation of 0..q-1, as every
    ``PermutationStream`` draw is (``_permutation_ring`` checks the walk).
    """

    def __init__(self, q: int, perms):
        blocks = np.asarray(perms, dtype=np.int64)
        fwd = (blocks + np.arange(0, blocks.size, q)[:, None]).ravel()
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(fwd.size)
        self.n = fwd.size
        self._fwd, self._inv = fwd, inv

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        return x[self._fwd]

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        return y[self._inv]
