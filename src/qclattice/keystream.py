"""Key-schedule material: reseeding LFSR streams and block permutations.

Bit-order format constants (fixed for interoperability): LFSR state is an
unsigned integer of gamma bits, the output bit is the least significant
state bit, and the feedback taps are the low-degree coefficients of the
feedback polynomial, the shipped one of the register's length.  The
permutation stream's v seeds, one per q-block, are the gamma-bit values
of the key field t (``CipherParams.secret_fields`` gives its layout).

Every stream emits many bits per Python operation and draws from any
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
  INFORMS J. Computing 2008); jumps with k * length below 2^18 advance.
  ``ReseedingLfsr.next_bits(t, count)`` returns bits [t, t + count)
  whatever was drawn before: it jumps the companion register to the
  segment holding bit t and the main register to its phase, unless the
  last draw ended at bit t.
- Permutations.  Every q-block is a rotation of one sequence: the
  accepted values in the order one cycle of the gamma-bit register visits
  them.  That ring is cached per (q, gamma, taps), and a block of frames,
  addressed by counter, is one gather from it.  Every draw is a
  permutation by construction: ``_permutation_ring`` checks once per ring
  that the walk visits every nonzero state once, so ``BlockPermutation``
  does not re-check a frame.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly, primitives
from .bitmat import poly_to_bits
from .errors import InvalidParams, ZeroSeedSlice, integer, vector


@functools.lru_cache(maxsize=64)
def _feedback(length: int, taps: int):
    """(c*, tap exponents, word) for the characteristic c(x) = x^length + taps(x).

    c*(x) = x^length c(1/x) is its reciprocal; word is the number of
    feedback bits that depend only on the current state.
    """
    recip = gf2poly.reverse((1 << length) | taps, length)
    tap_list = tuple(i for i in range(length) if taps >> i & 1)
    return recip, tap_list, length - max(taps.bit_length() - 1, 0)


# Measured crossovers: past four words a series product beats word stepping
# (lengths 9, 61).  advance(k), whose cost grows with k * length (and with
# the weight of the state), beats x^k mod c(x) below k * length of about
# 2^19.2, 2^17.3, 2^17.8 and 2^18.2 at lengths 9, 11, 61 and 77, timed on
# the byte-table x^k from states that earlier jumps reached (best of
# 7 x 200).  At 2^19 and length 61: advance 42 us, x^k 21 us.  A walk from
# seed 1, whose state has few set bits, makes advance look cheaper.
_SERIES_AFTER_WORDS = 4
_JUMP_BY_ADVANCE_BELOW = 1 << 18


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
        length = integer(length, "LFSR length", 1)
        poly = integer(poly, "LFSR polynomial", 0, 2 << length)
        seed = integer(seed, "LFSR seed", 0, 1 << length)
        if not seed:
            raise InvalidParams("LFSR seed must be nonzero")
        mask = (1 << length) - 1
        self.length = length
        self.taps = poly & mask
        self.state = seed
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
        k = integer(k, "LFSR step count", 0)
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
        k = integer(k, "LFSR jump length", 0)
        if k * self.length < _JUMP_BY_ADVANCE_BELOW:
            self.advance(k)
            return
        r = gf2poly.xpowmod(k, (1 << self.length) | self.taps)
        ahead = self._output(2 * self.length - 1)
        # state bit j is the parity of r & (ahead >> j): a correlation, so one
        # product with r reversed
        top = self.length - 1
        self.state = (gf2poly.mul(ahead, gf2poly.reverse(r, top)) >> top) & self._mask


class ReseedingLfsr:
    """LFSR whose seed is refreshed from a companion LFSR each period.

    The main register (the shipped polynomial q of degree ``length``) emits
    bits; after every 2^l1 - 1 output bits the companion (its reciprocal p)
    steps once and its state replaces the main state.  With q and p
    primitive the companion walks the main register through all 2^l1 - 1
    nonzero seeds, so the joint state first recurs after (2^l1 - 1)^2 bits.
    ``next_bits(t, count)`` is a pure function of (seed, t, count); the
    registers only record where the last draw ended, so a draw that starts
    there jumps nothing.
    """

    def __init__(self, length: int, seed: int):
        self._main = Lfsr(length, primitives.poly(length), seed)
        self._companion = Lfsr(length, primitives.reciprocal(length), seed)
        self._seed = self._main.state
        self._segment = (1 << self._main.length) - 1
        self._end = 0  # the output bit the registers stand at

    def next_bits(self, t: int, count: int) -> np.ndarray:
        """Output bits [t, t + count) of the stream; bit 0 is the first after seeding."""
        t, count = integer(t, "stream position", 0), integer(count, "bit count", 0)
        if t != self._end:
            reseeds, phase = divmod(t, self._segment)
            self._companion.state = self._seed
            self._companion.jump(reseeds)
            self._main.state = self._companion.state
            self._main.jump(phase)
        acc = pos = 0
        while pos < count:
            k = min(count - pos, self._segment - (t + pos) % self._segment)
            acc |= self._main.advance(k) << pos
            pos += k
            if not (t + pos) % self._segment:
                self._companion.advance(1)
                self._main.state = self._companion.state
        self._end = t + count
        return poly_to_bits(acc, count)


@functools.lru_cache(maxsize=32)
def _permutation_ring(q: int, gamma: int, taps: int):
    """Every permutation a stream over (q, gamma, taps) can draw.

    Walk one period of the register from state 1.  ``windows`` views every
    q consecutive values of the ring that holds, twice over, the accepted
    values (state - 1 < q) in the order the walk visits them.  The draw
    from cycle position i < 2 * period is ``windows[offset[i]]``, and
    ``position[s]`` is the cycle position of state s.
    """
    period = (1 << gamma) - 1
    walk = Lfsr(gamma, taps, 1).advance(period + gamma)
    windows = np.lib.stride_tricks.sliding_window_view(
        poly_to_bits(walk, period + gamma), gamma
    )
    states = windows @ (1 << np.arange(gamma))
    closes = states[period] == 1
    states, cycle = states[:period], np.arange(period)
    position = np.zeros(1 << gamma, dtype=np.int64)
    position[states] = cycle
    # a repeated state keeps only one of its positions in the scatter
    if not closes or (position[states] != cycle).any():
        raise InvalidParams(f"permutation polynomial is not primitive of degree {gamma}")
    accepted = np.flatnonzero(states <= q)
    if accepted.size < q:
        raise InvalidParams(f"q={q} exceeds the LFSR state range 2^{gamma}-1")
    ring = np.tile(states[accepted] - 1, 2)
    offset = np.tile(np.searchsorted(accepted, cycle), 2)
    offset.flags.writeable = position.flags.writeable = False
    return np.lib.stride_tricks.sliding_window_view(ring, q), offset, position


class PermutationStream:
    """Block permutations of {0..q-1}, one q-block per seed of the key field t.

    A draw runs a throwaway gamma-bit LFSR from an initial value and maps
    visited states to values s - 1, discarding those >= q; one period of
    the primitive register visits every nonzero state once, so exactly q
    values are accepted, duplicates cannot occur, and the accepted order
    defines the permutation.  Frame j draws from the initial value j steps
    past each seed, so the sequence has period 2^gamma - 1.
    ``next_perm(j, count)`` returns the (count, v, q) blocks of frames j on
    as one gather from the cached ring of ``_permutation_ring``.
    """

    def __init__(self, q: int, seeds):
        q = integer(q, "permutation block size q", 1)
        gamma = (q - 1).bit_length()  # the key's seed width, CipherParams.gamma
        mask = (1 << gamma) - 1
        seeds = [integer(seed, "permutation seed", 0, mask + 1) for seed in seeds]
        if not all(seeds):
            raise ZeroSeedSlice("permutation seed slice is all-zero")
        self._windows, self._offset, position = _permutation_ring(
            q, gamma, primitives.poly(gamma) & mask
        )
        self._period = mask
        self._start = position[seeds]

    def next_perm(self, j: int, count: int) -> np.ndarray:
        j = integer(j, "permutation frame", 0) % self._period
        frames = np.arange(j, j + integer(count, "permutation frame count", 0)) % self._period
        return self._windows[self._offset[self._start + frames[:, None]]]


class BlockPermutation:
    """Block-diagonal permutation: v independent q-blocks, of one frame
    (perms of shape (v, q)) or of each row of a frame block ((B, v, q)).

    Unchecked: each block must be a permutation of 0..q-1, as every
    ``PermutationStream`` draw is (``_permutation_ring`` checks the walk).
    """

    def __init__(self, q: int, perms):
        self.blocks = blocks = np.asarray(perms, dtype=np.int64)
        self.shape = blocks.shape[:-2] + (blocks.shape[-2] * q,)
        self.n = self.shape[-1]
        # indices into the flattened frames: block i moves within [iq, (i+1)q)
        flat = blocks.reshape(-1, q) + np.arange(0, blocks.size, q)[:, None]
        self._fwd = flat.reshape(self.shape)

    def _checked(self, x) -> np.ndarray:
        x = vector(x, self.n, "vector", rows=True)
        if x.shape != self.shape:
            raise InvalidParams(f"vector has shape {x.shape}, not {self.shape}")
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.take(self._checked(x), self._fwd)  # _fwd holds flat positions, in the shape of x

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        x = np.empty_like(self._checked(y))
        np.put(x, self._fwd, y)  # the scatter that undoes apply's gather
        return x
