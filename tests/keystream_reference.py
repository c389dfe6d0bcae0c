"""Bit-serial keystream generators kept as oracles for qclattice.keystream.

These are the straightforward one-step-at-a-time versions: an LFSR step
computes one feedback parity, a reseeding stream reseeds when its phase
wraps, a permutation draw walks a throwaway register until q values are
accepted, and seeking replays every skipped draw from the seed.  A
reseeding stream seeks one register step at a time too, but skips what a
reseed overwrites: the companion steps once per reseed before bit t, and
the main register steps to t's phase, forward or back, whichever is
shorter.  Both registers are primitive, with period 2^length - 1 (the
segment), so the companion's step count is taken modulo the segment.
joint_state and permutation_matrix read the library's own objects for
tests that need the whole register state or the dense permutation.
"""

import numpy as np


class Lfsr:
    def __init__(self, length, poly, seed):
        self.length = length
        self.taps = poly & ((1 << length) - 1)
        self.state = seed & ((1 << length) - 1)

    def step(self):
        out = self.state & 1
        fb = bin(self.state & self.taps).count("1") & 1
        self.state = (self.state >> 1) | (fb << (self.length - 1))
        return out

    def step_back(self):
        """Undo one step: the taps hold x^0, so the dropped bit completes the feedback."""
        assert self.taps & 1
        fb = self.state >> (self.length - 1)
        high = (self.state << 1) & ((1 << self.length) - 1)
        self.state = high | (fb ^ bin(high & self.taps).count("1") & 1)


class ReseedingLfsr:
    def __init__(self, length, q_poly, p_poly, seed):
        self._args = (length, q_poly, p_poly, seed)
        self.main = Lfsr(length, q_poly, seed)
        self.companion = Lfsr(length, p_poly, seed)
        self.segment = (1 << length) - 1
        self.phase = 0

    def next_bit(self):
        out = self.main.step()
        self.phase += 1
        if self.phase == self.segment:
            self.phase = 0
            self.companion.step()
            self.main.state = self.companion.state
        return out

    def next_bits(self, count):
        return np.array([self.next_bit() for _ in range(count)], dtype=np.uint8)

    def seek(self, t):
        self.__init__(*self._args)
        reseeds, self.phase = divmod(t, self.segment)
        for _ in range(reseeds % self.segment):
            self.companion.step()
        self.main.state = self.companion.state
        if self.phase <= self.segment // 2:
            for _ in range(self.phase):
                self.main.step()
        else:
            for _ in range(self.segment - self.phase):
                self.main.step_back()

    def joint_state(self):
        return (self.main.state, self.companion.state, self.phase)


def joint_state(stream, t):
    """(main state, companion state, phase) of a library reseeding stream
    whose last draw ended at bit t."""
    return (stream._main.state, stream._companion.state, t % stream._segment)


class PermutationStream:
    def __init__(self, q, seed, gamma, poly):
        self._args = (q, seed, gamma, poly)
        self.q = q
        self.gamma = gamma
        self.poly = poly
        self.lfsr = Lfsr(gamma, poly, seed)

    def next_perm(self):
        walker = Lfsr(self.gamma, self.poly, self.lfsr.state)
        out = []
        while len(out) < self.q:
            v = walker.state - 1
            walker.step()
            if v < self.q:
                out.append(v)
        self.lfsr.step()
        return np.array(out, dtype=np.int64)

    def seek(self, j):
        self.__init__(*self._args)
        for _ in range(j):
            self.lfsr.step()


def permutation_matrix(bp):
    """Dense 0/1 matrix P with bp.apply(x) = x @ P."""
    p = np.zeros((bp.n, bp.n), dtype=np.uint8)
    # apply(x)[j] = x[fwd[j]]  =>  P[fwd[j], j] = 1
    p[bp.apply(np.arange(bp.n)), np.arange(bp.n)] = 1
    return p
