"""Bit-serial keystream generators kept as oracles for qclattice.keystream.

These are the straightforward one-step-at-a-time versions: an LFSR step
computes one feedback parity, a reseeding stream reseeds when its phase
wraps, a permutation draw walks a throwaway register until q values are
accepted, and seeking replays every skipped bit or draw from the seed.
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


class ReseedingLfsr:
    def __init__(self, length, q_poly, p_poly, seed):
        self._args = (length, q_poly, p_poly, seed)
        self.main = Lfsr(length, q_poly, seed)
        self.companion = Lfsr(length, p_poly, seed)
        self.segment = (1 << length) - 1
        self.phase = 0

    def joint_state(self):
        return (self.main.state, self.companion.state, self.phase)

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
        for _ in range(t):
            self.next_bit()


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
