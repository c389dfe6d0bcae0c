"""The paper's frame, composed from the component oracles, kept as the oracle
for qclattice.cipher's encrypt_joint and encrypt_raw.

Frame j of a key is built from the key's fields, its CipherParams and the
shipped polynomial table alone:

- the error vector e (n bits) and control line h (d bits) are bits
  [j*n, (j+1)*n) and [j*d, (j+1)*d) of the bit-serial reseeding streams of
  keystream_reference, seeded with s and h_seed;
- the block permutation is frame j of one bit-serial permutation stream per
  seed of t, held as the index map y[i] = lam[perm[i]];
- the NLF is a dense 0/1 U^alpha, alpha = sum h_i 2^i, from
  gf2_reference.companion_power_mod2, applied to a = m + 1 - e;
- the lattice map uses A of G = [[I_k, A], [0, 2 I]] from
  gf2_reference.systematic_generator_blocks: raw mode takes lam = 2 x G - 1,
  joint mode first shifts each parity coordinate by z (n L - 1), with
  z = round((x_i + s_i / 2) / (n L - 1)) and s = x_sys A, so that x'G lies in
  the hypercube |x'G| <= n L - 1; the rounding is exact (Fraction) and takes
  ties to even;
- the ciphertext is y = perm(lam + 2 e).

All products run over Python ints, so nothing can wrap.  Only the existing
oracles and the key's data are read: no code under test is called.
"""

from fractions import Fraction

import keystream_reference as ks
from gf2_reference import CompanionMatrix, companion_power_mod2, systematic_generator_blocks
from qclattice.primitives import poly, reciprocal


def _ints(v) -> list:
    return [int(c) for c in v]


class ReferenceCipher:
    """Frames of one key in counter order: ``material()`` draws the next."""

    def __init__(self, key):
        p = key.params
        self.params = p
        self.e_stream = ks.ReseedingLfsr(p.l1, poly(p.l1), reciprocal(p.l1), key.s)
        self.h_stream = ks.ReseedingLfsr(p.d, poly(p.d), reciprocal(p.d), key.h_seed)
        self.perm_streams = [ks.PermutationStream(p.q, seed, p.gamma, poly(p.gamma))
                             for seed in key.t]
        self.companion = CompanionMatrix(poly(p.n))
        self.a = systematic_generator_blocks(key.code).tolist()  # k x (n - k)

    def material(self):
        """(e, h, perm) of the next frame: n bits, d bits and the index map."""
        p = self.params
        e = _ints(self.e_stream.next_bits(p.n))
        h = _ints(self.h_stream.next_bits(p.d))
        perm = [b * p.q + int(i) for b, s in enumerate(self.perm_streams) for i in s.next_perm()]
        return e, h, perm

    def nlf(self, a, h) -> list:
        """a U^alpha over the integers."""
        alpha = sum(bit << i for i, bit in enumerate(h))
        u = companion_power_mod2(self.companion, alpha).tolist()
        return [sum(a[r] * u[r][c] for r in range(len(a))) for c in range(len(a))]

    def lattice_point(self, x, joint: bool) -> list:
        """2 x'G - 1, with x' the hypercube shaping of x (joint) or x itself (raw)."""
        p = self.params
        k, mod_full = p.k, p.n * p.L - 1
        sys, par = x[:k], x[k:]
        s = [sum(sys[r] * self.a[r][c] for r in range(k)) for c in range(p.n - k)]
        z = [round(Fraction(2 * xi + si, 2 * mod_full)) if joint else 0 for xi, si in zip(par, s)]
        xg = sys + [si + 2 * (xi - zi * mod_full) for xi, si, zi in zip(par, s, z)]
        return [2 * c - 1 for c in xg]

    def encrypt(self, m, joint: bool, material) -> dict:
        """Every stage of one frame: e, h, perm, x, lam and y, as lists of ints."""
        e, h, perm = material
        x = self.nlf([int(mi) + 1 - ei for mi, ei in zip(m, e)], h)
        lam = self.lattice_point(x, joint)
        y = [lam[i] + 2 * e[i] for i in perm]
        return {"e": e, "h": h, "perm": perm, "x": x, "lam": lam, "y": y}
