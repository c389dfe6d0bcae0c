"""RDF-QC-LDPC code construction and validation.

A code is a row of circulant blocks [H_0 | ... | H_{n0-1}], each b x b with
column weight dv and given by its first row, a polynomial mod x^b + 1.
Supports are found by random-difference-family search: a block is accepted
only if every cyclic difference it introduces is new, which is sufficient
for a 4-cycle-free parity-check matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2poly
from .bitmat import circulants
from .errors import InvalidParams, SearchExhausted, SingularBlock, integer

BLOCK_TRIES = 100
RESTARTS = 40


@dataclass(frozen=True)
class QcCode:
    """Quasi-cyclic LDPC code given by circulant first-row supports."""

    b: int
    n0: int
    dv: int
    supports: tuple  # n0 tuples of dv sorted indices in [0, b)

    def __post_init__(self):
        if self.n0 < 2:
            raise InvalidParams("need at least two circulant blocks")
        if len(self.supports) != self.n0:
            raise InvalidParams("one support per block required")
        for sup in self.supports:
            if len(sup) != self.dv or len(set(sup)) != self.dv:
                raise InvalidParams("each block support needs dv distinct indices")
            if any(s < 0 or s >= self.b for s in sup):
                raise InvalidParams("support index out of range")

    @property
    def n(self) -> int:
        return self.b * self.n0

    @property
    def k(self) -> int:
        return self.b * (self.n0 - 1)

    @property
    def dc(self) -> int:
        return self.n0 * self.dv

    def polys(self) -> list:
        """First row of each block as a polynomial mod x^b + 1."""
        return [sum(1 << s for s in sup) for sup in self.supports]


def _grow_block(rng: random.Random, b: int, dv: int, used: set):
    """One random block, element by element; None on a dead end.

    A candidate element must not repeat a used cyclic difference (in either
    direction) and the differences it introduces must be internally
    distinct; candidates are filtered exactly, then sampled uniformly.
    """
    ys: list = []
    local: set = set()
    while len(ys) < dv:
        allowed = []
        for x in range(b):
            if x in ys:
                continue
            new = []
            ok = True
            for y in ys:
                d1 = (x - y) % b
                d2 = (y - x) % b
                if d1 in used or d2 in used or d1 in local or d2 in local:
                    ok = False
                    break
                new.append(d1)
                new.append(d2)
            if ok and len(set(new)) == 2 * len(ys):
                allowed.append(x)
        if not allowed:
            return None
        x = allowed[rng.randrange(len(allowed))]
        for y in ys:
            local.add((x - y) % b)
            local.add((y - x) % b)
        ys.append(x)
    return tuple(sorted(ys)), local


def rdf_search(b: int, n0: int, dv: int, rng_seed: int) -> QcCode:
    """Random-difference-family search for a 4-cycle-free QC-LDPC code.

    Deterministic for a fixed seed.  Blocks are grown one element at a
    time from the exact set of non-colliding candidates; a dead-ended or
    singular block is retried up to BLOCK_TRIES times before the whole
    family restarts, at most RESTARTS times.  The final block must
    additionally be invertible over GF(2) (dv odd is necessary but not
    sufficient, so this is checked by polynomial gcd rather than assumed).
    b, n0, dv and rng_seed must be integers (not bool): InvalidParams.
    """
    b, n0, dv, rng_seed = map(integer, (b, n0, dv, rng_seed), ("b", "n0", "dv", "rng_seed"))
    if dv % 2 == 0:
        raise InvalidParams("dv must be odd so the last block can invert")
    if dv >= b:
        raise InvalidParams("dv must be smaller than b")
    rng = random.Random(rng_seed)
    ring = (1 << b) | 1  # x^b + 1
    for _ in range(RESTARTS):
        used: set = set()
        supports = []
        for blk in range(n0):
            placed = False
            for _ in range(BLOCK_TRIES):
                got = _grow_block(rng, b, dv, used)
                if got is None:
                    continue
                cand, local = got
                if blk == n0 - 1 and gf2poly.invmod(sum(1 << s for s in cand), ring) is None:
                    continue
                used |= local
                supports.append(cand)
                placed = True
                break
            if not placed:
                break
        if len(supports) == n0:
            return QcCode(b, n0, dv, tuple(supports))
    raise SearchExhausted(
        f"no 4-cycle-free code found for b={b}, n0={n0}, dv={dv} "
        f"within {RESTARTS} restarts"
    )


def systematic_generator(code: QcCode) -> np.ndarray:
    """A of the systematic generator [I_k | A], as a k x (n-k) uint8 array.

    Block i of A is (H_last^-1 H_i)^T, so [I_k | A] H^T = 0 over GF(2);
    H_last^-1 H_i is the circulant of inv(p_last) p_i mod x^b + 1.  Raises
    SingularBlock when the last circulant has no inverse.
    """
    modulus = (1 << code.b) | 1  # x^b + 1
    *polys, last = code.polys()
    inv_last = gf2poly.invmod(last, modulus)
    if inv_last is None:
        raise SingularBlock(f"last circulant of size {code.b} is singular")
    blocks = circulants(code.b, [gf2poly.mulmod(inv_last, p, modulus) for p in polys])
    return blocks.transpose(0, 2, 1).copy().reshape(code.k, code.b)


def count_rdf_lower_bound(b: int, dv: int, n0: int) -> int:
    """Floor of the closed-form lower bound on the number of RDF codes.

    Evaluated exactly with rational arithmetic, reading the product with
    the subtraction inside the innermost factor:

        (1/b) * C(b, dv)^n0 *
        prod_{l=0}^{n0-1} prod_{j=1}^{dv-1}
            (b - j*(2 - b mod 2 + (j^2-1)/2 + l*dv*(dv-1))) / (b - j)
    """
    total = Fraction(math.comb(b, dv)) ** n0 / b
    for l in range(n0):
        for j in range(1, dv):
            t = Fraction(2 - (b % 2)) + Fraction(j * j - 1, 2) + l * dv * (dv - 1)
            total *= (b - j * t) / (b - j)
    return math.floor(total)


def count_rdf_lower_bound_log2(b: int, dv: int, n0: int) -> float:
    v = count_rdf_lower_bound(b, dv, n0)
    if v <= 0:
        return float("-inf")
    return math.log2(v)
