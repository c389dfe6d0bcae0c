"""RDF-QC-LDPC code construction and validation.

A code is a row of circulant blocks [H_0 | ... | H_{n0-1}], each b x b with
column weight dv.  Supports are found by random-difference-family search:
a block is accepted only if every cyclic difference it introduces is new,
which is sufficient for a 4-cycle-free parity-check matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitmat import Circulant, circulant_inverse, circulant_mul
from .errors import InvalidParams, SearchExhausted, SingularBlock, SingularCirculant


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

    def blocks(self):
        return [Circulant(self.b, sup) for sup in self.supports]

    def h_matrix(self) -> np.ndarray:
        """H = [H_0 | ... | H_{n0-1}] as a (b, n) uint8 array."""
        return np.hstack([c.to_dense() for c in self.blocks()])


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


def rdf_search(
    b: int,
    n0: int,
    dv: int,
    rng_seed: int,
    block_tries: int = 100,
    restarts: int = 40,
) -> QcCode:
    """Random-difference-family search for a 4-cycle-free QC-LDPC code.

    Deterministic for a fixed seed.  Blocks are grown one element at a
    time from the exact set of non-colliding candidates; a dead-ended or
    singular block is retried up to block_tries times before the whole
    family restarts.  The final block must additionally be invertible over
    GF(2) (dv odd is necessary but not sufficient, so this is checked by
    polynomial gcd rather than assumed).
    """
    if dv % 2 == 0:
        raise InvalidParams("dv must be odd so the last block can invert")
    if dv >= b:
        raise InvalidParams("dv must be smaller than b")
    rng = random.Random(rng_seed)
    for _ in range(restarts):
        used: set = set()
        supports = []
        for blk in range(n0):
            placed = False
            for _ in range(block_tries):
                got = _grow_block(rng, b, dv, used)
                if got is None:
                    continue
                cand, local = got
                if blk == n0 - 1:
                    try:
                        circulant_inverse(Circulant(b, cand))
                    except SingularCirculant:
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
        f"within {restarts} restarts"
    )


def girth_ok(code: QcCode) -> bool:
    """True iff H has no 4-cycles: no cyclic difference value repeats."""
    seen: set = set()
    for sup in code.supports:
        for s in sup:
            for t in sup:
                if s == t:
                    continue
                d = (s - t) % code.b
                if d in seen:
                    return False
                seen.add(d)
    return True


def systematic_generator(code: QcCode) -> np.ndarray:
    """A of the systematic generator [I_k | A], as a k x (n-k) uint8 array.

    Block i of A is (H_last^-1 H_i)^T, so [I_k | A] H^T = 0 over GF(2).
    Raises SingularBlock when the last circulant has no inverse.
    """
    blocks = code.blocks()
    try:
        inv_last = circulant_inverse(blocks[-1])
    except SingularCirculant as e:
        raise SingularBlock(str(e)) from e
    return np.vstack([
        circulant_mul(inv_last, blocks[i]).transpose().to_dense()
        for i in range(code.n0 - 1)
    ])


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
