"""Sum-product decoding of lattice translate points observed in AWGN.

The observation is r = lam + noise with lam = c + 4z, c the +-1 image of a
codeword.  Per-symbol LLRs marginalize the 4Z translates in a symmetric
window, binary SPA on H recovers c, and the integer part follows as
z = round((r - c) / 4).

channel_llr lays the translate terms of both bits out as one
(2, translates, n) array, so its max and its sum run across rows, and it
adds the rows in the order np.add.reduce gives a contiguous row of
2*window + 1 terms.  Translates two or more steps from the nearest one lie
at least 16/sigma^2 below their partner in every addition of that order;
once that gap exceeds NEAR_TRANSLATES_GAP (sigma < 0.632) they cannot
change a sum, so only the three nearest are computed.  LLRs are therefore
the full window's bit for bit, at every sigma; cfg.coset_window stays the
cap on the window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _clip, add_order, spa_core, tree_sum
from .errors import DecodeFailure, InvalidParams, as_array, integer, real, vector
from .lattice import LatticeCtx, check_sigma
from .rdfcode import QcCode


# Past 2^52 float64 no longer resolves halves, so round((r - c) / 4) stops
# being exact; such an observation, or a non-finite one, is not decoded.
OBSERVATION_BOUND = 2.0**52


def observation_ok(r: np.ndarray):
    """Whether every coordinate of r is finite and below 2^52 in magnitude; per row of a block."""
    return (np.abs(r) < OBSERVATION_BOUND).all(axis=-1)


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 50
    llr_clip: float = 30.0
    coset_window: int = 4  # number of 4Z translates marginalized per side

    def __post_init__(self):
        for name in ("max_iterations", "coset_window"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        object.__setattr__(self, "llr_clip", real(self.llr_clip, "llr_clip", math.ulp(0.0)))


@functools.lru_cache(maxsize=16)
def tanner_arrays(code: QcCode):
    """spa_core's index arrays for the regular Tanner graph of H.

    Returns (nbr (dc, m), edge (dv, n)), slot-major: nbr[s, c] is the
    variable on the s-th edge of check c, and edge[:, v] lists the flat
    positions s*m + c of variable v's edges in a (dc, m) message array, in
    check order, so nbr.flat[edge[:, v]] == v.  Both are C-contiguous,
    int64 and read-only, since every decode of the code shares them.

    Built from the supports without the dense H: row r of block i has its
    ones at columns i*b + (r + s) mod b, s in support i, and each check
    lists them in increasing column order, as np.nonzero(H) would.
    """
    # (b, n0, dv): the column of each one of H, row by row and block by block
    cols = np.arange(code.b)[:, None, None] + np.array(code.supports, dtype=np.int64)
    cols %= code.b
    cols.sort(axis=2)
    cols += np.arange(0, code.n, code.b)[:, None]
    check_nbr = cols.reshape(code.b, code.dc)
    # edge c*dc + slot; the stable sort keeps each variable's edges in check order
    edges = np.argsort(check_nbr, axis=None, kind="stable").reshape(code.n, code.dv)
    check, slot = np.divmod(edges, code.dc)
    nbr = check_nbr.T.copy()
    edge = (slot * code.b + check).T.copy()
    nbr.flags.writeable = edge.flags.writeable = False
    return nbr, edge


# In every addition of numpy's summation order, translates with |t| >= 2
# meet a partner holding a kept term at least 16/sigma^2 above them (the
# tests walk that order for windows up to 2048).  Past this gap, e^-gap is
# under 2^-54 / 13, so even two such terms added up stay below half an ulp
# of the partner, and only t in {-1, 0, 1} can change the sum.
NEAR_TRANSLATES_GAP = 40.0

_REPRESENTATIVE = np.array([1.0, -1.0])  # bit-1 and bit-0 coset offsets


def channel_llr(r, sigma: float, window: int, clip: float = 30.0):
    """log P(bit=1)/P(bit=0) after folding the 4Z coset translates.

    Marginalizes the 2*window + 1 translates of each coset nearest the
    observation: bit-1 representatives 1 + 4t and bit-0 representatives
    -1 + 4t with t centered on round((r -+ 1)/4).  The two translate sets
    mirror each other under r -> -r, so the result is an odd function of
    r.  Clipped to +-clip.  r is a scalar (the result is then a float) or
    a 1-D array, of an integer or real dtype.  Raises InvalidParams for any
    other r, a sigma that check_sigma rejects, a window that is not an
    integer >= 1, or a clip not in (0, inf).

    Both sides lie in one (2, translates, n) array, so the max and the
    log-sum-exp run across rows.  The rows are added in the order
    np.add.reduce gives a contiguous (n, 2*window + 1) row, and once
    16/sigma^2 exceeds NEAR_TRANSLATES_GAP only t in {-1, 0, 1} are
    computed, added as that order associates them: the result is bit for
    bit the full window's.
    """
    sigma = check_sigma(sigma)
    window = integer(window, "window", 1)
    clip = real(clip, "llr_clip", math.ulp(0.0))
    r = as_array(r, "r")
    if r.ndim > 1 or r.dtype.kind not in "iuf":
        raise InvalidParams(f"r must be a scalar or 1-D numeric, not {r.dtype} of shape {r.shape}")
    scalar, r = r.ndim == 0, np.atleast_1d(r.astype(np.float64, copy=False))
    inv = -1.0 / (2.0 * sigma * sigma)
    near = min(window, 1) if 16.0 / (sigma * sigma) > NEAR_TRANSLATES_GAP else window
    t = np.arange(-near, near + 1, dtype=np.float64)[:, None]
    c = _REPRESENTATIVE[:, None]
    z = np.rint((r - c) / 4.0)
    a = z[:, None, :] + t  # (2, 2*near + 1, n): translate indices
    a *= 4.0
    a += c[:, :, None]
    np.subtract(r, a, out=a)
    np.square(a, out=a)
    a *= inv
    top = a.max(axis=1)
    a -= top[:, None, :]
    np.exp(a, out=a)
    order = add_order(2 * window + 1, window - near, window + near + 1)
    lse = top + np.log(tree_sum(order, a.transpose(1, 0, 2)))
    llr = lse[0] - lse[1]
    _clip(llr, clip, out=llr)
    return float(llr[0]) if scalar else llr


def decode(ctx: LatticeCtx, cfg: DecoderConfig, r, sigma: float):
    """Decode an AWGN observation back to a lattice translate point.

    On success returns the all-odd integer vector whose lifted word has
    zero syndrome (equal to the transmitted point whenever the bit decision
    is right); on a noiseless observation the output is exact.  Raises
    DecodeFailure when the syndrome is still nonzero after
    cfg.max_iterations flooding iterations, or (with 0 iterations) when the
    observation fails observation_ok, and InvalidParams for a sigma that
    lattice.check_sigma rejects, or for an r that ``errors.vector`` refuses.
    """
    r = vector(r, ctx.n, "observation").astype(np.float64, copy=False)
    if not observation_ok(r):
        raise DecodeFailure("observation is not finite, or reaches 2^52", iterations=0)
    chan = channel_llr(r, sigma, cfg.coset_window, cfg.llr_clip)
    nbr, edge = tanner_arrays(ctx.code)
    bits, ok, iters = spa_core(chan, nbr, edge, cfg.max_iterations, cfg.llr_clip)
    if not ok:
        raise DecodeFailure(
            f"syndrome nonzero after {cfg.max_iterations} iterations",
            iterations=iters,
        )
    c = 2 * bits.astype(np.int64) - 1
    z = np.rint((r - c) / 4.0).astype(np.int64)
    return c + 4 * z
