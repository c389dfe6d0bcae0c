"""Sum-product decoding of lattice translate points observed in AWGN.

The observation is r = lam + noise with lam = c + 4z, c the +-1 image of a
codeword.  Per-symbol LLRs marginalize the 4Z translates in a symmetric
window, binary SPA on H recovers c, and the integer part follows as
z = round((r - c) / 4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import spa_core
from .errors import DecodeFailure, InvalidParams
from .lattice import LatticeCtx, check_sigma
from .rdfcode import QcCode


# Past 2^52 float64 no longer resolves halves, so round((r - c) / 4) stops
# being exact; such an observation, or a non-finite one, is not decoded.
OBSERVATION_BOUND = 2.0**52


def observation_ok(r: np.ndarray) -> bool:
    """Whether every coordinate of r is finite and below 2^52 in magnitude."""
    return bool((np.abs(r) < OBSERVATION_BOUND).all())


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 50
    llr_clip: float = 30.0
    coset_window: int = 4  # number of 4Z translates marginalized per side

    def __post_init__(self):
        if self.max_iterations < 1 or self.coset_window < 1 or self.llr_clip <= 0:
            raise InvalidParams("bad decoder configuration")


@functools.lru_cache(maxsize=16)
def tanner_arrays(code: QcCode):
    """Edge grids of the regular Tanner graph of H.

    Returns (check_nbr (m, dc), ve_check (n, dv), ve_slot (n, dv)); the
    graph is regular, so every check row has exactly dc edges and every
    variable exactly dv.
    """
    h = code.h_matrix()
    m, n = h.shape
    check_nbr = np.nonzero(h)[1].reshape(m, code.dc).astype(np.int64)
    # edge c*dc + slot; the stable sort keeps each variable's edges in check order
    edges = np.argsort(check_nbr, axis=None, kind="stable").reshape(n, code.dv)
    ve_check, ve_slot = np.divmod(edges, code.dc)
    return check_nbr, ve_check, ve_slot


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def channel_llr(r, sigma: float, window: int, clip: float = 30.0):
    """log P(bit=1)/P(bit=0) after folding the 4Z coset translates.

    Marginalizes the 2*window + 1 translates of each coset nearest the
    observation: bit-1 representatives 1 + 4t and bit-0 representatives
    -1 + 4t with t centered on round((r -+ 1)/4).  The two translate sets
    mirror each other under r -> -r, so the result is an odd function of
    r.  Clipped to +-clip.  Raises InvalidParams for a sigma that
    lattice.check_sigma rejects.
    """
    check_sigma(sigma)
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    t = np.arange(-window, window + 1, dtype=np.float64)
    inv = -1.0 / (2.0 * sigma * sigma)
    z1 = np.rint((r - 1.0) / 4.0)[:, None] + t[None, :]
    z0 = np.rint((r + 1.0) / 4.0)[:, None] + t[None, :]
    pos = inv * (r[:, None] - (1.0 + 4.0 * z1)) ** 2
    neg = inv * (r[:, None] - (-1.0 + 4.0 * z0)) ** 2
    llr = _logsumexp(pos, 1) - _logsumexp(neg, 1)
    llr = np.clip(llr, -clip, clip)
    return float(llr[0]) if scalar else llr


def decode(ctx: LatticeCtx, cfg: DecoderConfig, r, sigma: float):
    """Decode an AWGN observation back to a lattice translate point.

    On success returns the all-odd integer vector whose lifted word has
    zero syndrome (equal to the transmitted point whenever the bit decision
    is right); on a noiseless observation the output is exact.  Raises
    DecodeFailure when the syndrome is still nonzero after
    cfg.max_iterations flooding iterations, or (with 0 iterations) when the
    observation fails observation_ok, and InvalidParams for a sigma that
    lattice.check_sigma rejects.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (ctx.n,):
        raise InvalidParams("observation length mismatch")
    if not observation_ok(r):
        raise DecodeFailure("observation is not finite, or reaches 2^52", iterations=0)
    chan = channel_llr(r, sigma, cfg.coset_window, cfg.llr_clip)
    check_nbr, ve_check, ve_slot = tanner_arrays(ctx.code)
    bits, ok, iters = spa_core(
        chan, check_nbr, ve_check, ve_slot, cfg.max_iterations, cfg.llr_clip,
    )
    if not ok:
        raise DecodeFailure(
            f"syndrome nonzero after {cfg.max_iterations} iterations",
            iterations=iters,
        )
    c = 2 * bits.astype(np.int64) - 1
    z = np.rint((r - c) / 4.0).astype(np.int64)
    return c + 4 * z
