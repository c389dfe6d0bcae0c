"""The decoder kernels as they stood before the slot-major rewrite, kept as
oracles for qclattice.decoder.channel_llr and qclattice._kernels.spa_core,
and the Tanner graph read off the dense H, kept as the oracle for
qclattice.decoder.tanner_arrays.

channel_llr marginalizes all 2*window + 1 translates of each side in an
(n, 2*window + 1) array and reduces along that axis with a max-shifted
log-sum-exp.  spa_core keeps check-major (m, dc) messages, takes the
check-major edge grids of the tanner_arrays below, clips after every step,
and builds the extrinsic products with forward and backward cumprod along
each check row.  The rewritten kernels must agree with these bit for bit,
and qclattice.decoder.tanner_arrays must equal slot_major of those grids.
"""

import numpy as np

from gf2_reference import h_dense
from qclattice.lattice import check_sigma

_TANH_CAP = 0.9999999999999998


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def channel_llr(r, sigma, window, clip=30.0):
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


def spa_core(chan, check_nbr, ve_check, ve_slot, max_iter, clip):
    m, dc = check_nbr.shape
    lr = np.zeros((m, dc))
    for it in range(max_iter + 1):
        tot = chan + lr[ve_check, ve_slot].sum(axis=1)
        bits = (tot > 0).astype(np.uint8)
        syn = np.bitwise_xor.reduce(bits[check_nbr], axis=1)
        if not syn.any():
            return bits, True, it
        if it == max_iter:
            break
        q = tot[check_nbr] - lr
        t = np.tanh(np.clip(q, -clip, clip) / 2.0)
        t = np.clip(t, -_TANH_CAP, _TANH_CAP)
        left = np.ones((m, dc))
        right = np.ones((m, dc))
        left[:, 1:] = np.cumprod(t[:, :-1], axis=1)
        right[:, :-1] = np.cumprod(t[:, :0:-1], axis=1)[:, ::-1]
        ext = left * right
        lr = 2.0 * np.arctanh(np.clip(ext, -_TANH_CAP, _TANH_CAP))
        np.clip(lr, -clip, clip, out=lr)
    return bits, False, max_iter


def tanner_arrays(code):
    """(check_nbr, ve_check, ve_slot) from np.nonzero of the dense H."""
    h = h_dense(code)
    m, n = h.shape
    check_nbr = np.nonzero(h)[1].reshape(m, code.dc).astype(np.int64)
    edges = np.argsort(check_nbr, axis=None, kind="stable").reshape(n, code.dv)
    ve_check, ve_slot = np.divmod(edges, code.dc)
    return check_nbr, ve_check, ve_slot


def slot_major(check_nbr, ve_check, ve_slot):
    """(nbr (dc, m), edge (dv, n)) from the check-major edge grids.

    nbr[s, c] is the variable on the s-th edge of check c; edge[:, v] is the
    flat position of each of variable v's edges in a (dc, m) message array.
    """
    m = len(check_nbr)
    return check_nbr.T.copy(), (ve_slot * m + ve_check).T.copy()
