"""Sum-product inner loop: flooding SPA over the regular (m, dc) edge grid.

One numpy kernel with the exact tanh rule and forward/backward partial
products.  ``USE_NUMBA`` is always False; perfbench records it with each
result.
"""

import numpy as np

_TANH_CAP = 0.9999999999999998  # keep atanh finite

USE_NUMBA = False


def spa_core(chan, check_nbr, ve_check, ve_slot, max_iter, clip):
    """Flooding SPA, vectorized over the regular (m, dc) edge grid.

    chan: channel LLRs, sign convention log P(bit=1)/P(bit=0).
    check_nbr: (m, dc) variable index per check edge.
    ve_check/ve_slot: (n, dv) edge coordinates of each variable.
    Returns (bits uint8, ok, iterations).
    """
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
