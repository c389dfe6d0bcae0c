"""Sum-product inner loop: flooding SPA over slot-major (dc, m) messages.

One numpy kernel with the exact tanh rule and forward/backward partial
products.  Row s of every message array holds the s-th edge of each check,
so the partial products are ``np.multiply.accumulate`` along axis 0, in the
same per-check sequence as a ``cumprod`` along each check-major row.  Each
variable sums its dv incoming messages in the order ``np.add.reduce`` gives
a contiguous row (add_order), so decisions, flags and iteration counts are
those of the check-major kernel bit for bit.  ``USE_NUMBA`` is always
False; perfbench records it with each result.
"""

import functools

import numpy as np

_TANH_CAP = 0.9999999999999998  # keep atanh finite

USE_NUMBA = False


def _pair(a, b):
    return b if a is None else a if b is None else (a, b)


def _order(start, n, lo, hi):
    if hi <= start or start + n <= lo:
        return None
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pair(_order(start, half, lo, hi), _order(start + half, n - half, lo, hi))
    tree, tail = None, start
    if n >= 8:
        tail = start + n - n % 8
        acc = [None] * 8
        for i in range(max(start, lo), min(tail, hi)):
            acc[(i - start) % 8] = _pair(acc[(i - start) % 8], i - lo)
        a = [_pair(acc[j], acc[j + 1]) for j in (0, 2, 4, 6)]
        tree = _pair(_pair(a[0], a[1]), _pair(a[2], a[3]))
    for i in range(max(tail, lo), min(start + n, hi)):
        tree = _pair(tree, i - lo)
    return tree


@functools.lru_cache(maxsize=64)
def add_order(n: int, lo: int = 0, hi: int | None = None):
    """The association np.add.reduce gives n terms along a contiguous axis.

    numpy adds fewer than 8 terms left to right.  Up to 128 terms it keeps
    8 strided accumulators, combines them as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)) and adds the tail left to right; beyond 128 it
    splits at a multiple of 8 near the middle and adds the two halves.
    Returns that order as a nested pair tree over the terms lo..hi - 1,
    numbered from 0, with every other term pruned as if it left its
    partner unchanged; a leaf is a bare index.
    """
    return _order(0, n, lo, n if hi is None else hi)


def tree_sum(tree, rows):
    """Sum rows[i] over the leaves of an add_order tree, in its order."""
    if not isinstance(tree, tuple):
        return rows[tree]
    return tree_sum(tree[0], rows) + tree_sum(tree[1], rows)


def _clip(x, lim, out=None):
    # np.clip's rule, min(max(x, -lim), lim), as two plain ufunc calls
    return np.minimum(np.maximum(x, -lim, out=out), lim, out=out)


def spa_core(chan, check_nbr, ve_check, ve_slot, max_iter, clip):
    """Flooding SPA, vectorized over slot-major (dc, m) message arrays.

    chan: channel LLRs, sign convention log P(bit=1)/P(bit=0).
    check_nbr: (m, dc) variable index per check edge.
    ve_check/ve_slot: (n, dv) edge coordinates of each variable.
    Returns (bits uint8, ok, iterations).
    """
    m, dc = check_nbr.shape
    nbr = check_nbr.T.copy()  # (dc, m)
    # flat position of each variable's edges in the (dc, m) messages, (dv, n)
    edge = (ve_slot * m + ve_check).T.copy()
    order = add_order(len(edge))
    lr = np.zeros((dc, m))
    left = np.empty((dc - 1, m))
    tot = chan + 0.0  # what zero messages add
    for it in range(max_iter + 1):
        q = tot.take(nbr)
        if not np.logical_xor.reduce(q > 0, axis=0).any():
            return (tot > 0).view(np.uint8), True, it
        if it == max_iter:
            break
        q -= lr
        _clip(q, clip, out=q)
        q /= 2.0
        np.tanh(q, out=q)
        _clip(q, _TANH_CAP, out=q)
        # extrinsic products t_0..t_{s-1} * t_{s+1}..t_{dc-1}; factors within
        # +-_TANH_CAP keep them there, so they need no second cap
        np.multiply.accumulate(q[:-1], axis=0, out=left)
        np.multiply.accumulate(q[:0:-1], axis=0, out=lr[-2::-1])
        lr[1:-1] *= left[:-1]
        lr[-1] = left[-1]
        np.arctanh(lr, out=lr)
        lr *= 2.0
        _clip(lr, clip, out=lr)
        tot = chan + tree_sum(order, lr.take(edge))
    return (tot > 0).view(np.uint8), False, max_iter
