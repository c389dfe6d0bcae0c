"""Sum-product inner loop: flooding SPA over slot-major (dc, m) messages.

One numpy kernel with the exact tanh rule and forward/backward partial
products.  Row s of every message array holds the s-th edge of each check,
the layout in which decoder.tanner_arrays builds the graph, so the partial
products are ``np.multiply.accumulate`` along axis 0, in the same per-check
sequence as a ``cumprod`` along each check-major row.  Each
variable sums its dv incoming messages in the order ``np.add.reduce`` gives
a contiguous row (add_order), so decisions, flags and iteration counts are
those of the check-major kernel bit for bit.  ``USE_NUMBA`` is always
False; perfbench records it with each result.

Two of the check-major kernel's clips cannot bind for most (clip, dc), and
spa_core decides once per call which to skip:

- After tanh.  Messages enter tanh as q/2 with |q| <= clip, so
  |tanh(q/2)| <= tanh(clip/2).  For clip/2 <= _TANH_FREE = 18 that is at
  most tanh(18) = 1 - 4*2^-53, two ulps inside _TANH_CAP = 1 - 2*2^-53
  (atanh(_TANH_CAP) = 18.37), so the cap is kept only for clip > 36.
- After 2*arctanh, when dc >= 3.  Every extrinsic product then has at
  least two factors of magnitude at most t = min(tanh(clip/2), _TANH_CAP),
  and rounding is monotone, so |lr| <= 2*atanh(t^2) <= 0.988*clip at every
  clip (the ratio peaks near clip = 36.5; at large clip the bound is
  2*atanh(_TANH_CAP^2) = 36.04).  With dc = 2 a message is one factor's
  2*atanh(t), which can reach clip, so that clip stays.

Either way the messages are those of the check-major kernel bit for bit.
"""

import functools

import numpy as np

_TANH_CAP = 0.9999999999999998  # keep atanh finite
_TANH_FREE = 18.0  # |tanh(x)| < _TANH_CAP for |x| <= _TANH_FREE

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


def spa_core(chan, nbr, edge, max_iter, clip):
    """Flooding SPA, vectorized over slot-major (dc, m) message arrays.

    chan: channel LLRs, sign convention log P(bit=1)/P(bit=0).
    nbr, edge: the graph as decoder.tanner_arrays returns it; nbr[s, c]
    is the variable on the s-th edge of check c, and edge[:, v] the flat
    positions of variable v's edges in the messages.
    Returns (bits uint8, ok, iterations).
    """
    dc, m = nbr.shape
    order = add_order(len(edge))
    cap_tanh = clip / 2.0 > _TANH_FREE
    clip_lr = dc < 3
    lr = np.zeros((dc, m))
    left = np.empty((dc - 1, m))
    tot = chan + 0.0  # what zero messages add
    # indexing, not take: take copies an index array that is not writeable,
    # and tanner_arrays' are read-only
    for it in range(max_iter + 1):
        q = tot[nbr]
        if not np.logical_xor.reduce(q > 0, axis=0).any():
            return (tot > 0).view(np.uint8), True, it
        if it == max_iter:
            break
        q -= lr
        _clip(q, clip, out=q)
        q /= 2.0
        np.tanh(q, out=q)
        if cap_tanh:
            _clip(q, _TANH_CAP, out=q)
        # extrinsic products t_0..t_{s-1} * t_{s+1}..t_{dc-1}; factors within
        # +-_TANH_CAP keep them there, so they need no second cap
        np.multiply.accumulate(q[:-1], axis=0, out=left)
        np.multiply.accumulate(q[:0:-1], axis=0, out=lr[-2::-1])
        lr[1:-1] *= left[:-1]
        lr[-1] = left[-1]
        np.arctanh(lr, out=lr)
        lr *= 2.0
        if clip_lr:
            _clip(lr, clip, out=lr)
        tot = chan + tree_sum(order, lr.ravel()[edge])
    return (tot > 0).view(np.uint8), False, max_iter
