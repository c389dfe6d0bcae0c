"""Round trips over small admissible parameter sets, drawn by Hypothesis.

Each drawn set (b <= 40, n0 <= 4, odd dv, q = b, n <= 80 so that an NLF
polynomial of degree n is shipped) gets a key; the test checks the code
layer against the dense oracles (A and the Tanner arrays, dtypes
included), [I | A] H^T = 0 for the dense H, and that joint and raw frames
decrypt to their messages.  A 4-cycle-free code needs n0 * dv * (dv - 1) distinct nonzero
differences mod b, so the strategy draws only sets with at most b - 1 of
them, and a search that still exhausts (0.2-0.5 s each) is rejected.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import decoder_reference
from conftest import random_message
from gf2_reference import h_dense, matmul_mod2, systematic_generator_blocks
from qclattice import CipherParams, CipherSession, keygen
from qclattice.decoder import tanner_arrays
from qclattice.errors import SearchExhausted
from qclattice.rdfcode import systematic_generator

FRAMES = 3


@st.composite
def admissible_params(draw):
    dv = draw(st.sampled_from([1, 3]))  # dv = 5 needs b > 2 * 20
    n0 = draw(st.integers(2, 4 if dv == 1 else 3))  # dv = 3, n0 = 4 needs b > 24
    # q = b must not be a power of two, and n = b * n0 must be even
    b = draw(st.sampled_from([
        b for b in range(n0 * dv * (dv - 1) + 1, min(40, 80 // n0) + 1)
        if b > 2 and b & (b - 1) and b * n0 % 2 == 0
    ]))
    L = draw(st.sampled_from([2, 4, 8, 16]))
    d = draw(st.integers(2, 80))
    return CipherParams(b=b, n0=n0, dv=dv, q=b, L=L, d=d)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(admissible_params(), st.integers(0, 2**64 - 1))
def test_admissible_params_round_trip(params, seed):
    try:
        key = keygen(params, seed)
    except SearchExhausted:
        reject()
    code = key.code
    h = h_dense(code)
    a = systematic_generator(code)
    graph = decoder_reference.slot_major(*decoder_reference.tanner_arrays(code))
    for got, want in ((a, systematic_generator_blocks(code)), *zip(tanner_arrays(code), graph)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    g = np.hstack([np.eye(code.k, dtype=np.uint8), a])
    assert not matmul_mod2(g, h.T).any()

    rng = np.random.default_rng(seed)
    tx, rx = CipherSession(key), CipherSession(key)
    for _ in range(FRAMES):
        m = random_message(rng, params.n, params.L)
        assert np.array_equal(rx.decrypt_joint(tx.encrypt_joint(m).y, 0.0), m)
        m = random_message(rng, params.n, params.L)
        assert np.array_equal(rx.decrypt_raw(tx.encrypt_raw(m)), m)
