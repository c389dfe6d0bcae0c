"""Golden vectors: ciphertexts for key seed 1 at the reference parameters.

The digests pin the exact output of encrypt_joint and encrypt_raw for the
first 2,000 frames of each mode, so arithmetic or keystream rewrites must
leave every ciphertext bit-identical.  Each frame contributes its counter
(u64 little-endian) followed by its coordinates as int64 little-endian.

The code-layer digests pin A, H and the three Tanner arrays of two codes,
so a rewrite of the circulant algebra or the graph build must leave every
array byte-identical: same dtype, same shape, same bytes.
"""

import hashlib

import numpy as np

from conftest import PAPER_PARAMS, random_message
from qclattice import CipherSession, keygen, rdf_search
from qclattice.decoder import tanner_arrays
from qclattice.rdfcode import systematic_generator

FRAMES = 2000
JOINT_SHA256 = "4fd01fe041ba2620431743456df5962b0ef1fbd1f56e4d6ce946a1b913f85a6c"
RAW_SHA256 = "62fc6355bf7216ad723164c0f0a7972085881d9ab1bb69744dbe95be89c2669c"
PAPER_CODE_SHA256 = "eade37d4ef45f478c870235949804e8c6178e2408612667ae23caffe7b4439e2"
RDF_187_SHA256 = "003844709c62f9a96313eb131b29347c34477f479275eed8d97677fc37d3800e"


def _digest(key, encrypt, msg_seed):
    sess = CipherSession(key)
    rng = np.random.default_rng(msg_seed)
    p = key.params
    h = hashlib.sha256()
    for j in range(FRAMES):
        y = encrypt(sess, random_message(rng, p.n, p.L))
        h.update(j.to_bytes(8, "little"))
        h.update(np.asarray(y, dtype="<i8").tobytes())
    return h.hexdigest()


def test_golden_joint(paper_key):
    def enc(sess, m):
        ct = sess.encrypt_joint(m)
        assert ct.counter == sess.counter - 1
        return ct.y

    assert _digest(paper_key, enc, 11) == JOINT_SHA256


def test_golden_raw(paper_key):
    assert _digest(paper_key, CipherSession.encrypt_raw, 12) == RAW_SHA256


def _code_digest(code):
    h = hashlib.sha256()
    for arr in (systematic_generator(code), code.h_matrix(), *tanner_arrays(code)):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_golden_code_layer_paper_key():
    assert _code_digest(keygen(PAPER_PARAMS, 1).code) == PAPER_CODE_SHA256


def test_golden_code_layer_rdf_187():
    assert _code_digest(rdf_search(187, 8, 5, 7)) == RDF_187_SHA256
