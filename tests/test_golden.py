"""Golden vectors: ciphertexts for key seed 1 at the reference parameters.

The digests pin the exact output of encrypt_joint and encrypt_raw for the
first 2,000 frames of each mode, so arithmetic or keystream rewrites must
leave every ciphertext bit-identical.  Each frame contributes its counter
(u64 little-endian) followed by its coordinates as int64 little-endian.
The paper's high dimension, (187, 8, 5, L = 16, d = 77) with n = 1496, is
pinned the same way over its first 500 frames per mode.

The code-layer digests pin A, H and the three Tanner arrays of two codes,
so a rewrite of the circulant algebra or the graph build must leave every
array byte-identical: same dtype, same shape, same bytes.

The sweep digests pin the decoder end to end: the `simulate` CSV for the
reference key over 0..6 dB (sigma 0.54 down to 0.27) and the lattice_sweep
rows of the (128, 256) lattice over -3..3 dB (sigma 0.97 down to 0.48), so
LLR or SPA rewrites must leave every frame's outcome unchanged, with sigma
on both sides of 0.63.
"""

import hashlib

import numpy as np
import pytest

from conftest import PAPER_PARAMS, random_message
from gf2_reference import h_dense
from qclattice import CipherParams, CipherSession, keygen, rdf_search
from qclattice.channel import SweepSpec, lattice_sweep
from qclattice.cli import main
from qclattice.decoder import DecoderConfig, tanner_arrays
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import systematic_generator

FRAMES = 2000
JOINT_SHA256 = "4fd01fe041ba2620431743456df5962b0ef1fbd1f56e4d6ce946a1b913f85a6c"
RAW_SHA256 = "62fc6355bf7216ad723164c0f0a7972085881d9ab1bb69744dbe95be89c2669c"
FRAMES_1496 = 500
JOINT_1496_SHA256 = "e6e81936bad65fdf050200e62dd2b0f2b8a2530dd637dcae7226fb5263f6630f"
RAW_1496_SHA256 = "91642a5beb3fe34d988e8e9cb99668fae0e4af258bb16c28abf71e509d08a18d"
PAPER_CODE_SHA256 = "eade37d4ef45f478c870235949804e8c6178e2408612667ae23caffe7b4439e2"
RDF_187_SHA256 = "003844709c62f9a96313eb131b29347c34477f479275eed8d97677fc37d3800e"
SIMULATE_CSV_SHA256 = "83419d69cd27cdb711b7ffeaf98993170e88a0cdd5e2850c4a87ad70498ffb51"
LATTICE_SWEEP_SHA256 = "29912b1fa3296d5cdc5540c81090559072a7efaab1ae5bfa21218f6dfd0fcef4"


def _digest(key, encrypt, msg_seed, frames=FRAMES):
    sess = CipherSession(key)
    rng = np.random.default_rng(msg_seed)
    p = key.params
    h = hashlib.sha256()
    for j in range(frames):
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


@pytest.fixture(scope="module")
def key_1496():
    return keygen(CipherParams(187, 8, 5, 187, 16, 77), 1)


def test_golden_joint_1496(key_1496):
    def enc(sess, m):
        return sess.encrypt_joint(m).y

    assert _digest(key_1496, enc, 13, FRAMES_1496) == JOINT_1496_SHA256


def test_golden_raw_1496(key_1496):
    assert _digest(key_1496, CipherSession.encrypt_raw, 14, FRAMES_1496) == RAW_1496_SHA256


def _code_digest(code):
    # the digests were pinned on the check-major triple (check_nbr, ve_check,
    # ve_slot), rebuilt here from the slot-major pair
    nbr, edge = tanner_arrays(code)
    ve_slot, ve_check = np.divmod(edge.T, code.b)
    h = hashlib.sha256()
    for arr in (systematic_generator(code), h_dense(code), nbr.T, ve_check, ve_slot):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_golden_code_layer_paper_key():
    assert _code_digest(keygen(PAPER_PARAMS, 1).code) == PAPER_CODE_SHA256


def test_golden_code_layer_rdf_187():
    assert _code_digest(rdf_search(187, 8, 5, 7)) == RDF_187_SHA256


def test_golden_simulate_csv(tmp_path, capsys):
    key, csv = tmp_path / "k.key", tmp_path / "sweep.csv"
    keygen_argv = "keygen --b 43 --n0 6 --dv 3 --L 16 --d 61 --seed 1 -o".split()
    assert main(keygen_argv + [str(key)]) == 0
    assert main(["simulate", "--key", str(key), "--vnr-db", "0:1:6", "--trials", "100",
                 "--seed", "3", "--workers", "1", "-o", str(csv)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SIMULATE_CSV_SHA256


def test_golden_lattice_sweep():
    ctx = LatticeCtx.from_code(rdf_search(128, 2, 7, rng_seed=5), 16)
    rows = lattice_sweep(ctx, DecoderConfig(), SweepSpec(-3.0, 3.0, 1.0, 50, 9))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == LATTICE_SWEEP_SHA256
