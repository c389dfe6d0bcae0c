"""encrypt_joint and encrypt_raw against the reference cipher, stage by stage.

Frames 0-63 of the toy key (n = 26) cover the permutation stream's period
(2^4 - 1 = 15 frames) and the error stream's ((2^5 - 1)^2 bits, 37
frames).  At n = 258 the paper key's frames 0-3, 61-65 and 1,010-1,014
cross the permutation period (2^6 - 1 = 63 frames) and the end of the
error stream's ((2^9 - 1)^2 bits, inside frame 1,012); the oracle replays
every frame before them in counter order.  Each library stage is fed the
reference's previous stage, so the first stage that differs is the one
named, and the library must decrypt every reference ciphertext back to its
message.
"""

import numpy as np
import pytest

from cipher_reference import ReferenceCipher
from conftest import random_message
from qclattice import CipherSession

TOY_FRAMES = range(64)
PAPER_FRAMES = (*range(4), *range(61, 66), *range(1010, 1015))


def _reference_frames(key, wanted):
    """(frame, mode, message, the reference's stages) for each wanted frame."""
    p = key.params
    oracle = ReferenceCipher(key)
    rng = np.random.default_rng(p.n)
    out = []
    for j in range(max(wanted) + 1):
        material = oracle.material()  # drawn for every frame: the oracle cannot seek
        if j not in wanted:
            continue
        scale = (100, p.raw_bound)[j % 2]
        for joint, m in ((True, random_message(rng, p.n, p.L)),
                         (False, rng.integers(-scale, scale + 1, size=p.n))):
            out.append((j, joint, m, oracle.encrypt(m, joint, material)))
    return out


@pytest.fixture(scope="module")
def frames(toy_key):
    return _reference_frames(toy_key, TOY_FRAMES)


@pytest.fixture(scope="module")
def paper_frames(paper_key):
    return _reference_frames(paper_key, PAPER_FRAMES)


def _same(frame, stage, got, want):
    assert [int(c) for c in got] == want, f"frame {frame}: {stage} differs from the reference"


def _check_stages(key, frames):
    material, session = CipherSession(key), CipherSession(key)
    for j, joint, m, want in frames:
        if joint:
            material.advance_to(j)
            _, e, h, perm = material._frame_material(1)
            _same(j, "e", e[0], want["e"])
            _same(j, "h", h[0], want["h"])
            _same(j, "perm", perm.apply(np.arange(key.params.n)[None])[0], want["perm"])
        a = np.array([int(mi) + 1 - ei for mi, ei in zip(m, want["e"])])
        _same(j, "x", session.nlf.apply_f(a, np.array(want["h"])), want["x"])
        lattice = session.lattice.shape if joint else session.lattice.encode
        _same(j, "lam", lattice(np.array(want["x"])), want["lam"])


def _check_encrypt(key, frames):
    tx = {True: CipherSession(key), False: CipherSession(key)}
    rx = {True: CipherSession(key), False: CipherSession(key)}
    for j, joint, m, want in frames:
        y = np.array(want["y"])
        tx[joint].advance_to(j)
        rx[joint].advance_to(j)
        if joint:
            ct = tx[True].encrypt_joint(m)
            assert ct.counter == j
            _same(j, "y (joint)", ct.y, want["y"])
            assert np.array_equal(rx[True].decrypt_joint(y, 0.0), m), f"frame {j}"
        else:
            _same(j, "y (raw)", tx[False].encrypt_raw(m), want["y"])
            assert np.array_equal(rx[False].decrypt_raw(y), m), f"frame {j}"


def test_library_stages_match_the_reference(toy_key, frames):
    _check_stages(toy_key, frames)


def test_encrypt_matches_the_reference_and_decrypts_it(toy_key, frames):
    _check_encrypt(toy_key, frames)


def test_library_stages_match_the_reference_at_n258(paper_key, paper_frames):
    _check_stages(paper_key, paper_frames)


def test_encrypt_matches_the_reference_and_decrypts_it_at_n258(paper_key, paper_frames):
    _check_encrypt(paper_key, paper_frames)


def test_shaping_ties_match_the_reference(toy_key):
    # random frames put almost no parity coordinate exactly on the box wall
    # (none in the 64 above), so build x with 2 x_i + s_i an odd multiple of
    # n L - 1 wherever s = x_sys A is odd
    p = toy_key.params
    oracle, lattice = ReferenceCipher(toy_key), CipherSession(toy_key).lattice
    rng = np.random.default_rng(3)
    for t in range(20):
        sys = rng.integers(-50, 51, size=p.k)
        s = sys @ np.array(oracle.a)
        wall = (p.n * p.L - 1) * (2 * rng.integers(-2, 3, size=p.n - p.k) + 1)
        par = np.where(s % 2 == 1, (wall - s) // 2, rng.integers(-300, 301, size=p.n - p.k))
        x = np.concatenate([sys, par])
        _same(t, "lam (ties)", lattice.shape(x), oracle.lattice_point(x.tolist(), True))
