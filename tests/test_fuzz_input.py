"""Fuzzed ciphertext and observation files against FrameReader and CLI decrypt.

Arbitrary bytes and mutated valid files (overwritten header fields,
counters, payload lengths and coordinates, byte flips, truncations) may
only end in a QclatticeError from FrameReader, and in exit 0 or 1 from
`qclattice decrypt`: never another exception, and never a hang (each
example runs under a deadline).
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import deadline
from qclattice import CipherParams, CipherSession, keygen
from qclattice.cipher import pack_bits, save_key
from qclattice.cli import main
from qclattice.errors import QclatticeError
from qclattice.formats import FrameReader, FrameWriter

PARAMS = CipherParams(b=13, n0=2, dv=3, q=13, L=4, d=8)
N = PARAMS.n
FILE_HEAD = 17  # magic, version, params digest, n
FRAME_HEAD = 12  # counter u64, payload u32
FRAMES = 3
DEADLINE_S = 5.0

FUZZ = settings(
    derandomize=True, database=None, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _files():
    """A valid ciphertext file and a valid observation file of FRAMES frames."""
    key = keygen(PARAMS, 3)
    tx = CipherSession(key)
    ct, obs = io.BytesIO(), io.BytesIO()
    ct_w = FrameWriter(ct, N, key.digest())
    obs_w = FrameWriter(obs, N, key.digest(), observations=True)
    noise = np.random.default_rng(0)
    data = bytes(range(7 * FRAMES))
    for m, payload in pack_bits(data, N, PARAMS.L):
        c = tx.encrypt_joint(m)
        ct_w.write_frame(c.counter, payload, c.y)
        obs_w.write_frame(c.counter, payload, c.y + noise.normal(0, 0.3, N))
    return key, ct.getvalue(), obs.getvalue()


KEY, CT_FILE, OBS_FILE = _files()

FIELDS = {  # struct format and interesting values
    "<Q": [0, 1, 2, 2**32, 2**63, 2**64 - 1],
    "<I": [0, 1, N - 1, N + 1, 6, 7, 2**31, 2**32 - 1],
    "<i": [0, 1, -1, 2**31 - 1, -(2**31), 4 * N * PARAMS.L],
    "<d": [float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 5e-324, -0.0, 1.0],
    "<B": [0, 2, 255],
}


@st.composite
def mutated(draw, base: bytes):
    """base with up to four edits: a packed field, a byte, a cut or a splice."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["field", "byte", "truncate", "splice"]))
        if kind == "field":
            fmt = draw(st.sampled_from(sorted(FIELDS)))
            value = draw(st.sampled_from(FIELDS[fmt]))
            size = struct.calcsize(fmt)
            if len(data) < size:
                continue
            at = draw(st.integers(0, len(data) - size))
            data[at : at + size] = struct.pack(fmt, value)
        elif kind == "byte" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.integers(0, 255))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.binary(max_size=24))
    return bytes(data)


def _header_aligned(base: bytes):
    """Edits at frame-aligned offsets of base: counters, payloads, n, coordinates."""
    width = 8 if base[:4] == b"QCLO" else 4
    stride = FRAME_HEAD + width * N

    @st.composite
    def edit(draw):
        data = bytearray(base)
        target = draw(st.sampled_from(["n", "version", "counter", "payload", "coord"]))
        frame = draw(st.integers(0, FRAMES - 1))
        at = FILE_HEAD + frame * stride
        if target == "n":
            data[13:17] = struct.pack("<I", draw(st.sampled_from(FIELDS["<I"])))
        elif target == "version":
            data[4] = draw(st.sampled_from(FIELDS["<B"]))
        elif target == "counter":
            data[at : at + 8] = struct.pack("<Q", draw(st.sampled_from(FIELDS["<Q"])))
        elif target == "payload":
            data[at + 8 : at + 12] = struct.pack("<I", draw(st.sampled_from(FIELDS["<I"])))
        else:
            i = draw(st.integers(0, N - 1))
            fmt = "<d" if width == 8 else "<i"
            pos = at + FRAME_HEAD + i * width
            data[pos : pos + width] = struct.pack(fmt, draw(st.sampled_from(FIELDS[fmt])))
        return bytes(data)

    return edit()


FILES = st.one_of(
    st.binary(max_size=200),
    st.sampled_from([b"QCLC", b"QCLO"]).flatmap(
        lambda magic: st.binary(max_size=200).map(lambda rest: magic + rest)
    ),
    mutated(CT_FILE),
    mutated(OBS_FILE),
    _header_aligned(CT_FILE),
    _header_aligned(OBS_FILE),
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    key = root / "toy.key"
    key.write_text(save_key(KEY))
    return str(key), root / "in.bin", str(root / "out.bin")


def test_valid_files_decrypt(paths):
    key, src, out = paths
    for data, extra in [(CT_FILE, []), (OBS_FILE, ["--sigma", "0.3"])]:
        src.write_bytes(data)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["decrypt", "--key", key, "-i", str(src), "-o", out, *extra]) == 0
        assert err.getvalue() == ""


@FUZZ
@given(FILES)
def test_frame_reader_raises_only_typed_errors(data):
    with deadline(DEADLINE_S):
        try:
            reader = FrameReader(io.BytesIO(data))
            for _, _, coords in reader:
                assert coords.shape == (reader.n,)
        except QclatticeError:
            pass


@FUZZ
@given(FILES, st.sampled_from([[], ["--sigma", "0.3"], ["--sigma", "0"]]),
       st.sampled_from(["abort", "skip"]))
def test_cli_decrypt_exits_0_or_1(paths, data, sigma, on_fail):
    key, src, out = paths
    src.write_bytes(data)
    argv = ["decrypt", "--key", key, "-i", str(src), "-o", out, "--on-fail", on_fail, *sigma]
    with deadline(DEADLINE_S), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1)
