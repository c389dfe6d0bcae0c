import io
import struct

import numpy as np
import pytest

from qclattice.cipher import CipherSession, keygen, CipherParams
from qclattice.errors import FormatError
from qclattice.formats import (
    FrameReader,
    FrameWriter,
    fields_to_hex,
    hex_to_fields,
    params_digest,
)


def test_hex_bit_roundtrip():
    # one-bit fields: bit i of the run is bit i % 8 of byte i // 8
    rng = np.random.default_rng(0)
    for nbits in (1, 7, 8, 9, 36, 61, 108):
        bits = rng.integers(0, 2, size=nbits).tolist()
        text = fields_to_hex(bits, 1)
        assert len(text) == 2 * ((nbits + 7) // 8)
        assert hex_to_fields(text, nbits, 1) == bits
    assert fields_to_hex([1, 0, 0, 0, 0, 0, 0, 0, 1], 1) == "0101"
    assert fields_to_hex([], 6) == ""
    assert hex_to_fields("", 0, 6) == []


def test_hex_int_roundtrip():
    for v, nbits in ((0x1AB, 9), (1, 1), (0, 4), ((1 << 61) - 1, 61)):
        assert hex_to_fields(fields_to_hex([v], nbits), 1, nbits) == [v]
    assert fields_to_hex([0x1AB], 9) == "ab01"
    assert fields_to_hex([1, 2, 3, 0], 6) == "813000"
    assert hex_to_fields("813000", 4, 6) == [1, 2, 3, 0]
    for text, message in (
        ("zz", "bad hex"), ("0", "bad hex"), ("0 f", "bad hex"),
        ("", "not 1 bytes"), ("0f00", "not 1 bytes"),
        ("ff", "nonzero padding"), ("1f", "nonzero padding"),
    ):
        with pytest.raises(FormatError, match=message):
            hex_to_fields(text, 1, 4)


def test_params_digest_stable():
    a = params_digest(43, 6, 3, 43, 16, 61)
    b = params_digest(43, 6, 3, 43, 16, 61)
    assert a == b and len(a) == 16
    assert params_digest(43, 6, 3, 43, 16, 62) != a


def test_ciphertext_frame_roundtrip():
    buf = io.BytesIO()
    digest = params_digest(13, 2, 3, 13, 4, 8)
    w = FrameWriter(buf, 26, digest, observations=False)
    frames = [
        (0, 13, np.arange(26, dtype=np.int64) - 13),
        (1, 5, np.full(26, -7, dtype=np.int64)),
    ]
    for c, p, x in frames:
        w.write_frame(c, p, x)
    buf.seek(0)
    r = FrameReader(buf)
    assert not r.observations
    assert r.digest == digest and r.n == 26
    got = list(r)
    assert len(got) == 2
    for (c, p, x), (gc, gp, gx) in zip(frames, got):
        assert (c, p) == (gc, gp)
        assert np.array_equal(x, gx)
        assert gx.dtype == np.int64


def test_observation_frame_roundtrip():
    buf = io.BytesIO()
    digest = params_digest(13, 2, 3, 13, 4, 8)
    w = FrameWriter(buf, 4, digest, observations=True)
    x = np.array([0.25, -3.75, 1e6, -0.0])
    w.write_frame(7, 2, x)
    buf.seek(0)
    r = FrameReader(buf)
    assert r.observations
    counter, payload, coords = next(iter(r))
    assert (counter, payload) == (7, 2)
    assert np.array_equal(coords, x)


def test_reader_rejects_garbage_and_truncation():
    with pytest.raises(FormatError):
        FrameReader(io.BytesIO(b"XXXXXXXXXXXXXXXXXXXX"))
    buf = io.BytesIO()
    w = FrameWriter(buf, 4, params_digest(1, 2, 1, 1, 2, 8))
    w.write_frame(0, 1, np.ones(4, dtype=np.int64))
    data = buf.getvalue()
    truncated = io.BytesIO(data[:-3])
    r = FrameReader(truncated)
    with pytest.raises(FormatError):
        list(r)


class _RecordingStream(io.BytesIO):
    """BytesIO that remembers the largest read it was asked for."""

    largest = 0

    def read(self, size=-1):
        self.largest = max(self.largest, size)
        return super().read(size)


def test_reader_reads_a_crafted_frame_length_in_bounded_pieces():
    # a buffered file allocates a whole read request up front, so a header
    # n of 2^32 - 1 made next() ask for 32 GiB and escape as MemoryError
    head = struct.pack("<4sB8sI", b"QCLO", 1, bytes(8), 2**32 - 1)
    stream = _RecordingStream(head + struct.pack("<QI", 0, 0) + bytes(64))
    reader = FrameReader(stream)
    with pytest.raises(FormatError, match="truncated frame body"):
        next(reader)
    assert stream.largest <= 1 << 20


def test_int32_overflow_rejected():
    buf = io.BytesIO()
    w = FrameWriter(buf, 2, params_digest(1, 2, 1, 1, 2, 8))
    with pytest.raises(FormatError):
        w.write_frame(0, 0, np.array([2**40, 0], dtype=np.int64))


@pytest.mark.parametrize("observations", [False, True])
def test_writer_refuses_a_bad_frame_before_writing(observations):
    # the frame head used to go out first, and an out-of-range counter or
    # payload length escaped as struct.error
    buf = io.BytesIO()
    w = FrameWriter(buf, 2, params_digest(1, 2, 1, 1, 2, 8), observations)
    header = buf.getvalue()
    good = np.array([1, -1])
    bad = [(0, 0, np.array([1, -1, 1])), (-1, 0, good), (2**64, 0, good),
           (0, -1, good), (0, 2**32, good)]
    if not observations:
        bad += [(0, 0, np.array([2**40, 0])), (0, 0, np.array([-(2**63), 0]))]
    for counter, payload_len, coords in bad:
        with pytest.raises(FormatError):
            w.write_frame(counter, payload_len, coords)
        assert buf.getvalue() == header
    edge = [2**31 - 1, -(2**31)]
    w.write_frame(2**64 - 1, 2**32 - 1, np.array(edge))
    buf.seek(0)
    ((counter, payload_len, coords),) = FrameReader(buf)
    assert (counter, payload_len, coords.tolist()) == (2**64 - 1, 2**32 - 1, edge)


def test_observation_file_decrypts_under_noise(tmp_path):
    """End-to-end exercise of the float observation format."""
    params = CipherParams(b=13, n0=2, dv=3, q=13, L=4, d=8)
    key = keygen(params, 8)
    tx = CipherSession(key)
    rng = np.random.default_rng(1)
    sigma = tx.lattice.vnr_sigma(9.0)

    msgs = []
    path = tmp_path / "obs.bin"
    with open(path, "wb") as fh:
        w = FrameWriter(fh, params.n, key.digest(), observations=True)
        for j in range(10):
            m = np.empty(params.n, dtype=np.int64)
            m[0::2] = rng.integers(0, 4, size=params.n // 2)
            m[1::2] = rng.integers(-4, 0, size=params.n // 2)
            msgs.append(m)
            ct = tx.encrypt_joint(m)
            w.write_frame(ct.counter, 0, ct.y + rng.normal(0, sigma, params.n))

    rx = CipherSession(key)
    with open(path, "rb") as fh:
        r = FrameReader(fh)
        assert r.observations
        for (counter, _, coords), m in zip(r, msgs):
            rx.advance_to(counter)
            assert np.array_equal(rx.decrypt_joint(coords, sigma), m)
