"""Key, ciphertext and observation file formats.

Key files are text in a fixed field order.  Each secret field is a run of
fixed-width values packed little-endian into exactly ceil(count*width/8)
bytes of hex, first value least significant, with zero padding bits.

Ciphertext and observation files are binary: a file header (magic,
version, params digest, frame length n) followed by frames of [counter u64
LE, payload byte count u32 LE, n coordinates] with int32 LE coordinates
for exact ciphertexts and float64 LE for channel observations.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import FormatError, int_vector, integer, vector

KEY_MAGIC = "qclattice-key"
KEY_VERSION = 1
KEY_FIELDS = (  # in file order
    "version", "b", "n0", "dv", "q", "L", "d",
    "poly_nlf", "poly_e", "poly_h", "poly_perm",
    "supports", "s", "h_seed", "t", "digest",
)
CT_MAGIC = b"QCLC"
OBS_MAGIC = b"QCLO"
FILE_VERSION = 1

_FILE_HEAD = struct.Struct("<4sB8sI")
_FRAME_HEAD = struct.Struct("<QI")
_READ_CHUNK = 1 << 20
_INT32 = np.iinfo(np.int32)


def params_digest(b: int, n0: int, dv: int, q: int, L: int, d: int) -> str:
    """8-byte hex digest binding ciphertexts to the generating parameters."""
    text = f"b={b},n0={n0},dv={dv},q={q},L={L},d={d}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fields_to_hex(values, width: int) -> str:
    """Hex of ``width``-bit values; value i holds bits [i*width, (i+1)*width).

    A value outside [0, 2^width), which would read back as others, raises FormatError.
    """
    packed = 0
    for i, v in enumerate(values):
        packed |= integer(v, "field value", 0, 1 << width, FormatError) << (i * width)
    return packed.to_bytes((len(values) * width + 7) // 8, "little").hex()


def hex_to_fields(text: str, count: int, width: int) -> list:
    """Inverse of fields_to_hex for exactly ``count`` values."""
    nbits = count * width
    try:
        raw = bytes.fromhex(text)
    except ValueError as e:
        raise FormatError(f"bad hex field {text!r}") from e
    if len(raw) != (nbits + 7) // 8:
        raise FormatError(f"hex field {text!r} is not {(nbits + 7) // 8} bytes")
    packed = int.from_bytes(raw, "little")
    if packed >> nbits:
        raise FormatError(f"nonzero padding bits in hex field {text!r}")
    mask = (1 << width) - 1
    return [packed >> (i * width) & mask for i in range(count)]


def _check_key_fields(fields: dict):
    missing = [f for f in KEY_FIELDS if f not in fields]
    if missing:
        raise FormatError(f"missing key fields: {missing}")


def write_key_text(fields: dict) -> str:
    """Render the key file; field order is part of the format."""
    _check_key_fields(fields)
    lines = [KEY_MAGIC] + [f"{name} = {fields[name]}" for name in KEY_FIELDS]
    return "\n".join(lines) + "\n"


def read_key_text(text: str) -> dict:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != KEY_MAGIC:
        raise FormatError("not a key file")
    fields = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise FormatError(f"bad key line {ln!r}")
        name, _, value = ln.partition("=")
        name = name.strip()
        if name in fields:
            raise FormatError(f"duplicate key field {name!r}")
        fields[name] = value.strip()
    if fields.get("version") != str(KEY_VERSION):
        raise FormatError("unsupported key version")
    unknown = [f for f in fields if f not in KEY_FIELDS]
    if unknown:
        raise FormatError(f"unknown key fields: {unknown}")
    _check_key_fields(fields)
    return fields


class FrameWriter:
    """Streaming writer for ciphertext/observation files."""

    def __init__(self, fh, n: int, digest: str, observations: bool = False):
        """Write the file header, or raise FormatError and write nothing.

        ``digest`` must be 8 bytes of hex, as ``params_digest`` returns.
        """
        self.fh = fh
        self.n = integer(n, "frame length n", 0, 1 << 32, FormatError)
        try:
            raw = bytes.fromhex(digest)
        except (TypeError, ValueError):
            raw = b""
        if len(raw) != 8:
            raise FormatError(f"params digest must be 8 bytes of hex, not {digest!r}")
        self.observations = observations
        magic = OBS_MAGIC if observations else CT_MAGIC
        fh.write(_FILE_HEAD.pack(magic, FILE_VERSION, raw, self.n))

    def write_frame(self, counter: int, payload_len: int, coords: np.ndarray):
        """Append one frame, or raise FormatError and write nothing.

        The counter must be an integer that fits u64 and the payload length
        one that fits u32 (``errors.integer``); exact coordinates an integer
        dtype within int32, observations any integer or real dtype (``vector``).
        """
        counter = integer(counter, "frame counter", 0, 1 << 64, FormatError)
        payload_len = integer(payload_len, "payload length", 0, 1 << 32, FormatError)
        if self.observations:
            arr = vector(coords, self.n, "frame", FormatError).astype("<f8", copy=False)
        else:
            arr = int_vector(coords, self.n, "frame", FormatError)
            if ((arr < _INT32.min) | (arr > _INT32.max)).any():
                raise FormatError("coordinate exceeds int32 range")
            arr = arr.astype("<i4")
        self.fh.write(_FRAME_HEAD.pack(counter, payload_len) + arr.tobytes())


class FrameReader:
    """Streaming reader; iterates (counter, payload_len, coords)."""

    def __init__(self, fh):
        self.fh = fh
        head = fh.read(_FILE_HEAD.size)
        if head[:4] == CT_MAGIC:
            self.observations = False
        elif head[:4] == OBS_MAGIC:
            self.observations = True
        else:
            raise FormatError("not a ciphertext or observation file")
        if len(head) != _FILE_HEAD.size:
            raise FormatError("truncated file header")
        _, ver, digest, self.n = _FILE_HEAD.unpack(head)
        if ver != FILE_VERSION:
            raise FormatError("unsupported file version")
        self.digest = digest.hex()
        self._coord_bytes = 8 * self.n if self.observations else 4 * self.n

    def __iter__(self):
        return self

    def _read(self, size: int) -> bytes:
        """Up to size bytes, asked for in pieces of at most _READ_CHUNK.

        A buffered file allocates the whole request before reading, so a
        crafted frame length n (up to 2^32 - 1) must not become one read.
        """
        parts = []
        while size > 0:
            part = self.fh.read(min(size, _READ_CHUNK))
            if not part:
                break
            parts.append(part)
            size -= len(part)
        return b"".join(parts)

    def __next__(self):
        head = self.fh.read(_FRAME_HEAD.size)
        if len(head) == 0:
            raise StopIteration
        if len(head) != _FRAME_HEAD.size:
            raise FormatError("truncated frame header")
        counter, payload_len = _FRAME_HEAD.unpack(head)
        raw = self._read(self._coord_bytes)
        if len(raw) != self._coord_bytes:
            raise FormatError("truncated frame body")
        if self.observations:
            coords = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        else:
            coords = np.frombuffer(raw, dtype="<i4").astype(np.int64)
        return counter, payload_len, coords
