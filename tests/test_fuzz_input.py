"""Fuzzed ciphertext and observation files against FrameReader and CLI decrypt.

Arbitrary bytes and mutated valid files (overwritten header fields,
counters, payload lengths and coordinates, byte flips, truncations) may
only end in a QclatticeError from FrameReader, and in exit 0 or 1 from
`qclattice decrypt`: never another exception, and never a hang (each
example runs under a deadline).

The refusal matrix crosses every entry point that takes a length-n vector
with each malformed vector: each must be refused with that entry point's
typed error, before any cast could truncate, parse or wrap it, except
that observation entry points take any integer or real dtype.  The
scalar refusal matrix does the same for every integer argument, and
checks that a numpy integer gives what the equal Python int gives; the
real refusal matrix does both for every real argument (sigma, VNR, LLR
clip, Wilson interval), and checks that a refused sigma uses no counter
value.
"""

import contextlib
import dataclasses
import io
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import deadline, random_message
from qclattice import CipherParams, CipherSession, keygen, rdf_search
from qclattice.analysis import default_l2, message_expansion
from qclattice.bitmat import PolyMulMatrix, circulants
from qclattice.channel import SweepSpec, add_awgn, run_sweep, wilson_interval
from qclattice.cipher import frame_capacity_bytes, pack_bits, save_key, unpack_bits
from qclattice.cli import main
from qclattice.decoder import DecoderConfig, channel_llr, decode
from qclattice.errors import (
    DecodeFailure,
    FormatError,
    InvalidParams,
    NotLatticePoint,
    QclatticeError,
    int_vector,
    integer,
)
from qclattice.formats import FrameReader, FrameWriter
from qclattice.keystream import BlockPermutation, Lfsr, PermutationStream, ReseedingLfsr
from qclattice.lattice import LatticeCtx, check_sigma
from qclattice.nlf import NlfContext
from qclattice.primitives import poly, poly_id, reciprocal

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


# --- the refusal matrix ------------------------------------------------------

MESSAGE = random_message(np.random.default_rng(9), N, PARAMS.L)
LATTICE = CipherSession(KEY).lattice
NLF = CipherSession(KEY).nlf
CONTROL = np.array([1, 0, 1, 1, 0, 0, 1, 0])
PERM = BlockPermutation(PARAMS.q, [np.arange(PARAMS.q)[::-1]] * PARAMS.v)
SHORT_INTS = np.arange(N, dtype=np.int64) % 7 - 3
POINT = LATTICE.shape(SHORT_INTS)


def _syndrome_ok(lam):
    if not LATTICE.syndrome_ok(lam):
        raise NotLatticePoint("syndrome_ok is False")


def _write(observations, counter=0, payload_len=1):
    """write_frame's output; a refused frame leaves only the file header."""
    def write(coords):
        buf = io.BytesIO()
        w = FrameWriter(buf, N, KEY.digest(), observations)
        header = buf.getvalue()
        try:
            w.write_frame(counter, payload_len, coords)
        except FormatError:
            assert buf.getvalue() == header
            raise
        return buf.getvalue()
    return write


def _session(method, error, *extra, at=0):
    """A fresh session's method of extra with v inserted at position at; a v it
    refuses uses no counter value."""
    def call(v):
        session = CipherSession(KEY)
        args = list(extra)
        args.insert(at, v)
        try:
            return getattr(session, method)(*args)
        except error:
            assert session.counter == 0
            raise
    return call


# name: (call, a valid vector for it, the error that refuses a bad one)
SITES = {
    "encrypt_joint": (_session("encrypt_joint", InvalidParams), MESSAGE, InvalidParams),
    "encrypt_raw": (_session("encrypt_raw", InvalidParams), MESSAGE, InvalidParams),
    "check_constellation": (CipherSession(KEY).check_constellation, MESSAGE, InvalidParams),
    "decrypt_raw": (_session("decrypt_raw", NotLatticePoint),
                    CipherSession(KEY).encrypt_raw(MESSAGE), NotLatticePoint),
    "encode": (LATTICE.encode, SHORT_INTS, InvalidParams),
    "shape": (LATTICE.shape, SHORT_INTS, InvalidParams),
    "encode_inverse": (LATTICE.encode_inverse, POINT, NotLatticePoint),
    "mod_recover": (LATTICE.mod_recover, POINT, NotLatticePoint),
    "syndrome_ok": (_syndrome_ok, POINT, NotLatticePoint),
    "apply_f": (lambda a: NLF.apply_f(a, CONTROL), SHORT_INTS, InvalidParams),
    "invert_f": (lambda x: NLF.invert_f(x, CONTROL), NLF.apply_f(SHORT_INTS, CONTROL),
                 InvalidParams),
    "ciphertext_writer": (_write(False), POINT, FormatError),
    "unpack_bits": (lambda m: unpack_bits([(m, 1)], N, PARAMS.L), MESSAGE, FormatError),
    "permute": (PERM.apply, POINT, InvalidParams),
    "permute_inverse": (PERM.apply_inverse, POINT, InvalidParams),
    "decode": (lambda r: decode(LATTICE, DecoderConfig(), r, 0.3), POINT, InvalidParams),
    "decrypt_joint": (_session("decrypt_joint", InvalidParams, 0.0),
                      CipherSession(KEY).encrypt_joint(MESSAGE).y, InvalidParams),
    "observation_writer": (_write(True), POINT, FormatError),
}


def _fraction(v):
    out = v.astype(np.float64)
    out[0] += 0.25  # an int64 cast truncated it back to v[0]
    return out


def _uint64(v):
    out = np.abs(v).astype(np.uint64)
    out[0] = 2**63  # an int64 cast wrapped it to -2^63
    return out


BAD = {
    "fraction": _fraction,
    "integral": lambda v: v.astype(np.float64),
    "str": lambda v: v.astype(str),  # an int64 cast parsed "-5" as -5
    "uint64": _uint64,
    "bool": lambda v: v != 0,
    "short": lambda v: v[:-1],
    # np.asarray raised ValueError ("inhomogeneous shape")
    "ragged": lambda v: [v[:2].tolist(), v[2:3].tolist()] + v[3:].tolist(),
}

# Entry points that take any integer or real dtype, with what the uint64
# case then meets downstream (None: it returns): 2^63 reaches 2^52.
REAL_SITES = {
    "permute": None,
    "permute_inverse": None,
    "decode": DecodeFailure,
    "decrypt_joint": NotLatticePoint,  # noiseless
    "observation_writer": None,
}


def _outcome(site, case):
    """The error (site, case) must raise, or None where the call returns."""
    if site in REAL_SITES and case in ("fraction", "integral", "uint64"):
        return REAL_SITES[site] if case == "uint64" else None
    return SITES[site][2]


@pytest.mark.parametrize("site", sorted(SITES))
def test_refusal_matrix_sites_take_their_valid_vector(site):
    call, valid, _ = SITES[site]
    call(valid)


@pytest.mark.parametrize("case", sorted(BAD))
@pytest.mark.parametrize("site", sorted(SITES))
def test_refusal_matrix(site, case):
    call, valid, _ = SITES[site]
    bad = BAD[case](valid)
    outcome = _outcome(site, case)
    if outcome is None:
        call(bad)
    else:
        with pytest.raises(outcome):
            call(bad)


@pytest.mark.parametrize("code", sorted(set(np.typecodes["All"])))
def test_int_vector_takes_exactly_the_integer_dtypes_int64_holds(code):
    v = np.zeros(3, dtype=code)
    if v.dtype.kind in "iu" and np.can_cast(v.dtype, np.int64):
        assert int_vector(v, 3, "v").dtype == np.int64
    else:
        with pytest.raises(InvalidParams, match="not an integer type int64 holds"):
            int_vector(v, 3, "v")


# --- the scalar refusal matrix -----------------------------------------------


def _params(field):
    return lambda v: save_key(keygen(dataclasses.replace(PARAMS, **{field: v}), 3))


def _advanced(frame):
    session = CipherSession(KEY)
    session.advance_to(frame)
    return session.counter, session.encrypt_joint(MESSAGE)


# each map's valid input at counter 2, and the arguments after it
MAPS = {
    "encrypt_joint": (MESSAGE,), "encrypt_raw": (MESSAGE,),
    "decrypt_joint": (CipherSession(KEY).encrypt_joint(MESSAGE, counters=2).y.astype(np.float64),
                      0.0),
    "decrypt_raw": (CipherSession(KEY).encrypt_raw(MESSAGE, counters=2),),
}


def _counted(method, block=False):
    """method of its valid frame at the counter v, or of a block of that frame twice at
    counters [2, v], from a session at counter 2; a v it refuses uses no counter value."""
    frame, *extra = MAPS[method]

    def call(v):
        session = CipherSession(KEY)
        session.advance_to(2)
        try:
            if block:
                return getattr(session, method)(np.stack([frame] * 2), *extra, counters=[2, v])
            return getattr(session, method)(frame, *extra, counters=v)
        except InvalidParams:
            assert session.counter == 2
            raise
    return call


def _frame_writer(n):
    buf = io.BytesIO()
    return FrameWriter(buf, n, KEY.digest()).n, buf.getvalue()


def _lattice(limit):
    ctx = LatticeCtx(KEY.code, LATTICE.a, limit)
    return ctx.L, ctx.shape(SHORT_INTS).tolist()


def _nlf(g, d):
    ctx = NlfContext(g, d)
    return ctx.g, ctx.d, ctx.apply_f(SHORT_INTS, CONTROL).tolist()


LFSR_POLY = poly(9)


def _lfsr(length, taps, seed):
    lf = Lfsr(length, taps, seed)
    return lf.length, lf.taps, lf.state, lf.advance(40)


def _stepped(step, k):
    """A fresh 9-bit register's output from advance(k) or jump(k), and its state."""
    lf = Lfsr(9, LFSR_POLY, 5)
    return getattr(lf, step)(k), lf.state


def _reseeding(t, count):
    """next_bits(t, count) on a fresh stream, and the 8 bits after it."""
    stream = ReseedingLfsr(5, 9)
    return stream.next_bits(t, count).tolist(), stream.next_bits(t + count, 8).tolist()


def _perms(q, seeds, j=0, count=2):
    return PermutationStream(q, seeds).next_perm(j, count).tolist()


def _mul_matrix(g, c):
    return [e.tolist() for e in PolyMulMatrix(g, c).gens]


# name: (call, a valid integer for it, the error that refuses a non-integer)
SCALAR_SITES = {
    "keygen.master_seed": (lambda v: save_key(keygen(PARAMS, v)), 3, InvalidParams),
    **{f"CipherParams.{f.name}": (_params(f.name), getattr(PARAMS, f.name), InvalidParams)
       for f in dataclasses.fields(PARAMS)},
    "rdf_search.b": (lambda v: rdf_search(v, 2, 3, 5), 13, InvalidParams),
    "rdf_search.n0": (lambda v: rdf_search(13, v, 3, 5), 2, InvalidParams),
    "rdf_search.dv": (lambda v: rdf_search(13, 2, v, 5), 3, InvalidParams),
    "rdf_search.rng_seed": (lambda v: rdf_search(13, 2, 3, v), 5, InvalidParams),
    "LatticeCtx.shaping_limit": (_lattice, PARAMS.L, InvalidParams),
    "NlfContext.g": (lambda v: _nlf(v, PARAMS.d), NLF.g, InvalidParams),
    "NlfContext.d": (lambda v: _nlf(NLF.g, v), PARAMS.d, InvalidParams),
    "DecoderConfig.max_iterations": (lambda v: DecoderConfig(max_iterations=v), 50,
                                     InvalidParams),
    "DecoderConfig.coset_window": (lambda v: DecoderConfig(coset_window=v), 4, InvalidParams),
    "channel_llr.window": (lambda v: channel_llr(POINT + 0.25, 0.5, v).tolist(), 4,
                           InvalidParams),
    "default_l2.n": (default_l2, N, InvalidParams),
    "message_expansion.L": (lambda v: message_expansion(N, PARAMS.k, v), PARAMS.L, InvalidParams),
    "primitives.poly": (poly, N, InvalidParams),
    "primitives.poly_id": (poly_id, N, InvalidParams),
    "primitives.reciprocal": (reciprocal, N, InvalidParams),
    "SweepSpec.trials_per_point": (lambda v: SweepSpec(0.0, 0.0, 1.0, v, 0), 2, InvalidParams),
    "SweepSpec.rng_seed": (lambda v: SweepSpec(0.0, 0.0, 1.0, 1, v), 2, InvalidParams),
    "run_sweep.workers": (lambda v: run_sweep(KEY, SweepSpec(12.0, 12.0, 1.0, 2, 3), v), 1,
                          InvalidParams),
    "frame_capacity_bytes.n": (lambda v: frame_capacity_bytes(v, PARAMS.L), N, InvalidParams),
    "frame_capacity_bytes.L": (lambda v: frame_capacity_bytes(N, v), PARAMS.L, InvalidParams),
    "pack_bits.L": (lambda v: [(m.tolist(), k) for m, k in pack_bits(b"scalar", N, v)],
                    PARAMS.L, InvalidParams),
    "unpack_bits.L": (lambda v: unpack_bits([(MESSAGE, 1)], N, v), PARAMS.L, InvalidParams),
    "unpack_bits.payload_len": (lambda v: unpack_bits([(MESSAGE, v)], N, PARAMS.L), 1,
                                FormatError),
    "advance_to.frame": (_advanced, 2, InvalidParams),
    "FrameWriter.n": (_frame_writer, N, FormatError),
    "write_frame.counter": (lambda v: _write(False, v)(POINT), 2, FormatError),
    "write_frame.payload_len": (lambda v: _write(False, 0, v)(POINT), 2, FormatError),
    "Lfsr.length": (lambda v: _lfsr(v, LFSR_POLY, 5), 9, InvalidParams),
    "Lfsr.poly": (lambda v: _lfsr(9, v, 5), LFSR_POLY, InvalidParams),
    "Lfsr.seed": (lambda v: _lfsr(9, LFSR_POLY, v), 5, InvalidParams),
    "Lfsr.advance": (lambda v: _stepped("advance", v), 40, InvalidParams),
    "Lfsr.jump": (lambda v: _stepped("jump", v), 40, InvalidParams),
    # seek is the position t of next_bits(t, count), next_bits its count
    "ReseedingLfsr.next_bits": (lambda v: _reseeding(40, v), 40, InvalidParams),
    "ReseedingLfsr.seek": (lambda v: _reseeding(v, 40), 40, InvalidParams),
    "PermutationStream.q": (lambda v: _perms(v, [3, 5]), PARAMS.q, InvalidParams),
    "PermutationStream.seeds": (lambda v: _perms(PARAMS.q, [v, 5]), 3, InvalidParams),
    "PermutationStream.next_perm.j": (lambda v: _perms(PARAMS.q, [3, 5], v), 2, InvalidParams),
    "PermutationStream.next_perm.count": (lambda v: _perms(PARAMS.q, [3, 5], 2, v), 2,
                                          InvalidParams),
    "PolyMulMatrix.g": (lambda v: _mul_matrix(v, 5), NLF.g, InvalidParams),
    "PolyMulMatrix.c": (lambda v: _mul_matrix(NLF.g, v), 5, InvalidParams),
    "circulants.b": (lambda v: circulants(v, [1, 2]).tolist(), PARAMS.b, InvalidParams),
    "circulants.row": (lambda v: circulants(PARAMS.b, [1, v]).tolist(), 5, InvalidParams),
    "wilson_interval.trials": (lambda v: wilson_interval(1, v), 4, InvalidParams),
    **{f"{m}.counters": (_counted(m), 2, InvalidParams) for m in MAPS},
    **{f"{m}.block_counters": (_counted(m, block=True), 2, InvalidParams) for m in MAPS},
}
# None is the default of these sites: $QCLATTICE_WORKERS, else 1, or from the counter on
NONE_IS_DEFAULT = {"run_sweep.workers", *(f"{m}.counters" for m in MAPS)}

SCALAR_BAD = {
    "fraction": 2.5,
    "integral_float": 2.0,
    "str": "2",
    "bool": True,
    "none": None,
    "np_float64": np.float64(2),
}


@pytest.mark.parametrize("case", sorted(SCALAR_BAD))
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_scalar_refusal_matrix(site, case):
    call, _, error = SCALAR_SITES[site]
    if site in NONE_IS_DEFAULT and case == "none":
        call(None)
        return
    with pytest.raises(error):
        call(SCALAR_BAD[case])


@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_scalar_sites_take_numpy_integers_as_python_ints(site):
    # repr tells np.int64(2) from 2, so a result must not carry the numpy type
    call, valid, _ = SCALAR_SITES[site]
    assert repr(call(np.int64(valid))) == repr(call(valid))


@pytest.mark.parametrize("site, value", [
    ("NlfContext.g", -3),  # was taken as a degree-1 polynomial
    ("NlfContext.g", 1),
    ("NlfContext.d", -1),
    ("LatticeCtx.shaping_limit", 0),
    ("frame_capacity_bytes.n", 0),  # returned 0
    ("frame_capacity_bytes.L", 3),  # returned a capacity
    ("unpack_bits.L", 3),  # read one bit per coordinate
    ("unpack_bits.payload_len", -1),  # sliced off the last byte
    ("unpack_bits.payload_len", 7),  # one byte over the toy frame's capacity
    ("advance_to.frame", -1),
    ("channel_llr.window", 0),  # marginalized the nearest translate alone
    ("channel_llr.window", -1),  # numpy's ValueError
    ("default_l2.n", 0),  # ValueError: math domain error
    ("default_l2.n", -3),
    ("message_expansion.L", 1),  # ValueError
    ("primitives.poly", -1),  # ValueError: negative shift count
    ("primitives.reciprocal", -1),
    ("FrameWriter.n", -1),  # struct.error
    ("FrameWriter.n", 2**32),
    ("write_frame.counter", 2**64),
    ("write_frame.payload_len", 2**32),
    ("Lfsr.length", 0),
    ("Lfsr.seed", 1 << 9 | 3),  # ran as seed 3
    ("Lfsr.seed", -1),  # ran as state 511
    ("Lfsr.poly", LFSR_POLY | 1 << 20),  # the stray bit was dropped
    ("Lfsr.poly", -1),
    ("ReseedingLfsr.seek", -1),
    ("PermutationStream.q", 0),
    ("PermutationStream.seeds", 1 << 4 | 6),  # q = 13: drew seed 6's permutations
    ("PermutationStream.seeds", -10),  # wrapped to seed 6
    ("PolyMulMatrix.g", 1),  # degree 0
    ("PolyMulMatrix.g", 2),  # g(0) = 0
    ("PolyMulMatrix.c", -1),
    ("circulants.b", 0),
    ("circulants.row", -1),
    ("circulants.row", 1 << PARAMS.b),  # spilled into its neighbour's bits
    ("wilson_interval.trials", -2),  # (3.26, -0.08): lower above upper
    *((f"{m}.{form}", -1) for m in MAPS for form in ("counters", "block_counters")),
])
def test_scalar_range_refusals(site, value):
    call, _, error = SCALAR_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("value", [-1, -3, np.int64(-1)])
@pytest.mark.parametrize("site", ["Lfsr.advance", "Lfsr.jump", "ReseedingLfsr.next_bits",
                                  "PermutationStream.next_perm.j",
                                  "PermutationStream.next_perm.count"])
def test_negative_stream_positions_and_counts_are_refused(site, value):
    # advance(-1) returned 0, next_bits(-3) raised numpy's ValueError, and a
    # permutation frame of -1 wrapped to the last frame of the period
    with pytest.raises(InvalidParams, match="must be an integer in \\[0, inf\\)"):
        SCALAR_SITES[site][0](value)


@pytest.mark.parametrize("counters", [[2], [2, 2, 2], 2, "2"], ids=["1", "3", "int", "str"])
@pytest.mark.parametrize("method", sorted(MAPS))
def test_block_counters_of_the_wrong_length_are_refused(method, counters):
    frame, *extra = MAPS[method]
    session = CipherSession(KEY)
    with pytest.raises(InvalidParams, match="^a block of 2 frames needs 2 frame counters$"):
        getattr(session, method)(np.stack([frame] * 2), *extra, counters=counters)
    assert session.counter == 0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("site", ["keygen.master_seed", "SweepSpec.trials_per_point",
                                  "unpack_bits.payload_len", "FrameWriter.n",
                                  "write_frame.counter", "write_frame.payload_len",
                                  "circulants.row"])
def test_bounded_scalar_sites_refuse_a_huge_integer(site, sign):
    # the refusal formatted the value with repr, which raised ValueError
    # ("Exceeds the limit (4300 digits)") instead of the site's error
    call, _, error = SCALAR_SITES[site]
    with pytest.raises(error, match="not a 16610-bit int$"):
        call(sign * 10**5000)


def test_integer_names_a_huge_fraction_by_its_size():
    with pytest.raises(InvalidParams, match="not a 16609-bit Fraction$"):
        integer(Fraction(10**5000, 3), "x", 0, 10)


@pytest.mark.parametrize("shipped", [poly, reciprocal])
@pytest.mark.parametrize("deg", [258, 1496])
def test_shipped_polynomials_take_numpy_degrees_past_64_bits(shipped, deg):
    # x^deg is built from the Python int, since 1 << np.int64(deg) overflows past 63
    assert repr(shipped(np.int64(deg))) == repr(shipped(deg))


@pytest.mark.parametrize("digest", [
    "00" * 4,  # was zero-padded to 8 bytes
    "ab" * 12,  # was cut to its first 8 bytes
    "zz" * 8,  # ValueError from bytes.fromhex
    None,  # TypeError
    b"\x00" * 8,
])
def test_frame_writer_refuses_a_malformed_digest(digest):
    buf = io.BytesIO()
    with pytest.raises(FormatError, match="params digest"):
        FrameWriter(buf, N, digest)
    assert buf.getvalue() == b""


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("x", [
    "abc",  # ValueError from the float cast
    [[1.0, 2.0], [3.0]],  # ValueError: inhomogeneous shape
    None,  # became nan
    [1 + 2j, 3],  # lost its imaginary part
    np.array([True, False]),
    np.array([b"1", b"2"]),
], ids=["str", "ragged", "none", "complex", "bool", "bytes"])
def test_add_awgn_refuses_a_non_numeric_x(x, sigma):
    with pytest.raises(InvalidParams, match="x"):
        add_awgn(x, sigma, np.random.default_rng(0))


@pytest.mark.parametrize("site, value", [
    ("unpack_bits.payload_len", 6),
    ("write_frame.counter", 2**64 - 1),
    ("write_frame.payload_len", 2**32 - 1),
    ("FrameWriter.n", 0),
    ("Lfsr.seed", (1 << 9) - 1),
    ("Lfsr.poly", (2 << 9) - 1),
    ("PermutationStream.seeds", 15),
])
def test_scalar_range_edges_are_taken(site, value):
    SCALAR_SITES[site][0](value)


# --- the real refusal matrix -------------------------------------------------

OBSERVATION = CipherSession(KEY).encrypt_joint(MESSAGE).y

# name: (call, a valid real for it, exact in float32)
REAL_ARG_SITES = {
    "check_sigma": (check_sigma, 0.5),
    "vnr_sigma": (LATTICE.vnr_sigma, 2.5),
    "channel_llr.sigma": (lambda v: channel_llr(POINT + 0.25, v, 4).tolist(), 0.5),
    "channel_llr.clip": (lambda v: channel_llr(POINT + 0.25, 0.5, 4, v).tolist(), 2.5),
    "decode.sigma": (lambda v: decode(LATTICE, DecoderConfig(), POINT, v).tolist(), 0.5),
    "DecoderConfig.llr_clip": (lambda v: DecoderConfig(llr_clip=v), 30.0),
    "decrypt_joint.sigma": (_session("decrypt_joint", InvalidParams, OBSERVATION, at=1), 0.5),
    "add_awgn.sigma": (lambda v: add_awgn(POINT, v, np.random.default_rng(0)).tolist(), 0.5),
    "SweepSpec.start": (lambda v: SweepSpec(v, 12.0, 1.0, 1, 0), 12.0),
    "SweepSpec.stop": (lambda v: SweepSpec(0.0, v, 1.0, 1, 0), 2.0),
    "SweepSpec.step": (lambda v: SweepSpec(0.0, 2.0, v, 1, 0), 0.5),
    "wilson_interval.successes": (lambda v: wilson_interval(v, 4), 1.5),
    "wilson_interval.z": (lambda v: wilson_interval(1, 4, v), 1.5),
}

REAL_ARG_BAD = {
    "str": "0.5",  # TypeError from arithmetic or a comparison
    "none": None,
    "bool": True,  # taken as 1.0
    "complex": 0.5 + 0j,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": -float("inf"),  # noiseless at decrypt_joint
    "huge_int": 10**400,  # OverflowError from float()
}


@pytest.mark.parametrize("case", sorted(REAL_ARG_BAD))
@pytest.mark.parametrize("site", sorted(REAL_ARG_SITES))
def test_real_refusal_matrix(site, case):
    with pytest.raises(InvalidParams):
        REAL_ARG_SITES[site][0](REAL_ARG_BAD[case])


@pytest.mark.parametrize("kind", [np.float64, np.float32])
@pytest.mark.parametrize("site", sorted(REAL_ARG_SITES))
def test_real_sites_take_numpy_floats_as_python_floats(site, kind):
    # repr tells np.float64(0.5) from 0.5, so a result must not carry the numpy type
    call, valid = REAL_ARG_SITES[site]
    assert repr(call(kind(valid))) == repr(call(valid))


@pytest.mark.parametrize("site, value", [
    ("channel_llr.clip", 0.0),  # clipped every LLR to 0
    ("channel_llr.clip", -1.0),  # clipped every LLR to -1
    ("DecoderConfig.llr_clip", 0.0),
    ("check_sigma", 0.0),
    ("check_sigma", -0.5),
    ("decrypt_joint.sigma", 1e-200),  # sigma^2 underflows; used a counter value
    ("SweepSpec.step", 0.0),
    ("SweepSpec.step", -1.0),
    ("wilson_interval.successes", 5.0),  # (0.0, 1.0) with a RuntimeWarning
    ("wilson_interval.successes", -0.5),
    ("wilson_interval.z", 0.0),  # (0.25, 0.25)
    ("wilson_interval.z", -1.5),  # (0.61, 0.07)
])
def test_real_range_refusals(site, value):
    with pytest.raises(InvalidParams):
        REAL_ARG_SITES[site][0](value)


@pytest.mark.parametrize("sigma", ["0.5", float("inf"), 1e-200])
def test_refused_sigma_leaves_the_session_on_frame_0(sigma):
    # each used to draw frame 0's material, so frame 0 then failed as NotLatticePoint
    session = CipherSession(KEY)
    with pytest.raises(InvalidParams):
        session.decrypt_joint(OBSERVATION, sigma)
    assert np.array_equal(session.decrypt_joint(OBSERVATION, 0.0), MESSAGE)
