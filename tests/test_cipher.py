import hashlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAPER_PARAMS, random_message
from qclattice.analysis import key_size_bits
from qclattice.cipher import (
    CipherParams,
    CipherSession,
    frame_capacity_bytes,
    keygen,
    load_key,
    pack_bits,
    save_key,
    unpack_bits,
)
from qclattice.errors import (
    ConstellationViolation,
    FormatError,
    InvalidParams,
    NotInLattice,
    NotLatticePoint,
    QclatticeError,
)
from qclattice.formats import KEY_VERSION, fields_to_hex, write_key_text
from qclattice.primitives import poly_id, supported_degrees

TOY = CipherParams(b=13, n0=2, dv=3, q=13, L=4, d=8)


def test_keygen_paper_key_size():
    assert key_size_bits(PAPER_PARAMS) == 214


def test_keygen_deterministic():
    assert keygen(TOY, 99) == keygen(TOY, 99)
    assert keygen(TOY, 99) != keygen(TOY, 100)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, True, 1.0])
def test_keygen_takes_a_64_bit_seed(seed):
    with pytest.raises(InvalidParams):
        keygen(TOY, seed)


def test_keygen_seed_range_edges():
    assert save_key(keygen(TOY, 2**64 - 1)) != save_key(keygen(TOY, 0))


def test_keygen_rejects_even_dv():
    with pytest.raises(InvalidParams):
        keygen(CipherParams(b=13, n0=2, dv=4, q=13, L=4, d=8), 1)


def test_keygen_rejects_bad_L():
    with pytest.raises(InvalidParams):
        keygen(CipherParams(b=13, n0=2, dv=3, q=13, L=12, d=8), 1)


def test_keygen_rejects_mismatched_q():
    with pytest.raises(InvalidParams):
        keygen(CipherParams(b=13, n0=2, dv=3, q=26, L=4, d=8), 1)


def test_validate_bounds_L_by_int32_frames():
    # shaped coordinates reach 2nL - 1 <= 2^31 - 1 exactly when nL <= 2^30
    CipherParams(b=43, n0=6, dv=3, q=43, L=2**21, d=61).validate()
    with pytest.raises(InvalidParams, match="n \\* L"):
        CipherParams(b=43, n0=6, dv=3, q=43, L=2**22, d=61).validate()


def _crafted_key_text(p):
    """Well-formed key text for any parameter set, written without keygen.

    Every secret value is 1 (supports 0..dv-1) and every poly_* id is the
    shipped one for its register's degree (x^deg + 1 where none is
    shipped), so only validate can refuse it.
    """
    secret = {"supports": list(range(p.dv)) * p.n0, "s": [1], "h_seed": [1], "t": [1] * p.v}
    fields = {"version": KEY_VERSION, "b": p.b, "n0": p.n0, "dv": p.dv, "q": p.q,
              "L": p.L, "d": p.d, "digest": p.digest()}
    for name, deg in p.poly_fields():
        fields[name] = poly_id(deg) if deg in supported_degrees() else f"{deg}:0"
    for name, _, width in p.secret_fields():
        fields[name] = fields_to_hex(secret[name], width)
    return write_key_text(fields)


def test_validate_caps_n_at_the_largest_nlf_degree():
    # n = 1496 is the largest degree keygen has an NLF polynomial for
    largest = CipherParams(b=187, n0=8, dv=5, q=187, L=16, d=77)
    largest.validate()
    assert load_key(_crafted_key_text(largest)).params == largest
    # n = 1512, and n = 65498, whose session used to allocate ~4 GiB of dense
    # H; n = 84 is below the cap but has no NLF polynomial, so keygen failed late
    for p in (CipherParams(b=189, n0=8, dv=5, q=189, L=16, d=77),
              CipherParams(b=32749, n0=2, dv=3, q=32749, L=2, d=8),
              CipherParams(b=42, n0=2, dv=3, q=42, L=4, d=8)):
        with pytest.raises(InvalidParams, match="no shipped NLF polynomial"):
            p.validate()
        with pytest.raises(InvalidParams, match="no shipped NLF polynomial"):
            load_key(_crafted_key_text(p))


@pytest.mark.parametrize("b, dv", [(3, 3), (3, 5), (13, 13), (13, 15), (13, -1)])
def test_validate_rejects_dv_outside_1_to_b(b, dv):
    with pytest.raises(InvalidParams, match="dv must be in"):
        CipherParams(b=b, n0=2, dv=dv, q=b, L=4, d=8).validate()


def test_joint_roundtrip_noiseless(toy_key):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    rng = np.random.default_rng(0)
    n, L = toy_key.params.n, toy_key.params.L
    for _ in range(300):
        m = random_message(rng, n, L)
        ct = tx.encrypt_joint(m)
        assert (ct.y % 2 != 0).all()
        assert np.array_equal(rx.decrypt_joint(ct.y.astype(float), 0.0), m)


def test_joint_ciphertext_region_bounds(toy_key):
    # block-aligned permutation keeps systematic and parity blocks apart:
    # first (n0-1) blocks obey |y| <= nL+1, the last |y| <= 2nL-1
    tx = CipherSession(toy_key)
    rng = np.random.default_rng(1)
    p = toy_key.params
    for _ in range(300):
        ct = tx.encrypt_joint(random_message(rng, p.n, p.L))
        sys_part = ct.y[: p.k]
        par_part = ct.y[p.k :]
        assert (np.abs(sys_part) <= p.n * p.L + 1).all()
        assert (np.abs(par_part) <= 2 * p.n * p.L - 1).all()


def test_joint_rejects_constellation_violation(toy_key):
    tx = CipherSession(toy_key)
    m = np.zeros(toy_key.params.n, dtype=np.int64)
    m[1::2] = -1
    m[0] = toy_key.params.L  # even-pair coordinate too large
    with pytest.raises(ConstellationViolation, match="even-pair"):
        tx.encrypt_joint(m)
    m[1] = 0  # odd-pair coordinate must be negative; the even one is named first
    with pytest.raises(ConstellationViolation, match="even-pair"):
        tx.encrypt_joint(m)
    m[0] = 0
    with pytest.raises(ConstellationViolation, match="odd-pair"):
        tx.encrypt_joint(m)
    m[1] = -toy_key.params.L - 1
    with pytest.raises(ConstellationViolation, match="odd-pair"):
        tx.encrypt_joint(m)
    m[0::2], m[1::2] = toy_key.params.L - 1, -toy_key.params.L  # the corners pass
    tx.check_constellation(m)


def test_raw_roundtrip_large_range(toy_key):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    rng = np.random.default_rng(2)
    n = toy_key.params.n
    for _ in range(300):
        m = rng.integers(-(10**6), 10**6, size=n)
        assert np.array_equal(rx.decrypt_raw(tx.encrypt_raw(m)), m)


def test_raw_zero_message(toy_key):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    m = np.zeros(toy_key.params.n, dtype=np.int64)
    y = tx.encrypt_raw(m)
    assert (y % 2 != 0).all()
    assert not rx.decrypt_raw(y).any()


def test_raw_detects_even_coordinate(toy_key):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    y = tx.encrypt_raw(np.zeros(toy_key.params.n, dtype=np.int64))
    y[5] += 1
    with pytest.raises(NotLatticePoint):
        rx.decrypt_raw(y)


def test_decrypt_raw_refuses_non_integer_ciphertext(paper_key):
    # an int64 cast used to truncate y + 0.3 back to y, parse "5" as 5 or
    # read y back from its uint64 wrap, and decrypt it
    tx, rx = CipherSession(paper_key), CipherSession(paper_key)
    y = tx.encrypt_raw(np.arange(paper_key.params.n))
    for bad in (y.astype(np.float64) + 0.3, y.astype(str), y.astype(np.uint64)):
        with pytest.raises(NotLatticePoint, match="not an integer type"):
            rx.decrypt_raw(bad)
    assert rx.counter == 0


def test_raw_bound_keeps_the_ciphertext_inside_int64():
    for p in (PAPER_PARAMS, TOY):
        bound = 2 * (p.k + 2) * p.n
        assert bound * (p.raw_bound + 1) + 3 < 2**63
        assert p.raw_bound == 2**52 - 1 or bound * (p.raw_bound + 2) + 3 >= 2**63
    assert 10**6 < PAPER_PARAMS.raw_bound < 2**47


def test_raw_round_trips_at_its_bound_and_refuses_beyond(paper_key):
    tx, rx = CipherSession(paper_key), CipherSession(paper_key)
    n, bound = paper_key.params.n, paper_key.params.raw_bound
    rng = np.random.default_rng(5)
    for signs in [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)] + [
        rng.choice([-1, 1], size=n) for _ in range(8)
    ]:
        m = bound * signs
        assert np.array_equal(rx.decrypt_raw(tx.encrypt_raw(m)), m)
    # every coordinate 2^49 - 1 used to wrap int64 in encode and fail only on decrypt
    for m in (np.full(n, 2**49 - 1), np.full(n, -bound - 1), np.full(n, -(2**63))):
        with pytest.raises(InvalidParams, match="raw message coordinate"):
            tx.encrypt_raw(m)


def test_decrypt_raw_refuses_a_message_encrypt_raw_refuses(paper_key):
    # a crafted frame-0 ciphertext of v with |v_i| up to 2^52 used to decrypt to
    # max|m| = 2^52, which encrypt_raw refuses (raw_bound is about 2^46.2)
    p = paper_key.params
    crafter = CipherSession(paper_key)
    _, (e,), (h,), perm = crafter._frame_material(1)
    v = np.random.default_rng(7).integers(-9, 10, size=p.n)
    v[[0, p.n - 1]] = 2**52, -(2**52)
    y = perm.apply(crafter.lattice.encode(crafter.nlf.apply_f(v, h))[None] + 2 * e)[0]
    with pytest.raises(NotInLattice, match="raw message coordinate"):
        CipherSession(paper_key).decrypt_raw(y)
    v[[0, p.n - 1]] = p.raw_bound, 1 - p.raw_bound  # m = v - 1 + e is within the bound
    y = perm.apply(crafter.lattice.encode(crafter.nlf.apply_f(v, h))[None] + 2 * e)[0]
    m = CipherSession(paper_key).decrypt_raw(y)
    assert np.array_equal(m, v - 1 + e)
    assert np.array_equal(CipherSession(paper_key).encrypt_raw(m), y)


@pytest.mark.parametrize("mode", ["joint", "raw"])
@pytest.mark.parametrize("reason", ["length", "float", "uint64", "range"])
def test_refused_message_uses_no_counter_value(paper_key, mode, reason):
    p = paper_key.params
    m = random_message(np.random.default_rng(6), p.n, p.L)
    if reason == "length":
        bad = m[:-1]
    elif reason == "float":
        bad = m.astype(np.float64)
        bad[0] = 3.7  # an int64 cast used to truncate it to 3 and encrypt that
    elif reason == "uint64":
        bad = m.astype(np.uint64)  # an int64 cast used to read m back from it
    else:
        # joint: odd coordinates must be negative; raw: |m_i| <= raw_bound
        bad = m.copy()
        bad[1] = 0 if mode == "joint" else p.raw_bound + 1
    error = ConstellationViolation if (mode, reason) == ("joint", "range") else InvalidParams
    session = CipherSession(paper_key)
    encrypt = getattr(session, f"encrypt_{mode}")
    with pytest.raises(error):
        encrypt(bad)
    assert session.counter == 0
    got, want = encrypt(m), getattr(CipherSession(paper_key), f"encrypt_{mode}")(m)
    if mode == "joint":
        assert got.counter == want.counter == 0
        got, want = got.y, want.y
    assert np.array_equal(got, want)


def test_desynchronized_session_garbles(toy_key):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    rx.advance_to(1)  # off by one frame
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(20):
        m = random_message(rng, toy_key.params.n, toy_key.params.L)
        ct = tx.encrypt_joint(m)
        try:
            out = rx.decrypt_joint(ct.y.astype(float), 0.0)
            mismatches += int(not np.array_equal(out, m))
        except Exception:
            mismatches += 1
    assert mismatches >= 19


def test_advance_to_matches_replayed_material(paper_key):
    replay = CipherSession(paper_key)
    material = [replay._frame_material(1) for _ in range(131)]
    for j in (0, 1, 2, 5, 17, 62, 63, 64, 127, 130):
        s = CipherSession(paper_key)
        s.advance_to(j)
        got = s._frame_material(1)
        want = material[j]
        assert got[0] == want[0] == j
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[3]._fwd, want[3]._fwd)


def test_advance_to_hostile_counter_is_fast(paper_key):
    for frame in (2**63, 2**64 - 1):
        s = CipherSession(paper_key)
        start = time.perf_counter()
        s.advance_to(frame)
        s._frame_material(1)  # the streams reach the counter on the draw
        assert time.perf_counter() - start < 0.5
        assert s.counter == frame + 1


def test_session_rewinds_to_fresh_material(toy_key):
    s = CipherSession(toy_key)
    s.advance_to(3)
    s._frame_material(1)
    for j in (2, 0, 5, 1, 4, 3):
        s.advance_to(j)
        got = s._frame_material(1)
        fresh = CipherSession(toy_key)
        fresh.advance_to(j)
        want = fresh._frame_material(1)
        assert got[0] == want[0] == j
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[3]._fwd, want[3]._fwd)


def test_rotating_material_period():
    # tiny stream: l1 = ceil(log2 6) = 3 -> e-stream period 49 bits;
    # frames of n = 6 bits repeat after 49 frames
    params = CipherParams(b=3, n0=2, dv=1, q=3, L=2, d=2)
    key = keygen(params, 5)
    s = CipherSession(key)
    es = s._frame_material(60)[1]
    period_bits = ((1 << params.l1) - 1) ** 2
    frames = period_bits // np.gcd(period_bits, params.n)
    assert frames == 49
    assert np.array_equal(es[0], es[49])
    assert np.array_equal(es[1], es[50])
    assert not np.array_equal(es[0], es[1])


def test_material_streams_match_between_sessions(toy_key):
    a = CipherSession(toy_key)
    b = CipherSession(toy_key)
    for _ in range(5):
        ja, ea, ha, pa = a._frame_material(1)
        jb, eb, hb, pb = b._frame_material(1)
        assert ja == jb
        assert np.array_equal(ea, eb)
        assert np.array_equal(ha, hb)
        assert np.array_equal(pa._fwd, pb._fwd)


def _alone(key, counter, name, *args):
    """What a fresh session at ``counter`` returns for one frame."""
    s = CipherSession(key)
    s.advance_to(counter)
    out = getattr(s, name)(*args)
    return out.y if name == "encrypt_joint" else out


_COUNTERS = st.one_of(st.integers(0, 80), st.integers(2**64 - 80, 2**64 - 1),
                      st.integers(0, 2**64 - 1))
_STEPS = st.one_of(
    st.tuples(st.just("advance_to"), _COUNTERS),
    # a draw outside any frame moves one stream behind the counter's back
    st.tuples(st.sampled_from(["e_lfsr", "h_lfsr"]), st.integers(0, 700)),
    # None maps a lone (n,) frame, an integer a block of that many rows
    st.tuples(st.sampled_from(["encrypt_joint", "encrypt_raw", "decrypt_joint", "decrypt_raw"]),
              st.sampled_from([None, 1, 2, 5])),
)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.lists(_STEPS, max_size=8), st.integers(0, 2**32 - 1))
def test_each_row_is_its_counters_frame_after_any_interleaving(toy_key, steps, seed):
    p = toy_key.params
    rng = np.random.default_rng(seed)
    session = CipherSession(toy_key)
    for name, arg in steps:
        if name == "advance_to":
            session.advance_to(arg)
            continue
        if name.endswith("lfsr"):
            getattr(session, name).next_bits(arg)
            continue
        j, rows, mode = session.counter, arg or 1, name.split("_")[1]
        ms = [random_message(rng, p.n, p.L) for _ in range(rows)]
        ys = [_alone(toy_key, j + i, f"encrypt_{mode}", m) for i, m in enumerate(ms)]
        given_rows, want = (ms, ys) if name.startswith("encrypt") else (ys, ms)
        args = (np.stack(given_rows) if arg else given_rows[0],)
        out = getattr(session, name)(*args, *([0.0] if name == "decrypt_joint" else []))
        if arg:
            out, errors = out
            assert errors == (None,) * rows
        if name == "encrypt_joint":
            assert out.counter == j
            out = out.y
        assert np.array_equal(out, np.stack(want) if arg else want[0]), (name, j)
        assert session.counter == j + rows


def test_pack_bits_empty_input():
    frames = list(pack_bits(b"", 8, 4))
    assert len(frames) == 1
    m, payload = frames[0]
    assert payload == 0
    assert np.array_equal(m[0::2], np.zeros(4, dtype=np.int64))
    assert np.array_equal(m[1::2], -np.ones(4, dtype=np.int64))


def test_pack_bits_all_ones_pattern():
    n, L = 8, 16
    data = bytes([0xFF] * frame_capacity_bytes(n, L))
    (m, payload), = pack_bits(data, n, L)
    assert payload == frame_capacity_bytes(n, L)
    assert (m[0::2] == 15).all()
    assert (m[1::2] == -16).all()


def test_pack_unpack_roundtrip_random():
    rng = np.random.default_rng(4)
    n, L = 26, 4
    for _ in range(200):
        size = int(rng.integers(0, 50))
        data = rng.bytes(size)
        frames = list(pack_bits(data, n, L))
        assert unpack_bits(frames, n, L) == data


def test_pack_bits_messages_in_constellation(toy_key):
    rng = np.random.default_rng(5)
    tx = CipherSession(toy_key)
    data = rng.bytes(3 * frame_capacity_bytes(toy_key.params.n, toy_key.params.L) + 1)
    for m, _ in pack_bits(data, toy_key.params.n, toy_key.params.L):
        tx.check_constellation(m)  # must not raise


def test_key_file_roundtrip(paper_key):
    text = save_key(paper_key)
    assert load_key(text) == paper_key
    assert save_key(load_key(text)) == text


def test_key_file_deterministic():
    a = save_key(keygen(TOY, 7))
    b = save_key(keygen(TOY, 7))
    assert a == b


# SHA-256 of the save_key text, which pins the key layout byte for byte:
# field order, field widths, bit order and padding.
KEY_TEXT_SHA256 = {
    "paper": (PAPER_PARAMS, 1,
              "45c5ac24d4546f8e67bb46fdc9ab277b560f90861086e6e818a14cb1ef63b055"),
    "toy": (TOY, 42,
            "0ab8db07525554b729e07bca09bf3fdee26cea902abae565fc41402879c4a470"),
    "b187": (CipherParams(b=187, n0=8, dv=5, q=187, L=16, d=77), 1,
             "6c596c2019e02f50ae48995536e090915d877f91dd56adb7c27f769873e4e04b"),
}


@pytest.mark.parametrize("name", list(KEY_TEXT_SHA256))
def test_key_file_text_digest(name):
    params, seed, want = KEY_TEXT_SHA256[name]
    text = save_key(keygen(params, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == want


def _secret_field_bits(p):
    """Bits of each secret hex field, derived here independently of the code."""
    return {
        "supports": p.dv * p.n0 * (p.b - 1).bit_length(),
        "s": (p.n - 1).bit_length(),
        "h_seed": p.d,
        "t": p.v * (p.q - 1).bit_length(),
    }


@pytest.mark.parametrize(
    "params",
    [
        TOY,
        CipherParams(b=43, n0=6, dv=3, q=43, L=16, d=61),
        CipherParams(b=43, n0=6, dv=3, q=43, L=4, d=63),
        CipherParams(b=187, n0=8, dv=5, q=187, L=16, d=77),
    ],
)
def test_key_size_matches_serialized_secrets(params):
    """Flip every bit of every secret hex field of the key text in turn.

    Each of the key_size_bits secret bits must change the loaded key or be
    refused; each padding bit must be refused as a format error.
    """
    key = keygen(params, 11)
    text = save_key(key)
    bits = _secret_field_bits(params)
    assert sum(bits.values()) == key_size_bits(params)
    live = 0
    for name, nbits in bits.items():
        old = re.search(rf"^{name} = (\w+)$", text, re.M).group(1)
        raw = bytes.fromhex(old)
        assert len(raw) == (nbits + 7) // 8
        for i in range(8 * len(raw)):
            value = bytearray(raw)
            value[i // 8] ^= 1 << (i % 8)
            bad = text.replace(f"\n{name} = {old}\n", f"\n{name} = {value.hex()}\n")
            assert bad != text
            if i >= nbits:
                with pytest.raises(FormatError):
                    load_key(bad)
                continue
            live += 1
            try:
                loaded = load_key(bad)
            except QclatticeError:
                continue
            assert loaded != key
    assert live == key_size_bits(params)


def test_key_file_digest_tamper_detected(paper_key):
    text = save_key(paper_key)
    bad = text.replace("L = 16", "L = 32")
    with pytest.raises(FormatError):
        load_key(bad)


def test_key_file_duplicate_or_unknown_field_rejected(paper_key):
    # a second s line used to win silently, and an unknown name was ignored
    text = save_key(paper_key)
    other = save_key(keygen(paper_key.params, 2))
    s_line = re.search(r"^s = \w+$", other, re.M).group(0)
    assert s_line not in text
    for extra, message in ((s_line, "duplicate key field 's'"),
                           ("colour = blue", "unknown key fields")):
        with pytest.raises(FormatError, match=message):
            load_key(text + extra + "\n")


@pytest.mark.parametrize("spelling", ["4_3", "+43", "043", "٤٣"])
def test_key_file_rejects_non_canonical_integers(paper_key, spelling):
    # int() reads each of these as 43, and save_key would then write "43"
    text = save_key(paper_key)
    assert "\nq = 43\n" in text
    with pytest.raises(FormatError, match="not canonical"):
        load_key(text.replace("\nq = 43\n", f"\nq = {spelling}\n"))


def test_key_file_rejects_integers_int_cannot_convert(paper_key):
    text = save_key(paper_key).replace("\nq = 43\n", f"\nq = 4{'3' * 5000}\n")
    with pytest.raises(FormatError, match="out of range"):
        load_key(text)


def _mutated_value(data, old):
    """A replacement for one key field value: well-formed but arbitrary, or junk."""
    if ":" in old:  # poly id of the register's degree with random taps
        deg = int(old.split(":")[0])
        taps = data.draw(st.sets(st.integers(1, deg - 1), max_size=4))
        good = f"{deg}:{','.join(map(str, sorted(taps, reverse=True))) or '0'}"
    else:  # hex of the right length with random bits
        good = data.draw(st.binary(min_size=len(old) // 2, max_size=len(old) // 2)).hex()
    junk = data.draw(st.text("0123456789abcdef:, -x", max_size=2 * len(old)))
    return data.draw(st.sampled_from([good, junk]))


@settings(derandomize=True, deadline=2000, max_examples=300, database=None)
@given(st.sampled_from(["supports", "s", "h_seed", "t",
                        "poly_nlf", "poly_e", "poly_h", "poly_perm"]), st.data())
def test_mutated_key_field_fails_only_typed(toy_key, name, data):
    """One secret or poly_* field of the toy key replaced; the digest stays valid.

    Loading the key, opening a session and encrypting one frame either
    work or raise a QclatticeError.
    """
    text = save_key(toy_key)
    old = re.search(rf"^{name} = (\S+)$", text, re.M).group(1)
    new = _mutated_value(data, old)
    try:
        key = load_key(text.replace(f"\n{name} = {old}\n", f"\n{name} = {new}\n"))
        session = CipherSession(key)
        session.encrypt_joint(random_message(np.random.default_rng(0), 26, 4))
    except QclatticeError:
        pass


@pytest.mark.parametrize("sigma", [1e-200, float("nan"), float("inf")])
def test_decrypt_joint_rejects_unusable_sigma(toy_key, sigma):
    # sigma^2 underflowing to 0 used to escape as ZeroDivisionError
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    ct = tx.encrypt_joint(random_message(np.random.default_rng(1), 26, 4))
    with pytest.raises(InvalidParams):
        rx.decrypt_joint(ct.y.astype(np.float64), sigma)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e300])
def test_decrypt_joint_noiseless_rejects_unusable_observation(toy_key, bad):
    tx, rx = CipherSession(toy_key), CipherSession(toy_key)
    r = tx.encrypt_joint(random_message(np.random.default_rng(2), 26, 4)).y.astype(np.float64)
    r[5] = bad
    with pytest.raises(NotLatticePoint, match="not finite"):
        rx.decrypt_joint(r, 0.0)
