"""Frame blocks against one frame at a time.

A (B, n) block through CipherSession must give, row for row, what each
frame gives alone at its counter: the same ciphertext, the same message,
or the same error class and message.  `qclattice encrypt`/`decrypt`, which
stream blocks of cli.BLOCK_FRAMES frames, must write what a frame-by-frame
loop writes, with the same standard error and exit code, at every block
boundary.
"""

import contextlib
import io
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, random_message
from qclattice import CipherSession
from qclattice.cipher import frame_capacity_bytes, pack_bits, save_key, unpack_bits
from qclattice.cli import BLOCK_FRAMES, main
from qclattice.errors import FormatError, InvalidParams, NotInLattice, QclatticeError
from qclattice.formats import FrameReader, FrameWriter
from qclattice.lattice import LatticeCtx

BLOCKS = settings(max_examples=30, deadline=None, derandomize=True)


def _outcome(call):
    """call()'s result, or the class and text of the QclatticeError it raises."""
    try:
        return call()
    except QclatticeError as e:
        return type(e), str(e)


def _same(got, want):
    if isinstance(want, tuple):
        return got == want
    return not isinstance(got, tuple) and np.array_equal(got, want)


def _alone(key, j, method, *args):
    """A fresh session's method(*args) at counter j."""
    session = CipherSession(key)
    session.advance_to(j)
    out = getattr(session, method)(*args)
    return out.y if method == "encrypt_joint" else out


def _in_blocks(session, method, rows, sizes, *extra):
    """rows through method in consecutive blocks of the given sizes: (results, errors)."""
    results, errors, start = [], [], 0
    for size in sizes:
        out, errs = getattr(session, method)(rows[start : start + size], *extra)
        if method == "encrypt_joint":
            assert out.counter == session.counter - size
            out = out.y
        assert out.shape == (size, rows.shape[1]) and len(errs) == size
        results.append(out)
        errors.extend(errs)
        start += size
    return np.concatenate(results), errors


def _split(data, count):
    """Block sizes summing to count, drawn by hypothesis."""
    cuts = sorted(set(data.draw(st.lists(st.integers(1, count - 1), max_size=6))
                      if count > 1 else []))
    return [b - a for a, b in zip([0] + cuts, cuts + [count])]


@BLOCKS
@given(st.data())
def test_any_block_split_matches_frame_by_frame(toy_key, data):
    p = toy_key.params
    count = data.draw(st.integers(1, 130), label="frames")
    j0 = data.draw(st.integers(0, 2**64 - count), label="first counter")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    messages = {
        "joint": np.stack([random_message(rng, p.n, p.L) for _ in range(count)]),
        "raw": rng.integers(-p.raw_bound, p.raw_bound, size=(count, p.n), endpoint=True),
    }
    for mode, m in messages.items():
        enc, dec = f"encrypt_{mode}", f"decrypt_{mode}"
        extra = (0.0,) if mode == "joint" else ()
        want = np.stack([_alone(toy_key, j0 + i, enc, row) for i, row in enumerate(m)])
        session = CipherSession(toy_key)
        session.advance_to(j0)
        y, errors = _in_blocks(session, enc, m, _split(data, count))
        assert errors == [None] * count
        assert np.array_equal(y, want), mode
        if mode == "joint":
            y = y.astype(np.float64)
        session.advance_to(j0)
        got, errors = _in_blocks(session, dec, y, _split(data, count), *extra)
        assert errors == [None] * count
        assert np.array_equal(got, m), mode


CORRUPTIONS = {
    "odd step": lambda v, i: v[i] + 2,
    "even": lambda v, i: v[i] + 1,
    "far": lambda v, i: v[i] + 2**40 + 1,
    "nan": lambda v, i: np.nan,
    "huge": lambda v, i: 2.0**53,
}


@BLOCKS
@given(st.data())
def test_a_corrupted_row_fails_alone(toy_key, data):
    p = toy_key.params
    count = data.draw(st.integers(1, 20), label="frames")
    j0 = data.draw(st.integers(0, 2**64 - count), label="first counter")
    mode = data.draw(st.sampled_from(["joint", "raw"]), label="mode")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = np.stack([random_message(rng, p.n, p.L) for _ in range(count)])
    session = CipherSession(toy_key)
    session.advance_to(j0)
    y, _ = getattr(session, f"encrypt_{mode}")(m)
    y = (y.y if mode == "joint" else y).astype(np.float64 if mode == "joint" else np.int64)
    bad = data.draw(st.sets(st.integers(0, count - 1), min_size=1), label="bad rows")
    kinds = sorted(CORRUPTIONS) if mode == "joint" else ["odd step", "even", "far"]
    for row in bad:
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, p.n - 1))
            y[row, at] = CORRUPTIONS[data.draw(st.sampled_from(kinds))](y[row], at)
    extra = (0.0,) if mode == "joint" else ()
    session.advance_to(j0)
    got, errors = getattr(session, f"decrypt_{mode}")(y, *extra)
    for i in range(count):
        want = _outcome(lambda: _alone(toy_key, j0 + i, f"decrypt_{mode}", y[i], *extra))
        if errors[i] is None:
            assert _same(got[i], want), i
        else:
            assert _same((type(errors[i]), str(errors[i])), want), i
            assert not got[i].any()
        if i not in bad:
            assert errors[i] is None and np.array_equal(got[i], m[i])


# "noisy" rows carry Gaussian noise at the block's sigma, "clean" ones none
# and "nan" ones one NaN coordinate
ROW_KINDS = ["noisy"] * 4 + ["clean", "nan"]


@BLOCKS
@given(st.data())
def test_noisy_rows_fail_alone(toy_key, data):
    """A noisy block decrypts row for row as each frame alone.

    Between 1 and 3 dB decoding fails on about 1-30% of these n = 26
    frames, and on up to about 0.4% SPA converges to a wrong point and the
    frame decrypts to a wrong message, or fails off the constellation,
    alone as in the block.  So the plaintext check is made on the rows
    observed without noise: they decrypt to their plaintext, whatever
    fails around them.
    """
    p = toy_key.params
    count = data.draw(st.integers(1, 20), label="frames")
    j0 = data.draw(st.integers(0, 2**64 - count), label="first counter")
    sigma = LatticeCtx.from_code(toy_key.code, p.L).vnr_sigma(
        data.draw(st.floats(1.0, 3.0), label="VNR dB"))
    kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=count, max_size=count),
                      label="row kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = np.stack([random_message(rng, p.n, p.L) for _ in range(count)])
    session = CipherSession(toy_key)
    session.advance_to(j0)
    y = session.encrypt_joint(m)[0].y.astype(np.float64)
    for row, kind in zip(y, kinds):
        if kind == "noisy":
            row += rng.normal(0.0, sigma, p.n)
        elif kind == "nan":
            row[rng.integers(p.n)] = np.nan
    session.advance_to(j0)
    got, errors = session.decrypt_joint(y, sigma)
    for i, kind in enumerate(kinds):
        want = _outcome(lambda: _alone(toy_key, j0 + i, "decrypt_joint", y[i], sigma))
        if errors[i] is None:
            assert _same(got[i], want), i
        else:
            assert _same((type(errors[i]), str(errors[i])), want), i
            assert not got[i].any()
        if kind == "clean":
            assert errors[i] is None and np.array_equal(got[i], m[i]), i


def _counter_lists(n, segment):
    """Lists of frame counters: runs up, down or in place (duplicates), with gaps between
    them, near 0, near 2^64 - 1, anywhere, or at a frame whose bits cross a reseed of an
    error stream of that segment length."""
    last = 2**64 - 1
    start = st.one_of(
        st.integers(0, 200), st.integers(last - 200, last), st.just(last),
        st.integers(0, last),
        st.integers(1, last * n // segment).map(lambda k: k * segment // n),
    )
    run = st.tuples(start, st.integers(1, 6), st.sampled_from([1, -1, 0]))
    return st.lists(run, min_size=1, max_size=5).map(lambda runs: [
        min(max(j + step * i, 0), last) for j, size, step in runs for i in range(size)])


@BLOCKS
@given(st.data())
def test_any_counter_list_matches_frame_by_frame(toy_key, data):
    p = toy_key.params
    counters = data.draw(_counter_lists(p.n, 2**p.l1 - 1), label="counters")
    count = len(counters)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bad = data.draw(st.sets(st.integers(0, count - 1)), label="corrupted rows")
    m = np.stack([random_message(rng, p.n, p.L) for _ in range(count)])
    for mode in ("joint", "raw"):
        enc, dec = f"encrypt_{mode}", f"decrypt_{mode}"
        want = np.stack([_alone(toy_key, j, enc, row) for j, row in zip(counters, m)])
        session = CipherSession(toy_key)
        out, errors = getattr(session, enc)(m, counters=counters)
        if mode == "joint":
            assert out.counter == counters[0]
            out = out.y
        assert errors == (None,) * count and np.array_equal(out, want), mode
        y = want.astype(np.float64 if mode == "joint" else np.int64)
        y[sorted(bad), 3] += 2  # fails alone, at its own counter
        extra = (0.0,) if mode == "joint" else ()
        got, errors = getattr(session, dec)(y, *extra, counters=counters)
        for i, j in enumerate(counters):
            alone = _outcome(lambda: _alone(toy_key, j, dec, y[i], *extra))
            row = got[i] if errors[i] is None else (type(errors[i]), str(errors[i]))
            assert _same(row, alone), (mode, i, j)
            if i not in bad:
                assert np.array_equal(row, m[i]), (mode, i, j)


def test_a_block_refused_argument_uses_no_counter_value(toy_key):
    p = toy_key.params
    m = np.stack([random_message(np.random.default_rng(i), p.n, p.L) for i in range(3)])
    m[2, 1] = 0  # odd coordinates must be negative
    session = CipherSession(toy_key)
    with pytest.raises(QclatticeError, match="odd-pair"):
        session.encrypt_joint(m)
    assert session.counter == 0
    m[2, 1] = -1
    blocks = {"encrypt_joint": (m,), "encrypt_raw": (m,),
              "decrypt_joint": (session.encrypt_joint(m)[0].y.astype(np.float64), 0.0),
              "decrypt_raw": (session.encrypt_raw(m)[0],)}
    session.advance_to(0)
    # the wrong length, then a negative, bool, float and str entry
    for counters in ([0, 1], [0, 1, 2, 3], [5, -1, 6], [5, True, 6], [5, 1.0, 6], [5, "1", 6]):
        for method, args in blocks.items():
            with pytest.raises(InvalidParams, match="frame counter"):
                getattr(session, method)(*args, counters=counters)
            assert session.counter == 0, (method, counters)


def _found_message(n):
    """A message off the constellation: m_0 = 20 and m_1 = 3 (odd coordinates must be
    negative), the rest 0."""
    m = np.zeros(n, dtype=np.int64)
    m[:2] = 20, 3
    return m


def _off_constellation_frame(key, j, m):
    """The ciphertext perm(shape(apply_f(m + 1 - e, h)) + 2e) of m at counter j: what
    encrypt_joint would give, built past its constellation check."""
    session = CipherSession(key)
    session.advance_to(j)
    _, e, h, perm = session._frame_material(1)
    lam = session.lattice.shape(session.nlf.apply_f(m + 1 - e, h))
    return perm.apply(lam + 2 * e)[0]


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_a_frame_off_the_constellation_fails_as_not_in_lattice(paper_key, sigma):
    # it decrypted to m with no error, leaving unpack_bits the only check
    y = _off_constellation_frame(paper_key, 0, _found_message(paper_key.params.n))
    with pytest.raises(NotInLattice, match="^joint message coordinate off the constellation$"):
        CipherSession(paper_key).decrypt_joint(y.astype(np.float64), sigma)


def test_a_block_row_off_the_constellation_fails_alone(paper_key):
    p = paper_key.params
    rng = np.random.default_rng(3)
    sent = np.stack([_found_message(p.n)] + [random_message(rng, p.n, p.L) for _ in range(2)])
    tx = CipherSession(paper_key)
    tx.advance_to(1)
    ct, errors = tx.encrypt_joint(sent[1:])
    assert errors == (None, None)
    y = np.vstack([_off_constellation_frame(paper_key, 0, sent[0]), ct.y])
    got, errors = CipherSession(paper_key).decrypt_joint(y.astype(np.float64), 0.0)
    assert type(errors[0]) is NotInLattice and errors[1:] == (None, None)
    assert not got[0].any() and np.array_equal(got[1:], sent[1:])


def test_an_empty_block_gives_empty_results(toy_key):
    p = toy_key.params
    session = CipherSession(toy_key)
    session.advance_to(5)
    ct, errors = session.encrypt_joint(np.zeros((0, p.n), dtype=np.int64))
    assert ct.y.shape == (0, p.n) and ct.counter == 5 and errors == ()
    for out, errors in (
        session.encrypt_raw(np.zeros((0, p.n), dtype=np.int64)),
        session.decrypt_raw(np.zeros((0, p.n), dtype=np.int64)),
        session.decrypt_joint(np.zeros((0, p.n)), 0.0),
        session.decrypt_joint(np.zeros((0, p.n)), 1.0),
    ):
        assert out.shape == (0, p.n) and out.dtype == np.int64 and errors == ()
    assert session.counter == 5
    no_rows, no_controls = np.zeros((0, p.n), dtype=np.int64), np.zeros((0, p.d), dtype=np.uint8)
    for out in session.nlf.apply_f(no_rows, no_controls), session.nlf.invert_f(no_rows, no_controls):
        assert out.shape == (0, p.n) and out.dtype == np.int64


# --- the CLI at block boundaries ------------------------------------------------


def _frame_by_frame(key, path, sigma, on_fail):
    """(plaintext, standard error, exit code) of `qclattice decrypt` one frame at a time."""
    p = key.params
    cap = frame_capacity_bytes(p.n, p.L)
    session = CipherSession(key)
    out, err = bytearray(), []
    with open(path, "rb") as fh:
        try:
            for counter, payload, coords in FrameReader(fh):
                try:
                    if payload > cap:
                        raise FormatError(f"payload {payload} exceeds frame capacity {cap}")
                    session.advance_to(counter)
                    plain = unpack_bits([(session.decrypt_joint(coords, sigma), payload)],
                                        p.n, p.L)
                except QclatticeError as e:
                    if on_fail == "abort":
                        err.append(f"error: frame {counter}: {e}")
                        return bytes(out), err, 1
                    err.append(f"warning: frame {counter}: {e}; emitting zeros")
                    plain = b"\x00" * min(payload, cap)
                out += plain
        except QclatticeError as e:
            err.append(f"error: {e}")
            return bytes(out), err, 1
    return bytes(out), err, 0


def _cli(*argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def keypath(tmp_path_factory, toy_key):
    path = tmp_path_factory.mktemp("blocks") / "toy.key"
    path.write_text(save_key(toy_key))
    return str(path)


def _frames(key, count, seed=0):
    """count frames of seeded plaintext, encrypted one frame at a time: (plaintext, frames)."""
    p = key.params
    data = np.random.default_rng(seed).bytes(count * frame_capacity_bytes(p.n, p.L) - 1)
    session = CipherSession(key)
    frames = []
    for m, payload in pack_bits(data, p.n, p.L):
        ct = session.encrypt_joint(m)
        frames.append((ct.counter, payload, ct.y))
    return data, frames


def _write(path, key, frames, observations=False):
    with open(path, "wb") as fh:
        writer = FrameWriter(fh, key.params.n, key.digest(), observations)
        for counter, payload, y in frames:
            writer.write_frame(counter, payload, y)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_cli_encrypt_matches_frame_by_frame(tmp_path, keypath, toy_key, count):
    data, frames = _frames(toy_key, count)
    src, ct, want = tmp_path / "plain.bin", tmp_path / "ct.bin", tmp_path / "want.bin"
    src.write_bytes(data)
    _write(want, toy_key, frames)
    assert _cli("encrypt", "--key", keypath, "-i", str(src), "-o", str(ct)) == (0, [])
    assert ct.read_bytes() == want.read_bytes()


def _check_decrypt(tmp_path, keypath, key, frames, sigma=None, observations=False):
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    _write(src, key, frames, observations)
    for on_fail in ("abort", "skip"):
        extra = ["--sigma", str(sigma)] if sigma else []
        got = _cli("decrypt", "--key", keypath, "-i", str(src), "-o", str(out),
                   "--on-fail", on_fail, *extra)
        plain, err, code = _frame_by_frame(key, src, sigma or 0.0, on_fail)
        assert got == (code, err), on_fail
        assert out.read_bytes() == plain, on_fail
    return code, err


@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_cli_decrypt_matches_frame_by_frame(tmp_path, keypath, toy_key, count):
    data, frames = _frames(toy_key, count)
    assert _check_decrypt(tmp_path, keypath, toy_key, frames) == (0, [])
    assert (tmp_path / "out.bin").read_bytes() == data


@pytest.mark.parametrize("position", [0, 31, 63])
@pytest.mark.parametrize("fault", ["coordinate", "payload", "counter", "constellation"])
def test_cli_bad_row_in_a_block_costs_only_itself(tmp_path, keypath, toy_key, position, fault):
    _, frames = _frames(toy_key, 2 * BLOCK_FRAMES + 1)
    i = BLOCK_FRAMES + position  # the second block
    counter, payload, y = frames[i]
    if fault == "coordinate":
        y = y.copy()
        y[3] += 2
    elif fault == "payload":
        payload = 7  # one byte over the toy frame's capacity
    elif fault == "counter":
        counter = 2**40
    else:  # a lattice point that decrypts off the constellation
        y = _off_constellation_frame(toy_key, counter, _found_message(toy_key.params.n))
    frames[i] = (counter, payload, y)
    code, err = _check_decrypt(tmp_path, keypath, toy_key, frames)
    assert (code, len(err)) in ((1, 1), (0, 1))
    if fault == "constellation":  # decrypt refuses it, before the unpack
        assert err == [f"warning: frame {counter}: joint message coordinate off the "
                       "constellation; emitting zeros"]


def test_cli_observations_match_frame_by_frame(tmp_path, keypath, toy_key):
    _, frames = _frames(toy_key, BLOCK_FRAMES + 3)
    rng = np.random.default_rng(4)
    noisy = [(c, k, y + rng.normal(0, 0.3, y.shape)) for c, k, y in frames]
    noisy[5] = (noisy[5][0], noisy[5][1], np.full(toy_key.params.n, np.nan))
    noisy[40] = (noisy[40][0], noisy[40][1], noisy[40][2] + rng.normal(0, 3.0, 26))
    _check_decrypt(tmp_path, keypath, toy_key, noisy, sigma=0.3, observations=True)


def test_cli_truncated_frame_in_mid_block_writes_the_frames_before(tmp_path, keypath, toy_key):
    data, frames = _frames(toy_key, 100)
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    _write(src, toy_key, frames)
    frame_bytes = 12 + 4 * toy_key.params.n
    whole = src.read_bytes()
    cut = len(whole) - (100 - 90) * frame_bytes + frame_bytes // 2  # inside frame 90
    src.write_bytes(whole[:cut])
    for on_fail in ("abort", "skip"):
        got = _cli("decrypt", "--key", keypath, "-i", str(src), "-o", str(out),
                   "--on-fail", on_fail)
        plain, err, code = _frame_by_frame(toy_key, src, 0.0, on_fail)
        assert got == (code, err) == (1, ["error: truncated frame body"])
        assert out.read_bytes() == plain == data[: 90 * 6]


def test_cli_duplicate_and_backward_counters_break_runs(tmp_path, keypath, toy_key):
    _, frames = _frames(toy_key, 80)
    order = list(range(0, 30)) + [20] + list(range(30, 70)) + [69, 3, 2, 1] + list(range(70, 80))
    crafted = [frames[i] for i in order]
    assert _check_decrypt(tmp_path, keypath, toy_key, crafted) == (0, [])


def test_cli_encrypt_from_a_pipe_stops_at_the_last_counter(tmp_path, keypath, toy_key):
    cap = frame_capacity_bytes(toy_key.params.n, toy_key.params.L)
    data = np.random.default_rng(6).bytes(5 * cap)
    fifo, out = tmp_path / "in.fifo", tmp_path / "ct.bin"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with deadline(20):
            code, err = _cli("encrypt", "--key", keypath, "-i", str(fifo), "-o", str(out),
                             "--first-counter", str(2**64 - 3))
    finally:
        writer.join()
    with pytest.raises(FormatError) as refused:
        FrameWriter(io.BytesIO(), toy_key.params.n, toy_key.digest()).write_frame(2**64, 0, [])
    assert (code, err) == (1, [f"error: {refused.value}"])
    session = CipherSession(toy_key)
    session.advance_to(2**64 - 3)
    want = io.BytesIO()
    writer = FrameWriter(want, toy_key.params.n, toy_key.digest())
    for m, payload in list(pack_bits(data, toy_key.params.n, toy_key.params.L))[:3]:
        ct = session.encrypt_joint(m)
        writer.write_frame(ct.counter, payload, ct.y)
    assert out.read_bytes() == want.getvalue()
