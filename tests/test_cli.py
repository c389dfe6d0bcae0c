import json
import re

import numpy as np
import pytest

from conftest import deadline
from qclattice.cli import main
from qclattice.formats import FrameReader, FrameWriter, params_digest

KEYGEN = "keygen --b 13 --n0 2 --dv 3 --L 4 --d 8 --seed 1".split()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_keygen_writes_key_and_prints_size(tmp_path, capsys):
    out = tmp_path / "k.key"
    code, stdout, _ = run(
        capsys, "keygen", "--b", "43", "--n0", "6", "--dv", "3", "--L", "16",
        "--d", "61", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    assert "key size: 214 bits" in stdout
    assert out.exists()


def test_keygen_missing_flag_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--n0", "6", "--dv", "3", "--L", "16",
                       "--seed", "1", "-o", str(tmp_path / "k.key"))
    assert code == 2
    assert "usage error" in err


def test_keygen_deterministic_files(tmp_path, capsys):
    p1, p2 = tmp_path / "a.key", tmp_path / "b.key"
    assert run(capsys, *KEYGEN, "-o", str(p1))[0] == 0
    assert run(capsys, *KEYGEN, "-o", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_keygen_invalid_params_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--b", "13", "--n0", "2", "--dv", "4",
                       "--L", "4", "--d", "8", "--seed", "1",
                       "-o", str(tmp_path / "k.key"))
    assert code == 1
    assert "error" in err


@pytest.fixture()
def keyfile(tmp_path, capsys):
    path = tmp_path / "k.key"
    assert run(capsys, *KEYGEN, "-o", str(path))[0] == 0
    return str(path)


def test_encrypt_decrypt_roundtrip(tmp_path, capsys, keyfile):
    rng = np.random.default_rng(0)
    data = rng.bytes(10_000)
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    ct = tmp_path / "ct.bin"
    out = tmp_path / "out.bin"
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    assert run(capsys, "decrypt", "--key", keyfile, "-i", str(ct), "-o", str(out))[0] == 0
    assert out.read_bytes() == data


def test_empty_input_gives_zero_frame_output(tmp_path, capsys, keyfile):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    ct = tmp_path / "ct.bin"
    out = tmp_path / "out.bin"
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    # header only: magic + version + digest + n
    assert ct.stat().st_size == 4 + 1 + 8 + 4
    assert run(capsys, "decrypt", "--key", keyfile, "-i", str(ct), "-o", str(out))[0] == 0
    assert out.read_bytes() == b""


def test_decrypt_with_wrong_key_garbles_without_crash(tmp_path, capsys, keyfile):
    rng = np.random.default_rng(1)
    data = rng.bytes(500)
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    ct = tmp_path / "ct.bin"
    out = tmp_path / "out.bin"
    wrong = tmp_path / "wrong.key"
    assert run(capsys, "keygen", "--b", "13", "--n0", "2", "--dv", "3", "--L", "4",
               "--d", "8", "--seed", "2", "-o", str(wrong))[0] == 0
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    code, _, _ = run(capsys, "decrypt", "--key", str(wrong), "-i", str(ct),
                     "-o", str(out), "--on-fail", "skip")
    assert code == 0
    assert out.read_bytes() != data


def test_simulate_csv(tmp_path, capsys, keyfile):
    csv = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "6:0.5:12",
                       "--trials", "5", "--seed", "7", "-o", str(csv))
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "vnr_db,ser,fer,trials,seed"
    assert len(lines) == 1 + 13
    # deterministic on repeat
    csv2 = tmp_path / "sweep2.csv"
    assert run(capsys, "simulate", "--key", keyfile, "--vnr-db", "6:0.5:12",
               "--trials", "5", "--seed", "7", "-o", str(csv2))[0] == 0
    assert csv.read_bytes() == csv2.read_bytes()


def test_simulate_zero_trials_usage_error(capsys, keyfile):
    code, _, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "0:1:2",
                       "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("grid", ["3100:1:3100", "0:1:inf", "nan:1:nan", "-3100:1:-3100",
                                  "0:1e-300:1", "0:0:1"])
def test_simulate_unusable_grid_exits_2(capsys, keyfile, grid):
    # all but 0:0:1 used to overflow, run with sigma = inf, print an empty
    # CSV, or never end
    with deadline(10):
        code, out, err = run(capsys, "simulate", "--key", keyfile, f"--vnr-db={grid}",
                             "--trials", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: --vnr-db {grid}: ")
    assert "Traceback" not in err


def test_analyze_paper_params(capsys):
    code, out, _ = run(capsys, "analyze", "--b", "43", "--n0", "6", "--dv", "3",
                       "--L", "16", "--d", "61")
    assert code == 0
    assert "214 bits" in out
    assert "2^176.96" in out
    assert "2^129.75" in out
    assert "key_bits=214" in out


def test_analyze_from_key_matches_params_mode(tmp_path, capsys):
    key = tmp_path / "k.key"
    assert run(capsys, "keygen", "--b", "43", "--n0", "6", "--dv", "3", "--L", "16",
               "--d", "61", "--seed", "3", "-o", str(key))[0] == 0
    _, out_key, _ = run(capsys, "analyze", "--key", str(key))
    _, out_params, _ = run(capsys, "analyze", "--b", "43", "--n0", "6", "--dv", "3",
                           "--L", "16", "--d", "61")
    assert out_key == out_params


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--b", "43", "--n0", "6", "--dv", "3",
                       "--L", "16", "--d", "61", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["key_bits"] == "214"


def test_decrypt_bad_file_exit_1(tmp_path, capsys, keyfile):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a ciphertext")
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(bad),
                       "-o", str(tmp_path / "out.bin"))
    assert code == 1
    assert "error" in err


def _encrypt_frames(tmp_path, capsys, keyfile, data):
    """Encrypt data with the CLI; return the header (n, digest) and the frames."""
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    ct = tmp_path / "ct.bin"
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    with open(ct, "rb") as fh:
        reader = FrameReader(fh)
        return (reader.n, reader.digest), list(reader)


def _write_frames(path, header, frames):
    with open(path, "wb") as fh:
        writer = FrameWriter(fh, *header)
        for counter, payload, coords in frames:
            writer.write_frame(counter, payload, coords)


@pytest.mark.parametrize("counter", [2**63, 2**64 - 1])
def test_decrypt_hostile_counter_exits_1(tmp_path, capsys, keyfile, counter):
    header, [(_, payload, coords)] = _encrypt_frames(tmp_path, capsys, keyfile, b"frame")
    crafted = tmp_path / "crafted.bin"
    _write_frames(crafted, header, [(counter, payload, coords)])
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(crafted),
                       "-o", str(tmp_path / "out.bin"))
    assert code == 1
    assert f"error: frame {counter}:" in err


def test_decrypt_duplicate_counter_repeats_frame(tmp_path, capsys, keyfile):
    capacity = 13 * 2 * 2 // 8  # n * log2(L) / 8 bytes per frame
    data = np.random.default_rng(2).bytes(3 * capacity)
    header, frames = _encrypt_frames(tmp_path, capsys, keyfile, data)
    assert [f[0] for f in frames] == [0, 1, 2]
    dup = tmp_path / "dup.bin"
    _write_frames(dup, header, [frames[0], frames[1], frames[1], frames[2]])

    c = capacity
    want = data[: 2 * c] + data[c : 2 * c] + data[2 * c :]
    for on_fail in ("skip", "abort"):
        out = tmp_path / f"out-{on_fail}.bin"
        code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(dup),
                           "-o", str(out), "--on-fail", on_fail)
        assert code == 0
        assert err == ""
        assert out.read_bytes() == want


def test_decrypt_bad_counter_spares_later_frames(tmp_path, capsys, keyfile):
    capacity = 13 * 2 * 2 // 8
    data = np.random.default_rng(3).bytes(4 * capacity)
    header, frames = _encrypt_frames(tmp_path, capsys, keyfile, data)
    assert [f[0] for f in frames] == [0, 1, 2, 3]
    _, payload, coords = frames[1]
    crafted = tmp_path / "crafted.bin"
    _write_frames(crafted, header, [frames[0], (2**40, payload, coords), frames[2], frames[3]])

    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(crafted),
                       "-o", str(out), "--on-fail", "skip")
    assert code == 0
    assert f"warning: frame {2**40}:" in err
    assert err.count("warning") == 1
    c = capacity
    assert out.read_bytes() == data[:c] + b"\x00" * c + data[2 * c :]


def test_decrypt_nan_observation_frame_is_skipped(tmp_path, capsys, keyfile):
    capacity = 13 * 2 * 2 // 8
    data = np.random.default_rng(5).bytes(3 * capacity)
    (n, digest), frames = _encrypt_frames(tmp_path, capsys, keyfile, data)
    obs = tmp_path / "obs.bin"
    with open(obs, "wb") as fh:
        writer = FrameWriter(fh, n, digest, observations=True)
        for counter, payload, coords in frames:
            coords = coords.astype(np.float64)
            if counter == 1:
                coords[7] = np.nan
            writer.write_frame(counter, payload, coords)

    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(obs),
                       "-o", str(out), "--sigma", "0.3", "--on-fail", "skip")
    assert code == 0
    assert err.count("warning") == 1
    assert "warning: frame 1:" in err and "not finite" in err
    c = capacity
    assert out.read_bytes() == data[:c] + b"\x00" * c + data[2 * c :]


def _edit_key(keyfile, tmp_path, field, value):
    """Copy of the key file with one field's value replaced."""
    text = open(keyfile).read()
    edited, count = re.subn(rf"^{field} = .*$", f"{field} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "edited.key"
    path.write_text(edited)
    return str(path)


def _assert_clean_error(code, err):
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


# the toy key has n = 26, l1 = 5, d = 8 and gamma = 4
@pytest.mark.parametrize("field, value, message", [
    ("b", "seven", "non-integer"),
    ("L", "4.0", "non-integer"),
    ("d", "", "non-integer"),
    ("supports", "zz", "bad hex"),
    ("s", "xyz", "bad hex"),
    ("s", "1", "bad hex"),
    ("h_seed", "0g", "bad hex"),
    ("t", "q1", "bad hex"),
    ("poly_nlf", "30:1", "needs degree 26"),
    ("poly_e", "7:1", "needs degree 5"),
    ("poly_h", "9:4", "needs degree 8"),
    ("poly_perm", "5:2", "needs degree 4"),
    ("poly_nlf", "999999999999:1", "needs degree 26"),
    ("poly_e", "5:9", "tap outside"),
    ("poly_e", "5:-1", "tap outside"),
])
def test_malformed_key_field_exits_1(tmp_path, capsys, keyfile, field, value, message):
    bad = _edit_key(keyfile, tmp_path, field, value)
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    code, _, err = run(capsys, "encrypt", "--key", bad, "-i", str(src),
                       "-o", str(tmp_path / "ct.bin"))
    _assert_clean_error(code, err)
    assert message in err


@pytest.mark.parametrize("cut", [5, 12, 13, 15, 16])
def test_decrypt_truncated_file_header_exits_1(tmp_path, capsys, keyfile, cut):
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    ct = tmp_path / "ct.bin"
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    ct.write_bytes(ct.read_bytes()[:cut])
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(ct),
                       "-o", str(tmp_path / "out.bin"))
    _assert_clean_error(code, err)


def test_decrypt_oversize_payload_follows_on_fail(tmp_path, capsys, keyfile):
    capacity = 13 * 2 * 2 // 8
    data = np.random.default_rng(4).bytes(3 * capacity)
    header, frames = _encrypt_frames(tmp_path, capsys, keyfile, data)
    counter, _, coords = frames[1]
    crafted = tmp_path / "crafted.bin"
    _write_frames(crafted, header, [frames[0], (counter, 10**6, coords), frames[2]])

    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(crafted),
                       "-o", str(out), "--on-fail", "skip")
    assert code == 0
    assert "warning: frame 1:" in err and "exceeds frame capacity" in err
    c = capacity
    assert out.read_bytes() == data[:c] + b"\x00" * c + data[2 * c :]

    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(crafted),
                       "-o", str(out), "--on-fail", "abort")
    assert code == 1
    assert "error: frame 1:" in err and "exceeds frame capacity" in err


@pytest.mark.parametrize("L", [2**40, 2**62, 2**70], ids=["2^40", "2^62", "2^70"])
def test_encrypt_with_L_beyond_int32_frames_exits_1(tmp_path, capsys, keyfile, L):
    # shaped coordinates reach 2nL - 1, so n * L must stay within 2^30
    path = _edit_key(keyfile, tmp_path, "L", str(L))
    path = _edit_key(path, tmp_path, "digest", params_digest(13, 2, 3, 13, L, 8))
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    ct = tmp_path / "ct.bin"
    code, _, err = run(capsys, "encrypt", "--key", path, "-i", str(src), "-o", str(ct))
    _assert_clean_error(code, err)
    assert "n * L" in err
    assert not ct.exists()


@pytest.mark.parametrize("sigma", ["1e-200", "nan", "inf"])
def test_decrypt_sigma_without_usable_square_exits_2(tmp_path, capsys, keyfile, sigma):
    _encrypt_frames(tmp_path, capsys, keyfile, b"frame")
    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(tmp_path / "ct.bin"),
                       "-o", str(out), "--sigma", sigma)
    assert code == 2
    assert err.startswith("usage error: --sigma")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["0", "-1e-200"])
def test_decrypt_nonpositive_sigma_is_noiseless(tmp_path, capsys, keyfile, sigma):
    _encrypt_frames(tmp_path, capsys, keyfile, b"frame")
    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(tmp_path / "ct.bin"),
                       "-o", str(out), f"--sigma={sigma}")
    assert (code, err) == (0, "")
    assert out.read_bytes() == b"frame"
