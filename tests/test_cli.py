import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import deadline
from gf2_reference import order
import qclattice
from qclattice.cipher import load_key, save_key
from qclattice.cli import main
from qclattice.errors import FormatError
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_keygen_out_of_range_seed_names_the_flag(tmp_path, capsys, seed):
    # random.Random would fold -1 onto 1 and take a seed of any width
    code, _, err = run(capsys, *KEYGEN[:-1], str(seed), "-o", str(tmp_path / "k.key"))
    assert code == 2
    assert err.startswith(f"usage error: --seed {seed}: ")
    assert not (tmp_path / "k.key").exists()


def test_keygen_invalid_params_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--b", "13", "--n0", "2", "--dv", "4",
                       "--L", "4", "--d", "8", "--seed", "1",
                       "-o", str(tmp_path / "k.key"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["analyze", "keygen"])
@pytest.mark.parametrize("b", ["0", "-3"])
def test_nonpositive_code_length_without_d_exits_1(tmp_path, capsys, command, b):
    # the default d = 7 ceil(log2 n) used to raise "math domain error"
    extra = ["--seed", "1", "-o", str(tmp_path / "k.key")] if command == "keygen" else []
    code, out, err = run(capsys, command, "--b", b, "--n0", "2", "--dv", "3", "--L", "4", *extra)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "k.key").exists()


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


def test_simulate_trial_count_past_the_key_space_exits_2(capsys, keyfile):
    # trial 2^32 of a point would draw the noise of trial 0 of the next one;
    # the count used to be accepted, and then ran
    with deadline(10):
        code, out, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "0:1:0",
                             "--trials", str(2**32))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("trials", [-1, 0, 2**32])
def test_simulate_out_of_range_trials_names_the_flag(capsys, keyfile, trials):
    # 2^32 used to be reported as a fault of --vnr-db
    code, out, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "0:1:0",
                         "--trials", str(trials))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: --trials {trials}: ")


@pytest.mark.parametrize("grid", ["3100:1:3100", "0:1:inf", "nan:1:nan", "-3100:1:-3100",
                                  "0:1e-300:1", "0:0:1"])
def test_simulate_unusable_grid_exits_2(tmp_path, capsys, keyfile, grid):
    # all but 0:0:1 used to overflow, run with sigma = inf, print an empty
    # CSV, or never end
    with deadline(10):
        code, out, err = run(capsys, "simulate", "--key", keyfile, f"--vnr-db={grid}",
                             "--trials", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: --vnr-db {grid}: ")
    assert "Traceback" not in err
    csv = tmp_path / "sweep.csv"
    assert run(capsys, "simulate", "--key", keyfile, f"--vnr-db={grid}", "--trials", "2",
               "-o", str(csv))[0] == 2
    assert not csv.exists()


def test_simulate_unwritable_output_fails_before_any_trial(tmp_path, capsys, keyfile):
    # the CSV used to be opened after the sweep, so every point ran first
    code, out, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "6:1:8",
                         "--trials", "2", "-o", str(tmp_path / "missing" / "sweep.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert not any(line.startswith("vnr") for line in err.splitlines())


@pytest.mark.parametrize("value, code", [("abc", 1), ("2.5", 1), ("", 0), ("2", 0)])
def test_simulate_reads_the_workers_variable_or_exits_1(capsys, keyfile, monkeypatch,
                                                        value, code):
    # a malformed value used to be dropped for one worker, with exit 0
    monkeypatch.setenv("QCLATTICE_WORKERS", value)
    got, out, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "12:1:12",
                        "--trials", "2")
    assert got == code
    if code:
        assert out == "" and err.startswith("error: $QCLATTICE_WORKERS = ")
    else:
        assert out.startswith("vnr_db,ser,fer,trials,seed\n")


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_simulate_bad_workers_variable_creates_no_output(tmp_path, capsys, keyfile,
                                                        monkeypatch, value):
    # -o used to be opened before the variable was read, leaving an empty CSV
    monkeypatch.setenv("QCLATTICE_WORKERS", value)
    csv = tmp_path / "s.csv"
    code, out, err = run(capsys, "simulate", "--key", keyfile, "--vnr-db", "12:1:12",
                         "--trials", "2", "-o", str(csv))
    assert (code, out) == (1, "")
    assert err.startswith("error: $QCLATTICE_WORKERS = ")
    assert not csv.exists()


def fresh_python(*argv):
    """Run a fresh interpreter that imports this checkout's qclattice."""
    src = str(Path(qclattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exit_status(tmp_path):
    # the other tests call main() in-process; this runs `python -m qclattice.cli`
    def qclattice_cli(*argv):
        return fresh_python("-m", "qclattice.cli", *argv)

    key, pt, ct, out = (str(tmp_path / f) for f in ("k.key", "p.bin", "c.bin", "o.bin"))
    data = np.random.default_rng(4).bytes(300)
    Path(pt).write_bytes(data)
    assert qclattice_cli(*KEYGEN, "-o", key).returncode == 0
    assert qclattice_cli("encrypt", "--key", key, "-i", pt, "-o", ct).returncode == 0
    assert qclattice_cli("decrypt", "--key", key, "-i", ct, "-o", out).returncode == 0
    assert Path(out).read_bytes() == data
    bad = qclattice_cli("simulate", "--key", key, "--vnr-db", "0:0:1", "--trials", "2")
    assert bad.returncode == 2
    assert bad.stderr.startswith("usage error: ")


def test_one_frame_round_trip_imports_no_pool_or_masked_arrays(tmp_path, capsys):
    # every CLI process pays for what it imports: a pool is only for sweeps,
    # and numpy.ma (which np.unique imports) for nothing the cipher does
    key, pt, ct, out = (str(tmp_path / f) for f in ("k.key", "p.bin", "c.bin", "o.bin"))
    assert run(capsys, *KEYGEN, "-o", key)[0] == 0
    Path(pt).write_bytes(b"\x5a")
    script = (
        "import sys\n"
        "from qclattice.cli import main\n"
        f"assert main(['encrypt', '--key', {key!r}, '-i', {pt!r}, '-o', {ct!r}]) == 0\n"
        f"assert main(['decrypt', '--key', {key!r}, '-i', {ct!r}, '-o', {out!r}]) == 0\n"
        "print(sorted({'numpy.ma', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert Path(out).read_bytes() == b"\x5a"


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


# SHA-256 of the exact stdout of `analyze` (text, then --json) for the
# reference parameters and for the largest shipped NLF degree, n = 1496
@pytest.mark.parametrize("params, text_sha, json_sha", [
    ("43 6 3 16 61",
     "4eb1345c0243a6be5bf76a448ea0c6bb9cdbd7a91d940f27e18692055b26b948",
     "11150ae87b181ecc3e591429f3439b5560f0632ef113883c04478136b8d707b8"),
    ("187 8 5 16 77",
     "40daee7d2980dc5ec27648ca788f1afd9b64eae6398973f87e11a580fd64db5a",
     "7f629fe7971ec4a53cb765abe4a57b335b5d5cc49cd4ff8ccab0ce0ea3f361fc"),
])
def test_analyze_output_is_pinned(capsys, params, text_sha, json_sha):
    b, n0, dv, L, d = params.split()
    argv = ["analyze", "--b", b, "--n0", n0, "--dv", dv, "--L", L, "--d", d]
    for extra, want in (([], text_sha), (["--json"], json_sha)):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want


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
    ("poly_e", "5:9", "not the shipped"),
    ("poly_e", "5:-1", "not the shipped"),
    # well-formed and of the right degree, but reducible: (x^2+x+1)(x^3+x^2+1)
    ("poly_e", "5:1", "not the shipped"),
])
def test_malformed_key_field_exits_1(tmp_path, capsys, keyfile, field, value, message):
    bad = _edit_key(keyfile, tmp_path, field, value)
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    code, _, err = run(capsys, "encrypt", "--key", bad, "-i", str(src),
                       "-o", str(tmp_path / "ct.bin"))
    _assert_clean_error(code, err)
    assert message in err


def test_key_must_name_the_shipped_polynomial(tmp_path, capsys, paper_key):
    # x^9 + x + 1 is irreducible but not primitive: an error register on it
    # repeats after 73 steps instead of 511, so a key may not choose it
    assert order((1 << 9) | 0b11) == 73
    path = tmp_path / "k.key"
    path.write_text(save_key(paper_key))
    assert "\npoly_e = 9:4\n" in path.read_text()
    bad = _edit_key(str(path), tmp_path, "poly_e", "9:1")
    with pytest.raises(FormatError, match="poly_e = '9:1' is not the shipped polynomial"):
        load_key(open(bad).read())
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    code, _, err = run(capsys, "encrypt", "--key", bad, "-i", str(src),
                       "-o", str(tmp_path / "ct.bin"))
    _assert_clean_error(code, err)
    assert "id '9:4'" in err


def test_decrypt_duplicate_or_unknown_key_field_exits_1(tmp_path, capsys, keyfile):
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    ct = tmp_path / "ct.bin"
    assert run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct))[0] == 0
    text = open(keyfile).read()
    s_line = re.search(r"^s = \w+$", text, re.M).group(0)
    for extra, message in ((s_line, "duplicate key field 's'"),
                           ("colour = blue", "unknown key fields: ['colour']")):
        bad = tmp_path / "extra.key"
        bad.write_text(text + extra + "\n")
        code, _, err = run(capsys, "decrypt", "--key", str(bad), "-i", str(ct),
                           "-o", str(tmp_path / "out.bin"))
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


@pytest.mark.parametrize("sigma", ["1e-200", "nan", "inf", "-inf"])  # -inf was noiseless
def test_decrypt_sigma_without_usable_square_exits_2(tmp_path, capsys, keyfile, sigma):
    _encrypt_frames(tmp_path, capsys, keyfile, b"frame")
    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "decrypt", "--key", keyfile, "-i", str(tmp_path / "ct.bin"),
                       "-o", str(out), f"--sigma={sigma}")
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


def _encrypt_at(tmp_path, capsys, keyfile, src, name, *first):
    """Encrypt src with the CLI, optionally at --first-counter; return
    (exit code, stderr, output path)."""
    ct = tmp_path / name
    code, _, err = run(capsys, "encrypt", "--key", keyfile, "-i", str(src), "-o", str(ct),
                       *(("--first-counter", str(first[0])) if first else ()))
    return code, err, ct


def _frames_of(path):
    with open(path, "rb") as fh:
        return list(FrameReader(fh))


def test_encrypt_first_counter_separates_files_under_one_key(tmp_path, capsys, keyfile):
    capacity = 13 * 2 * 2 // 8
    data = np.random.default_rng(4).bytes(3 * capacity)
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    # the hazard: every default encrypt starts at counter 0, so two files
    # under one key reuse the keystream material of each frame, and the same
    # plaintext encrypts to the same bytes
    a = _encrypt_at(tmp_path, capsys, keyfile, src, "a.bin")[2]
    b = _encrypt_at(tmp_path, capsys, keyfile, src, "b.bin")[2]
    assert a.read_bytes() == b.read_bytes()
    assert [f[0] for f in _frames_of(a)] == [0, 1, 2]
    # the remedy: a disjoint counter range gives every frame fresh material
    code, err, c = _encrypt_at(tmp_path, capsys, keyfile, src, "c.bin", 3)
    assert (code, err) == (0, "")
    frames_a, frames_c = _frames_of(a), _frames_of(c)
    assert [f[0] for f in frames_c] == [3, 4, 5]
    assert all(not np.array_equal(fa[2], fc[2]) for fa, fc in zip(frames_a, frames_c))
    for ct in (a, c):
        out = tmp_path / f"{ct.stem}.out"
        assert run(capsys, "decrypt", "--key", keyfile, "-i", str(ct), "-o", str(out))[0] == 0
        assert out.read_bytes() == data


@pytest.mark.parametrize("first", [1, 2**40, 2**64 - 3], ids=["1", "2^40", "2^64-frames"])
def test_encrypt_first_counter_roundtrips(tmp_path, capsys, keyfile, first):
    capacity = 13 * 2 * 2 // 8
    data = np.random.default_rng(5).bytes(3 * capacity - 1)  # three frames, one partial
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    code, err, ct = _encrypt_at(tmp_path, capsys, keyfile, src, "ct.bin", first)
    assert (code, err) == (0, "")
    assert [f[0] for f in _frames_of(ct)] == [first, first + 1, first + 2]
    out = tmp_path / "out.bin"
    assert run(capsys, "decrypt", "--key", keyfile, "-i", str(ct), "-o", str(out))[0] == 0
    assert out.read_bytes() == data


@pytest.mark.parametrize("first", [-1, 2**64 - 2, 2**64])
def test_encrypt_first_counter_past_the_counter_space_exits_2(tmp_path, capsys, keyfile,
                                                              first):
    # three frames from 2^64 - 2 would need counter 2^64
    src = tmp_path / "plain.bin"
    src.write_bytes(bytes(3 * (13 * 2 * 2 // 8)))
    code, err, ct = _encrypt_at(tmp_path, capsys, keyfile, src, "ct.bin", first)
    assert code == 2
    assert err.startswith(f"usage error: --first-counter {first}: the 3 frames")
    assert not ct.exists()
