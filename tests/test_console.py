"""The console checks, each in a fresh process from a temporary directory.

Every check runs `python -m qclattice.cli`, and the installed `qclattice`
script too where one is on PATH, with this checkout's package first on
PYTHONPATH.  Each keeps its exit code and its output bytes.
"""

import json
import shutil
import sys

import numpy as np
import pytest

from qclattice.cli import main
from test_cli import KEYGEN, fresh_python

HIGH = "18446744073709551000"  # --first-counter: the file's 50 frames end near 2^64
COMMANDS = {"module": [sys.executable, "-m", "qclattice.cli"]}
if shutil.which("qclattice"):
    COMMANDS["script"] = [shutil.which("qclattice")]


@pytest.fixture(params=sorted(COMMANDS))
def console(request, tmp_path):
    """Run one console command in tmp_path: (exit code, standard output)."""
    executable, *head = COMMANDS[request.param]

    def run(*argv, **env):
        proc = fresh_python(*head, *argv, cwd=tmp_path, executable=executable, **env)
        return proc.returncode, proc.stdout
    return run


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A toy key, 300 bytes of plaintext and their ciphertext from counter 0 and from HIGH."""
    d = tmp_path_factory.mktemp("console")
    (d / "plain.bin").write_bytes(np.random.default_rng(11).bytes(300))
    for argv in (KEYGEN + ["-o", "k.key"],
                 ["encrypt", "--key", "k.key", "-i", "plain.bin", "-o", "c.bin"],
                 ["encrypt", "--key", "k.key", "-i", "plain.bin", "-o", "high.bin",
                  "--first-counter", HIGH]):
        assert main([str(d / a) if a.endswith((".key", ".bin")) else a for a in argv]) == 0
    return {name: (d / name).read_bytes() for name in ("k.key", "plain.bin", "c.bin", "high.bin")}


@pytest.fixture()
def copied(tmp_path, files):
    """The module's files, copied into tmp_path."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return files


def _decrypt(src, out, *extra):
    return ["decrypt", "--key", "k.key", "-i", src, "-o", out, *extra]


def test_round_trip(console, tmp_path, files):
    (tmp_path / "plain.bin").write_bytes(files["plain.bin"])
    assert console(*KEYGEN, "-o", "k.key") == (0, "key size: 45 bits\n")
    assert console("encrypt", "--key", "k.key", "-i", "plain.bin", "-o", "c.bin") == (0, "")
    assert console(*_decrypt("c.bin", "out.bin")) == (0, "")
    for name in ("k.key", "c.bin"):
        assert (tmp_path / name).read_bytes() == files[name], name
    assert (tmp_path / "out.bin").read_bytes() == files["plain.bin"]


def test_sigma_zero_decrypts_exactly(console, tmp_path, copied):
    assert console(*_decrypt("c.bin", "zero.bin", "--sigma", "0")) == (0, "")
    assert (tmp_path / "zero.bin").read_bytes() == copied["plain.bin"]


def test_truncated_file_writes_its_whole_frames_and_exits_1(console, tmp_path, copied):
    # cut 5 bytes short: the 49 whole frames hold 294 bytes
    (tmp_path / "short.bin").write_bytes(copied["c.bin"][:-5])
    assert console(*_decrypt("short.bin", "short.out"))[0] == 1
    assert (tmp_path / "short.out").read_bytes() == copied["plain.bin"][:294]


def test_first_counter_near_2_64_round_trips(console, tmp_path, copied):
    argv = ("encrypt", "--key", "k.key", "-i", "plain.bin", "-o", "h.bin", "--first-counter", HIGH)
    assert console(*argv) == (0, "")
    assert (tmp_path / "h.bin").read_bytes() == copied["high.bin"]
    assert console(*_decrypt("h.bin", "high.out")) == (0, "")
    assert (tmp_path / "high.out").read_bytes() == copied["plain.bin"]


def test_counters_falling_from_near_2_64_to_0_in_one_block(console, tmp_path, copied):
    # high.bin's 50 frames, then c.bin's without its 17-byte header: the first
    # read block's counters restart at 0, a draw back across the counter range
    (tmp_path / "mixed.bin").write_bytes(copied["high.bin"] + copied["c.bin"][17:])
    assert console(*_decrypt("mixed.bin", "mixed.out")) == (0, "")
    assert (tmp_path / "mixed.out").read_bytes() == 2 * copied["plain.bin"]


@pytest.mark.parametrize("sigma", ["-inf", "nan"])
def test_unusable_sigma_exits_2(console, tmp_path, copied, sigma):
    assert console(*_decrypt("c.bin", "bad.bin", f"--sigma={sigma}")) == (2, "")


def test_analyze_json(console, copied):
    code, out = console("analyze", "--key", "k.key", "--json")
    assert code == 0 and json.loads(out)["n"] == "26"


def test_simulate_header(console, tmp_path, copied):
    argv = ("simulate", "--key", "k.key", "--vnr-db", "12:1:12", "--trials", "2", "-o", "s.csv")
    assert console(*argv) == (0, "")
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "vnr_db,ser,fer,trials,seed"


def test_bad_workers_variable_exits_1_and_leaves_no_file(console, tmp_path, copied):
    argv = ("simulate", "--key", "k.key", "--vnr-db", "12:1:12", "--trials", "2", "-o", "bad.csv")
    assert console(*argv, QCLATTICE_WORKERS="abc") == (1, "")
    assert not (tmp_path / "bad.csv").exists()


def test_keygen_and_simulate_at_n_1496(console, tmp_path):
    # the paper's high dimension: a record whose only gate is the exit status
    keygen = "keygen --b 187 --n0 8 --dv 5 --L 16 --d 77 --seed 1 -o k1496.key".split()
    assert console(*keygen)[0] == 0
    simulate = "simulate --key k1496.key --vnr-db 1.5:0.75:2.25 --trials 8 -o s1496.csv"
    assert console(*simulate.split())[0] == 0
    assert len((tmp_path / "s1496.csv").read_text().splitlines()) == 3
