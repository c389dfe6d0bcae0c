#!/usr/bin/env python3
"""qclattice pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload file_exact --seed 1 --seconds 30 --trace 0

Workloads, at the reference parameters (b=43, n0=6, dv=3, q=43, L=16, d=61)
with the key from keygen(params, 1), all in this one process:

  file_exact        `qclattice encrypt` of a seeded byte file, then exact
                    `qclattice decrypt`; output compared byte for byte.
  lossy_observed    `qclattice decrypt --sigma --on-fail skip` of float64
                    observation files: a seeded quarter of the frames of a
                    seeded ciphertext, with AWGN at VNR 2.5 dB.
  lattice_waterfall channel.lattice_sweep at 1.5, 2.5 and 3.5 dB.

Inputs are made from --seed before timing.  A block is one pass over the
workload's pool of inputs (one file, eight observation files or 48 sweep
seeds).  Every run first checks a fixed gate round trip against a pinned
ciphertext digest.  With --trace 0 it then repeats the block until
--seconds are spent and reports setup_s and frames_per_s from median
yardstick-scaled times (see yardstick()).  With --trace 1 it runs setup,
gate and one block untraced, traced and untraced again, and reports
per-layer metrics from the traced pass.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# single-threaded numerics and no sweep workers, before numpy is imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("QCLATTICE_WORKERS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "qclattice" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'qclattice'} not found; run from a qclattice checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import qclattice  # noqa: E402
from qclattice import (  # noqa: E402
    _kernels, channel, cipher, cli, decoder, formats, gf2poly, keystream, lattice, nlf,
)

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("file_exact", "lossy_observed", "lattice_waterfall")
PARAMS = cipher.CipherParams(b=43, n0=6, dv=3, q=43, L=16, d=61)
KEY_SEED = 1
DEFAULT_SEED = 1
LOSSY_VNR_DB = 2.5
WATERFALL_VNR_DB = (1.5, 2.5, 3.5)

# The gate: a fixed round trip every run makes before timing.
GATE_FRAMES = 8
GATE_SWEEP_TRIALS = 8
# SHA-256 over (counter u64 LE, n int32 LE coordinates) of every frame of
# the gate ciphertext; the file header is left out so header versions
# do not change it.
GATE_CT_SHA256 = "c4a0f991c14979c89cd2cf109c63029c0865b9c3bcd91fc228508cac4ae5a6fe"

# Plausibility ceilings on frame-error rates; a decoder that returns wrong
# frames quickly must not post numbers.
LOSSY_FER_CEILING = 0.25
WATERFALL_FER_CEILING = {1.5: 0.60, 2.5: 0.10, 3.5: 0.05}
GATE_NOISY_ERRORS_CEILING = 2

OUT_DIR = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one block; the self-check shrinks them."""

    file_frames: int = 32
    lossy_frames: int = 128  # per observation file
    lossy_delivered: int = 32
    lossy_pool: int = 8  # observation files in one block
    waterfall_trials: int = 100  # per point, in each sweep of the pool
    waterfall_pool: int = 48  # sweeps with distinct seeds in one block
    setup_repeats: int = 25


@dataclass
class Rep:
    """One repetition of one pool item; times are (raw, scaled) seconds."""

    seconds: tuple
    frames: int
    frame_errors: int
    signature: tuple
    encrypt_s: tuple = (0.0, 0.0)
    decrypt_s: tuple = (0.0, 0.0)


def plaintext(seed: int, nbytes: int) -> bytes:
    return random.Random(seed).randbytes(nbytes)


def frame_digest(data: bytes, frames: int, n: int) -> str | None:
    """SHA-256 over every frame's counter and int32 coordinates."""
    frame_bytes = 12 + 4 * n
    header = len(data) - frames * frame_bytes
    if header < 0:
        return None
    h = hashlib.sha256()
    for f in range(frames):
        base = header + f * frame_bytes
        h.update(data[base : base + 8])
        h.update(data[base + 12 : base + frame_bytes])
    return h.hexdigest()


def _read(path) -> bytes:
    """File contents, or b"" when a failed command left no file."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return b""


def git_commit(root: Path):
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One workload's inputs, operations and checks."""

    def __init__(self, workload, seed, sizes, workdir, corrupt=None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.dir = Path(workdir)
        self.corrupt = corrupt  # (byte offset into the first frame body, xor mask)
        self.tracer = None
        self.clock = None
        self.pool = {"lossy_observed": sizes.lossy_pool,
                     "lattice_waterfall": sizes.waterfall_pool}.get(workload, 1)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        p = PARAMS
        self.n = p.n
        self.cap = cipher.frame_capacity_bytes(p.n, p.L)
        self.key = cipher.keygen(p, KEY_SEED)
        self.key_text = cipher.save_key(self.key)
        self.key_path = self._write("bench.key", self.key_text.encode())
        sigma_of = lattice.LatticeCtx.from_code(self.key.code, p.L).vnr_sigma
        self.point_sigmas = {f"vnr{v}": sigma_of(v) for v in WATERFALL_VNR_DB}
        self.sigma = sigma_of(LOSSY_VNR_DB)
        self.ctx = None
        self._prepare_gate()
        getattr(self, f"_prepare_{workload}")()

    # --- inputs ----------------------------------------------------------------

    def _write(self, name, data: bytes) -> str:
        path = self.dir / name
        path.write_bytes(data)
        return str(path)

    def _observations(self, name, pt: bytes, delivered, rng) -> str:
        """Float64 observation file of the delivered frames of pt's ciphertext."""
        session = cipher.CipherSession(self.key)
        packed = list(cipher.pack_bits(pt, self.n, PARAMS.L))
        path = self.dir / name
        with open(path, "wb") as fh:
            writer = formats.FrameWriter(fh, self.n, self.key.digest(), observations=True)
            for j in delivered:
                session.advance_to(j)
                m, payload = packed[j]
                y = session.encrypt_joint(m).y
                writer.write_frame(j, payload, y + rng.normal(0.0, self.sigma, self.n))
        return str(path)

    def _prepare_gate(self):
        self.gate_pt = plaintext(DEFAULT_SEED, GATE_FRAMES * self.cap)
        self.gate_pt_path = self._write("gate.plain", self.gate_pt)
        self.gate_obs_path = self._observations(
            "gate.obs", self.gate_pt, range(GATE_FRAMES),
            np.random.default_rng([DEFAULT_SEED, 1]),
        )

    def _prepare_file_exact(self):
        self.pt = plaintext(self.seed, self.sizes.file_frames * self.cap)
        self.pt_path = self._write("file.plain", self.pt)

    def _prepare_lossy_observed(self):
        # several short transfers keep each timed call near its yardstick
        # samples while the block still averages over many drop patterns
        frames = self.sizes.lossy_frames
        self.transfers = []
        for i in range(self.pool):
            item_seed = self.seed * self.pool + i
            pt = plaintext(item_seed, frames * self.cap)
            # exactly a quarter delivered, each frame with probability 1/4
            pick = random.Random(item_seed + (1 << 40))
            delivered = sorted(pick.sample(range(frames), self.sizes.lossy_delivered))
            obs = self._observations(f"lossy{i}.obs", pt, delivered,
                                     np.random.default_rng([item_seed, 2]))
            self.transfers.append((pt, delivered, obs))

    def _prepare_lattice_waterfall(self):
        # short sweeps with distinct seeds keep each timed call near its
        # yardstick samples while the block still covers many frames
        self.specs = [
            channel.SweepSpec(
                vnr_db_start=WATERFALL_VNR_DB[0], vnr_db_stop=WATERFALL_VNR_DB[-1],
                vnr_db_step=1.0, trials_per_point=self.sizes.waterfall_trials,
                rng_seed=self.seed * self.pool + i,
            )
            for i in range(self.pool)
        ]

    # --- operations ----------------------------------------------------------------

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def _span(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, args)

    def op(self, name, fn, *args):
        """One counted operation: (ok, (raw, scaled) seconds, result).

        An exception fails the operation.
        """
        self.attempted += 1
        ok, result = True, None
        t0 = perf_counter()
        try:
            result = self._span(name, fn, *args)
        except Exception:
            traceback.print_exc()
            self.fail(f"{name} raised")
            ok = False
        dt = perf_counter() - t0
        return ok, (dt, self.clock.scale(dt) if self.clock else dt), result

    def cli(self, *argv):
        ok, dt, rc = self.op(f"cli.{argv[0]}", cli.main, list(argv))
        if ok and rc != 0:
            self.fail(f"qclattice {argv[0]} exited {rc}")
            ok = False
        return ok, dt

    def _frame_errors(self, out: bytes, pt: bytes, delivered) -> int | None:
        if len(out) != len(delivered) * self.cap:
            return None
        c = self.cap
        return sum(out[i * c : (i + 1) * c] != pt[j * c : (j + 1) * c]
                   for i, j in enumerate(delivered))

    # --- phases ------------------------------------------------------------------------

    def setup(self) -> float:
        """Seconds from key-file text to a ready state."""
        if self.workload == "lattice_waterfall":
            decoder.tanner_arrays.cache_clear()
            t0 = perf_counter()
            ctx = lattice.LatticeCtx.from_code(self.key.code, PARAMS.L)
            decoder.tanner_arrays(ctx.code)
            dt = perf_counter() - t0
            self.ctx = ctx
            return dt
        t0 = perf_counter()
        cipher.CipherSession(cipher.load_key(self.key_text))
        return perf_counter() - t0

    def gate(self) -> tuple:
        """Fixed round trip through every entry point; returns its outputs."""
        ct_path = str(self.dir / "gate.ct")
        out_path = str(self.dir / "gate.out")
        self.cli("encrypt", "--key", self.key_path, "-i", self.gate_pt_path, "-o", ct_path)
        digest = frame_digest(_read(ct_path), GATE_FRAMES, self.n)
        if digest != GATE_CT_SHA256:
            self.fail(f"gate ciphertext digest {digest} != pinned {GATE_CT_SHA256}")
        self.cli("decrypt", "--key", self.key_path, "-i", ct_path, "-o", out_path)
        if _read(out_path) != self.gate_pt:
            self.fail("gate exact round trip mismatch")
        self.cli("decrypt", "--key", self.key_path, "-i", self.gate_obs_path, "-o", out_path,
                 "--sigma", repr(self.sigma), "--on-fail", "skip")
        noisy = _read(out_path)
        errors = self._frame_errors(noisy, self.gate_pt, range(GATE_FRAMES))
        if errors is None or errors > GATE_NOISY_ERRORS_CEILING:
            self.fail(f"gate noisy decrypt: {errors} frame errors")
        ctx = lattice.LatticeCtx.from_code(self.key.code, PARAMS.L)
        spec = channel.SweepSpec(WATERFALL_VNR_DB[0], WATERFALL_VNR_DB[-1], 1.0,
                                 GATE_SWEEP_TRIALS, DEFAULT_SEED)
        _, _, rows = self.op("channel.lattice_sweep", channel.lattice_sweep,
                             ctx, decoder.DecoderConfig(), spec)
        return digest, hashlib.sha256(noisy).hexdigest(), rows

    def rep(self, item: int) -> Rep:
        if self.workload == "lattice_waterfall":
            return self._rep_lattice_waterfall(self.specs[item])
        if self.workload == "lossy_observed":
            return self._rep_lossy_observed(*self.transfers[item])
        return self._rep_file_exact()

    def _rep_file_exact(self) -> Rep:
        ct_path = self.dir / "file.ct"
        out_path = self.dir / "file.out"
        frames = self.sizes.file_frames
        ok_e, t_enc = self.cli("encrypt", "--key", self.key_path, "-i", self.pt_path,
                               "-o", str(ct_path))
        data = _read(ct_path)
        if ok_e and self.corrupt is not None:
            offset, mask = self.corrupt
            pos = len(data) - frames * (12 + 4 * self.n) + 12 + offset
            data = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]
            ct_path.write_bytes(data)
        digest = frame_digest(data, frames, self.n)
        ok_d, t_dec = self.cli("decrypt", "--key", self.key_path, "-i", str(ct_path),
                               "-o", str(out_path))
        if ok_d and _read(out_path) != self.pt:
            self.fail("file_exact round trip mismatch")
        both = (t_enc[0] + t_dec[0], t_enc[1] + t_dec[1])
        return Rep(both, frames, 0, (digest,), t_enc, t_dec)

    def _rep_lossy_observed(self, pt, delivered, obs_path) -> Rep:
        out_path = self.dir / "lossy.out"
        _, dt = self.cli("decrypt", "--key", self.key_path, "-i", obs_path,
                         "-o", str(out_path), "--sigma", repr(self.sigma),
                         "--on-fail", "skip")
        out = _read(out_path)
        errors = self._frame_errors(out, pt, delivered)
        if errors is None:
            self.fail(f"lossy output is {len(out)} bytes, not {len(delivered)} frames")
            errors = len(delivered)
        elif errors > LOSSY_FER_CEILING * len(delivered):
            self.fail(f"lossy FER {errors}/{len(delivered)} above the ceiling")
        return Rep(dt, len(delivered), errors, (hashlib.sha256(out).hexdigest(),),
                   decrypt_s=dt)

    def _rep_lattice_waterfall(self, spec) -> Rep:
        _, dt, rows = self.op("channel.lattice_sweep", channel.lattice_sweep,
                              self.ctx, decoder.DecoderConfig(), spec)
        trials = spec.trials_per_point
        errors = 0
        for vnr_db, _ser, fer, _t, _s in rows or ():
            errors += round(fer * trials)
            if fer > WATERFALL_FER_CEILING[vnr_db]:
                self.fail(f"waterfall FER {fer} at {vnr_db} dB above the ceiling")
        return Rep(dt, len(WATERFALL_VNR_DB) * trials, errors, tuple(rows or ()))


# --- runs ---------------------------------------------------------------------------------


def yardstick() -> float:
    """Seconds for a fixed mix of work shaped like the program's hot loops.

    On a shared 2-vCPU VM, CPU speed was seen to drift by up to 2x within
    minutes as other tenants loaded the host.  Timed metrics are scaled by
    this yardstick, measured next to each timed operation and independent
    of the program, to their value at nominal speed.  The mix follows the
    program's profile: carry-less products of 258-bit integers (GF(2)[x]
    arithmetic), integer vector-matrix products at n = 258 (the NLF map) and
    tanh-rule updates on a 43 x 18 edge grid (the SPA decoder).
    """
    t0 = perf_counter()
    a = _YS_POLY
    for _ in range(150):
        x, p = a, 0
        while x:
            low = x & -x
            p ^= _YS_POLY << (low.bit_length() - 1)
            x ^= low
        while p.bit_length() > 258:
            p ^= _YS_MOD << (p.bit_length() - 259)
        a = p | 1
    dense = (np.arange(258 * 258, dtype=np.int64).reshape(258, 258) * 7919) % 2
    v = np.arange(258, dtype=np.int64)
    for _ in range(40):
        dense = dense[::-1].copy()
        v = (v @ dense) % 1021
    m = np.linspace(-3.0, 3.0, 43 * 18).reshape(43, 18)
    idx = np.arange(43 * 18)[::-1].reshape(43, 18)
    for _ in range(200):
        c = np.cumprod(np.tanh(np.clip(m, -30.0, 30.0) / 2.0), axis=1)
        m = 2.0 * np.arctanh(np.clip(c, -0.9999, 0.9999)).ravel()[idx] + 0.01
    return perf_counter() - t0


_YS_POLY = int("9f3b" * 16, 16) | (1 << 257) | 1
_YS_MOD = (1 << 258) | (1 << 83) | 1
YARDSTICK_NOMINAL_S = 0.025


class Clock:
    """Scales operation times by the yardstick sampled on either side."""

    def __init__(self):
        self.last = yardstick()

    def resync(self):
        self.last = yardstick()

    def scale(self, seconds: float) -> float:
        now = yardstick()
        factor = YARDSTICK_NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def _rate(amount, reps, pick):
    """Amount per second from the median scaled time of each pool item."""
    by_item = {}
    for item, rep in reps:
        by_item.setdefault(item, []).append(pick(rep))
    return sum(amount(item) for item in by_item) / sum(
        statistics.median(ts) for ts in by_item.values())


def timed_run(bench: Bench, seconds: float):
    """Setup repeats, the gate, then pool items in turn until the time is spent."""
    clock = Clock()
    setups = []
    for _ in range(bench.sizes.setup_repeats):
        raw = bench.setup()
        setups.append((raw, clock.scale(raw)))
    bench.gate()
    bench.clock = clock
    clock.resync()
    reps = []
    start = perf_counter()
    while True:
        item = len(reps) % bench.pool
        reps.append((item, bench.rep(item)))
        spent = perf_counter() - start
        if len(reps) >= bench.pool and spent + reps[-1][1].seconds[0] > seconds:
            break
    bench.clock = None
    first = dict(reps[: bench.pool])
    if any(rep.signature != first[item].signature for item, rep in reps):
        bench.fail("outputs differ between repetitions of one input")
    frames = {item: rep.frames for item, rep in first.items()}
    metrics = {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "frames_per_s": (_rate(frames.get, reps, lambda r: r.seconds[1]), "1/s"),
    }
    errors = sum(rep.frame_errors for rep in first.values())
    extra = {
        "fer": (errors / sum(frames.values()), "ratio"),
        "raw_setup_s": (statistics.median(t for t, _ in setups), "s"),
        "raw_frames_per_s": (_rate(frames.get, reps, lambda r: r.seconds[0]), "1/s"),
        "repetitions": (len(reps), "count"),
        "frames_per_block": (sum(frames.values()), "count"),
    }
    def mb(item):
        return bench.cap * frames[item] / 1e6

    if bench.workload == "file_exact":
        extra["encrypt_MBps"] = (_rate(mb, reps, lambda r: r.encrypt_s[1]), "MB/s")
    if bench.workload in ("file_exact", "lossy_observed"):
        extra["decrypt_MBps"] = (_rate(mb, reps, lambda r: r.decrypt_s[1]), "MB/s")
    return metrics, extra


def _pass(bench: Bench, tracer):
    """Setup, gate and one block; traced when tracer is given."""
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    decoder.tanner_arrays.cache_clear()
    bench.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        phase("setup")
        bench.setup()
        phase("gate")
        gate = bench.gate()
        phase("block")
        reps = [bench.rep(i) for i in range(bench.pool)]
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        bench.tracer = None
    return wall, (gate, [r.signature for r in reps],
                  sum(r.frame_errors for r in reps), sum(r.frames for r in reps))


MODULES = {m.__name__.rsplit(".", 1)[-1]: m for m in (
    channel, cipher, cli, decoder, formats, gf2poly, keystream, lattice, nlf,
)}


def traced_run(bench: Bench, spans_path: Path | None):
    # untraced passes on both sides of the traced one, so warm-up is not
    # counted as tracing overhead
    wall_a, plain_a = _pass(bench, None)
    tracer = Tracer(MODULES)
    traced_wall, traced = _pass(bench, tracer)
    wall_b, plain_b = _pass(bench, None)
    untraced_wall = (wall_a + wall_b) / 2
    if not plain_a == traced == plain_b:
        bench.fail("tracing changed a result")
    metrics, adds_up = layers.layer_metrics(
        tracer, PARAMS.v, bench.point_sigmas, traced_wall, untraced_wall)
    if not adds_up:
        bench.fail("self times plus remainder do not add up to the traced wall time")
    _, _, errors, frames = traced
    metrics["fer"] = (errors / frames, "ratio")
    metrics["frames"] = (frames, "count")
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics


def environment(args, sizes):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "git_commit": git_commit(ROOT),
        "qclattice": str(Path(qclattice.__file__).parent),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
        "gate_frames": GATE_FRAMES,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "qclattice_workers_env": os.environ.get(channel.WORKERS_ENV),
    }


def run(workload, seed, seconds, trace, sizes=Sizes(), corrupt=None, spans_path=None):
    """Run one workload; returns (result dict for the JSON line, extra metrics)."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        bench = Bench(workload, seed, sizes, workdir, corrupt)
        if trace:
            metrics, extra = traced_run(bench, spans_path), {}
        else:
            metrics, extra = timed_run(bench, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if correct else {},
    }
    return result, extra, bench.problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sizes = Sizes()
    env = environment(args, sizes)
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{stem}.tsv.gz" if args.trace else None
    result, extra, problems = run(args.workload, args.seed, args.seconds, args.trace,
                                  sizes, spans_path=spans_path)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "extra": extra, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
