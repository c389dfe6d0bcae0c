"""AWGN simulation: noise injection, VNR sweeps, CSV output.

run_sweep (the full cipher) and lattice_sweep (bare lattice coding) share
one trial loop and one failure policy: a frame whose receiver raises
DecodeFailure, NotLatticePoint or NotInLattice has every symbol in error.
Trial randomness comes from a counter-based Philox generator keyed by
(seed, (point index << 32) ^ trial index), so results are independent of
execution order and identical for any worker count.  Each chunk of trials
re-keys one generator per trial, which draws exactly the stream of a fresh
Generator(Philox(key=...)).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cipher import CipherSession, SecretKey
from .decoder import DecoderConfig, decode
from .errors import DecodeFailure, InvalidParams, NotInLattice, NotLatticePoint
from .lattice import LatticeCtx

WORKERS_ENV = "QCLATTICE_WORKERS"
MAX_SWEEP_POINTS = 10_000
# trial t of point p is keyed (p << 32) ^ t, which collides once t reaches 2^32
MAX_TRIALS = 2**32 - 1


@dataclass(frozen=True)
class SweepSpec:
    """VNR grid start, start + step, ... up to stop (within 1e-9), in dB.

    The grid must be finite, hold at most MAX_SWEEP_POINTS points and
    advance at every step after rounding to 9 decimals; anything else
    raises InvalidParams, so points() always ends.  trials_per_point and
    rng_seed must be integers (not bool), with 1 <= trials_per_point <=
    MAX_TRIALS; any integer seed is used modulo 2^64.
    """

    vnr_db_start: float
    vnr_db_stop: float
    vnr_db_step: float
    trials_per_point: int
    rng_seed: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.vnr_db_start, self.vnr_db_stop, self.vnr_db_step))):
            raise InvalidParams("VNR start, stop and step must be finite")
        if self.vnr_db_step <= 0:
            raise InvalidParams("step must be positive")
        for name in ("trials_per_point", "rng_seed"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise InvalidParams(f"{name} must be an integer, not {v!r}")
        if not 1 <= self.trials_per_point <= MAX_TRIALS:
            raise InvalidParams(f"trials must be between 1 and {MAX_TRIALS}")
        # inf when the span overflows or the step is tiny
        if not self._span() < MAX_SWEEP_POINTS:
            raise InvalidParams(f"VNR grid has more than {MAX_SWEEP_POINTS} points")
        pts = self.points()
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidParams("VNR step is too small to advance the grid")

    def _span(self) -> float:
        return (self.vnr_db_stop + 1e-9 - self.vnr_db_start) / self.vnr_db_step

    def points(self):
        count = max(0, math.floor(self._span()) + 1)
        return [round(self.vnr_db_start + i * self.vnr_db_step, 9) for i in range(count)]


def add_awgn(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """x + N(0, sigma^2) noise; sigma = 0 returns x exactly.

    Raises InvalidParams for a negative or non-finite sigma.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidParams(f"sigma must be finite and nonnegative, not {sigma!r}")
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)


def _trial_streams(seed: int):
    """rekey(point, trial) -> one Philox Generator, set to that trial's key.

    Each call sets the generator's key to (seed mod 2^64, (point << 32) ^
    trial), with a zero counter, an empty buffer and no cached 32-bit draw:
    the state of a fresh Generator(Philox(key=...)), so it draws the same
    stream without building a generator, and its OS entropy, per trial.
    """
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(point: int, trial: int) -> np.random.Generator:
        key[1] = (point << 32) ^ trial
        bitgen.state = state  # copies the arrays into the generator
        return rng

    return rekey


def point_sigmas(key: SecretKey, spec: SweepSpec) -> list:
    """Noise sigma of each grid point for the key's lattice.

    Raises InvalidParams, before any trial runs, for a point whose VNR
    gives no usable sigma.
    """
    lattice = LatticeCtx.from_code(key.code, key.params.L)
    return [lattice.vnr_sigma(v) for v in spec.points()]


def _cipher_link(key, start):
    """(send, receive) of the full cipher, the transmitter seeked to frame start.

    Trial t uses frame t of the material stream, which restarts per point.
    The receiver seeks to the frame just sent before each decrypt, so a
    receiver that fails early cannot shift the frames of later trials.
    """
    n, L = key.params.n, key.params.L
    tx, rx = CipherSession(key), CipherSession(key)
    tx.advance_to(start)

    def send(rng):
        m = np.empty(n, dtype=np.int64)
        m[0::2] = rng.integers(0, L, size=n // 2)
        m[1::2] = rng.integers(-L, 0, size=n // 2)
        return m, tx.encrypt_joint(m).y

    def receive(r, sigma):
        rx.advance_to(tx.counter - 1)
        return rx.decrypt_joint(r, sigma)

    return send, receive


def _lattice_link(ctx, cfg, start):
    """(send, receive) of bare lattice coding: random bits in, decoded point out."""

    def send(rng):
        lam = ctx.encode(rng.integers(0, 2, size=ctx.n))
        return lam, lam

    return send, lambda r, sigma: decode(ctx, cfg, r, sigma)


def _run_chunk(link, point, sigma, seed, start, count):
    """(symbol errors, frame errors) of trials [start, start + count) at one point.

    link(start) gives send(rng) -> (sent symbols, channel input) and
    receive(r, sigma) -> their estimate.  Receiver exceptions other than
    the three that fail a frame propagate.
    """
    send, receive = link(start)
    rekey = _trial_streams(seed)
    sym_err = frame_err = 0
    for t in range(start, start + count):
        rng = rekey(point, t)
        sent, x = send(rng)
        r = add_awgn(x, sigma, rng)
        try:
            errs = int((receive(r, sigma) != sent).sum())
        except (DecodeFailure, NotLatticePoint, NotInLattice):
            errs = sent.size
        sym_err += errs
        frame_err += errs > 0
    return sym_err, frame_err


def _sweep(link, n, sigmas, spec, workers, progress):
    """Rows (vnr_db, ser, fer, trials, seed) of link's trials over the grid.

    Each point's trials run in min(workers, trials, CPU count) chunks; with
    more than one, one process pool serves the whole sweep.
    """
    trials = spec.trials_per_point
    size = max(1, min(workers, trials, os.cpu_count() or 1))
    per = -(-trials // size)  # trials per chunk, rounded up
    rows = []
    with (ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext()) as pool:
        for idx, (vnr_db, sigma) in enumerate(zip(spec.points(), sigmas)):
            chunks = [
                (link, idx, sigma, spec.rng_seed, start, min(per, trials - start))
                for start in range(0, trials, per)
            ]
            if pool is None:
                tot = [_run_chunk(*c) for c in chunks]
            else:
                tot = [j.result() for j in [pool.submit(_run_chunk, *c) for c in chunks]]
            sym_err, frame_err = map(sum, zip(*tot))
            ser, fer = sym_err / (trials * n), frame_err / trials
            rows.append((vnr_db, ser, fer, trials, spec.rng_seed))
            if progress:
                progress(f"vnr {vnr_db:+.2f} dB: ser={ser:.3e} fer={fer:.3e}")
    return rows


def run_sweep(key: SecretKey, spec: SweepSpec, workers: int | None = None, progress=None):
    """Monte-Carlo SER/FER sweep of the full cipher over the VNR grid.

    Returns rows (vnr_db, ser, fer, trials, seed).  Deterministic for a
    fixed spec regardless of the worker count; workers defaults to
    $QCLATTICE_WORKERS, else 1.  Raises InvalidParams before any trial
    when a grid point has no usable sigma.
    """
    sigmas = point_sigmas(key, spec)
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError:
            workers = 1
    return _sweep(partial(_cipher_link, key), key.params.n, sigmas, spec, workers, progress)


def lattice_sweep(ctx: LatticeCtx, cfg: DecoderConfig, spec: SweepSpec, progress=None):
    """SER/FER of bare lattice decoding (no cipher layer) over a VNR grid.

    Used for decoder-level comparisons between lattices whose parameters
    are not admissible cipher keys.  Serial, with run_sweep's trial loop,
    rows and failure policy.  Raises InvalidParams before any trial when a
    grid point has no usable sigma.
    """
    sigmas = [ctx.vnr_sigma(v) for v in spec.points()]
    return _sweep(partial(_lattice_link, ctx, cfg), ctx.n, sigmas, spec, 1, progress)


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


CSV_HEADER = "vnr_db,ser,fer,trials,seed"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for vnr_db, ser, fer, trials, seed in rows:
        lines.append(f"{vnr_db:g},{ser:.10g},{fer:.10g},{trials},{seed}")
    return "\n".join(lines) + "\n"
