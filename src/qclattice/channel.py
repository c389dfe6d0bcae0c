"""AWGN simulation: noise injection, VNR sweeps, CSV output.

run_sweep (the full cipher) and lattice_sweep (bare lattice coding) share
one trial loop, one link protocol (link() gives send(rng, t) and
receive(r, sigma, t); trial t is frame t) and one failure policy: a frame
whose receiver raises DecodeFailure, NotLatticePoint or NotInLattice has
every symbol in error.
Trial randomness comes from a counter-based Philox generator keyed by
(seed, (point index << 32) ^ trial index), so results are independent of
execution order and identical for any worker count.  Each chunk of trials
re-keys one generator per trial, which draws exactly the stream of a fresh
Generator(Philox(key=...)).
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cipher import CipherSession, SecretKey
from .decoder import DecoderConfig, decode
from .errors import DecodeFailure, InvalidParams, NotInLattice, NotLatticePoint, integer, real
from .lattice import LatticeCtx

WORKERS_ENV = "QCLATTICE_WORKERS"
MAX_SWEEP_POINTS = 10_000
# trial t of point p is keyed (p << 32) ^ t, which collides once t reaches 2^32
MAX_TRIALS = 2**32 - 1


@dataclass(frozen=True)
class SweepSpec:
    """VNR grid start, start + step, ... up to stop (within 1e-9), in dB.

    The grid must be finite reals (held as floats), step > 0, hold at most
    MAX_SWEEP_POINTS points and advance at every step after rounding to 9
    decimals, or InvalidParams is raised, so points() ends.  trials_per_point
    and rng_seed must be integers (not bool), with 1 <= trials_per_point <=
    MAX_TRIALS; any integer seed is used modulo 2^64.
    """

    vnr_db_start: float
    vnr_db_stop: float
    vnr_db_step: float
    trials_per_point: int
    rng_seed: int

    def __post_init__(self):
        for name, lo in (("vnr_db_start", -math.inf), ("vnr_db_stop", -math.inf),
                         ("vnr_db_step", math.ulp(0.0))):
            object.__setattr__(self, name, real(getattr(self, name), name, lo))
        trials = integer(self.trials_per_point, "trials_per_point", 1, MAX_TRIALS + 1)
        object.__setattr__(self, "trials_per_point", trials)
        object.__setattr__(self, "rng_seed", integer(self.rng_seed, "rng_seed"))
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

    Raises InvalidParams unless sigma is a finite real >= 0 (``errors.real``).
    """
    sigma = real(sigma, "sigma", 0.0)
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
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
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


def _cipher_link(key):
    """(send, receive) of the full cipher through a transmit and a receive session.

    Both seek frame t for trial t (the stream restarts per point), so a
    receiver that fails early cannot shift the frames of later trials.
    """
    n, L = key.params.n, key.params.L
    tx, rx = CipherSession(key), CipherSession(key)

    def send(rng, t):
        m = np.empty(n, dtype=np.int64)
        m[0::2] = rng.integers(0, L, size=n // 2)
        m[1::2] = rng.integers(-L, 0, size=n // 2)
        tx.advance_to(t)
        return m, tx.encrypt_joint(m).y

    def receive(r, sigma, t):
        rx.advance_to(t)
        return rx.decrypt_joint(r, sigma)

    return send, receive


def _lattice_link(ctx, cfg):
    """(send, receive) of bare lattice coding: random bits in, decoded point out."""

    def send(rng, t):
        lam = ctx.encode(rng.integers(0, 2, size=ctx.n))
        return lam, lam

    return send, lambda r, sigma, t: decode(ctx, cfg, r, sigma)


def _run_chunk(link, point, sigma, seed, start, count):
    """(symbol errors, frame errors) of trials [start, start + count) at one point.

    link() gives send(rng, t) -> (sent symbols, channel input) and
    receive(r, sigma, t) -> their estimate, for trial t, which is frame t.
    Receiver exceptions other than the three that fail a frame propagate.
    """
    send, receive = link()
    rekey = _trial_streams(seed)
    sym_err = frame_err = 0
    for t in range(start, start + count):
        rng = rekey(point, t)
        sent, x = send(rng, t)
        r = add_awgn(x, sigma, rng)
        try:
            errs = int((receive(r, sigma, t) != sent).sum())
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
    if size > 1:  # imported here: it costs most of this module's import time
        from concurrent.futures import ProcessPoolExecutor
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
    fixed spec regardless of the worker count; workers (an integer) defaults
    to $QCLATTICE_WORKERS, else 1 (unset or empty).  Raises InvalidParams
    before any trial for a non-integer workers or variable, or a grid point
    with no usable sigma.
    """
    sigmas = point_sigmas(key, spec)
    workers = sweep_workers(workers)
    return _sweep(partial(_cipher_link, key), key.params.n, sigmas, spec, workers, progress)


def sweep_workers(workers: int | None = None) -> int:
    """The worker count run_sweep uses: workers, else $QCLATTICE_WORKERS, else 1.

    Raises InvalidParams for a non-integer workers or variable.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV) or "1"
        try:
            workers = int(env)
        except ValueError:
            raise InvalidParams(f"${WORKERS_ENV} = {env!r} is not an integer") from None
    return integer(workers, "workers")


def lattice_sweep(ctx: LatticeCtx, cfg: DecoderConfig, spec: SweepSpec, progress=None):
    """SER/FER of bare lattice decoding (no cipher layer) over a VNR grid.

    Used for decoder-level comparisons between lattices whose parameters
    are not admissible cipher keys.  Serial, with run_sweep's trial loop,
    rows and failure policy.  Raises InvalidParams before any trial when a
    grid point has no usable sigma.
    """
    sigmas = [ctx.vnr_sigma(v) for v in spec.points()]
    return _sweep(partial(_lattice_link, ctx, cfg), ctx.n, sigmas, spec, 1, progress)


def wilson_interval(successes: float, trials: int, z: float = 1.96):
    """Wilson score interval, as two floats, for successes in [0, trials] out of trials >= 0."""
    trials = integer(trials, "trials", 0)
    successes, z = real(successes, "successes", 0, trials), real(z, "z", math.ulp(0.0))
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


CSV_HEADER = "vnr_db,ser,fer,trials,seed"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for vnr_db, ser, fer, trials, seed in rows:
        # the shortest text that reads back as the point; integral points print as integers
        vnr = repr(float(vnr_db)).removesuffix(".0")
        lines.append(f"{vnr},{ser:.10g},{fer:.10g},{trials},{seed}")
    return "\n".join(lines) + "\n"
