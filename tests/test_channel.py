import concurrent.futures
import math
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclattice import channel
from qclattice.channel import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    SweepSpec,
    add_awgn,
    lattice_sweep,
    point_sigmas,
    rows_to_csv,
    run_sweep,
    wilson_interval,
)
from qclattice.cipher import CipherSession
from qclattice.decoder import DecoderConfig
from qclattice.errors import DecodeFailure, InvalidParams, NotInLattice, NotLatticePoint
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import rdf_search


def test_awgn_zero_sigma_identity():
    rng = np.random.default_rng(0)
    x = np.arange(10)
    out = add_awgn(x, 0.0, rng)
    assert np.array_equal(out, x)
    assert out.dtype == np.float64


def test_awgn_sample_variance():
    rng = np.random.default_rng(1)
    noise = add_awgn(np.zeros(10**6), 1.0, rng)
    assert abs(noise.var() - 1.0) < 0.01
    assert abs(noise.mean()) < 0.01


def test_awgn_reproducible():
    a = add_awgn(np.zeros(100), 0.5, np.random.default_rng(7))
    b = add_awgn(np.zeros(100), 0.5, np.random.default_rng(7))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0])
def test_awgn_rejects_negative_or_non_finite_sigma(sigma):
    # nan used to return all-NaN noise, inf +-inf
    with pytest.raises(InvalidParams):
        add_awgn(np.zeros(4), sigma, np.random.default_rng(0))


def _trial_rng(seed, point, trial):
    """A fresh generator per trial: the streams sweeps are defined by."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (point << 32) ^ trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(rng, odd):
    # an odd count of 0/1 integers leaves a buffered 32-bit draw behind,
    # which the 64-bit normals do not use
    out = rng.integers(0, 2, size=odd).tobytes() + rng.normal(0.0, 1.0, size=3).tobytes()
    assert rng.bit_generator.state["has_uint32"] == 1
    return out


_NEAR_2_32 = st.one_of(st.integers(0, 40), st.integers(2**32 - 40, 2**32 - 1),
                       st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.sampled_from([0, 2**64 - 1, -1, 2**64, -(2**70)]),
                 st.integers(-(2**80), 2**80)),
       st.lists(st.tuples(_NEAR_2_32, _NEAR_2_32), min_size=1, max_size=4),
       st.integers(0, 7).map(lambda k: 2 * k + 1))
def test_rekeyed_generator_draws_the_fresh_one(seed, trials, odd):
    rekey = channel._trial_streams(seed)
    for point, trial in trials:
        assert _draws(rekey(point, trial), odd) == _draws(_trial_rng(seed, point, trial), odd)


def test_trial_keys_are_distinct_up_to_the_trial_cap():
    # point 0, trial 2^32 would draw the noise of point 1, trial 0
    a = _trial_rng(3, 0, 2**32).normal(size=8)
    assert np.array_equal(a, _trial_rng(3, 1, 0).normal(size=8))
    assert MAX_TRIALS == 2**32 - 1
    SweepSpec(0.0, 0.0, 1.0, MAX_TRIALS, 0)
    with pytest.raises(InvalidParams):
        SweepSpec(0.0, 0.0, 1.0, MAX_TRIALS + 1, 0)


def test_sweep_spec_points_and_validation():
    spec = SweepSpec(0.0, 6.0, 0.5, 10, 1)
    assert len(spec.points()) == 13
    with pytest.raises(InvalidParams):
        SweepSpec(0.0, 6.0, 0.0, 10, 1)
    with pytest.raises(InvalidParams):
        SweepSpec(0.0, 6.0, 0.5, 0, 1)


@pytest.mark.parametrize("trials, seed", [
    (2.5, 0),  # lattice_sweep raised TypeError
    (True, 0),  # the row's trials field read True
    (np.float64(3.0), 0),
    ("7", 0),
    (1, 1.5),  # the first trial raised TypeError
    (1, "7"),
    (1, False),
    (1, None),
])
def test_sweep_spec_requires_integer_trials_and_seed(trials, seed):
    with pytest.raises(InvalidParams):
        SweepSpec(0.0, 0.0, 1.0, trials, seed)


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64 + 5, np.int64(-3), np.uint64(7)])
def test_sweep_spec_accepts_any_integer_seed(seed):
    SweepSpec(0.0, 0.0, 1.0, np.int32(2), seed)


def test_lattice_sweep_seed_is_taken_mod_2_64():
    ctx = LatticeCtx.from_code(rdf_search(13, 2, 3, rng_seed=2), 4)
    cfg = DecoderConfig()
    a = lattice_sweep(ctx, cfg, SweepSpec(2.0, 2.0, 1.0, 6, 2**64 + 9))
    b = lattice_sweep(ctx, cfg, SweepSpec(2.0, 2.0, 1.0, 6, np.int64(9)))
    assert [r[:4] for r in a] == [r[:4] for r in b]


def test_sweep_spec_points_are_the_grid():
    assert SweepSpec(0.0, 6.0, 0.5, 1, 1).points() == [i / 2 for i in range(13)]
    assert SweepSpec(0.0, 1.0, 0.1, 1, 1).points() == [i / 10 for i in range(11)]
    assert SweepSpec(1.5, 3.5, 1.0, 1, 1).points() == [1.5, 2.5, 3.5]
    assert SweepSpec(2.0, 1.0, 1.0, 1, 1).points() == []


@pytest.mark.parametrize("start,stop,step", [
    (0.0, math.inf, 1.0),  # never ended
    (math.nan, math.nan, 1.0),  # gave an empty CSV
    (0.0, 1.0, math.nan),
    (-math.inf, 0.0, 1.0),
    (0.0, 1.0, 1e-300),  # 1e300 points
    (0.0, 1e4, 1.0),  # one point over the cap
    (-1e308, 1e308, 1.0),  # span overflows
    (1e17, 1.00000000000001e17, 1.0),  # start + step == start
    (0.0, 1e-9, 1e-12),  # points collapse when rounded to 9 decimals
])
def test_sweep_spec_rejects_unbounded_or_stuck_grids(start, stop, step):
    with pytest.raises(InvalidParams):
        SweepSpec(start, stop, step, 1, 1)


def test_sweep_spec_cap_is_inclusive():
    assert len(SweepSpec(0.0, MAX_SWEEP_POINTS - 1.0, 1.0, 1, 1).points()) == MAX_SWEEP_POINTS


@pytest.mark.parametrize("start,stop,step", [(12.0, 3100.0, 3088.0), (-3100.0, 12.0, 3112.0)])
def test_run_sweep_rejects_unusable_sigma_before_any_trial(toy_key, start, stop, step):
    # a usable 12 dB point and one without a usable sigma: neither runs
    spec = SweepSpec(start, stop, step, 1, 1)
    assert len(spec.points()) == 2
    with pytest.raises(InvalidParams):
        point_sigmas(toy_key, spec)
    with pytest.raises(InvalidParams):
        run_sweep(toy_key, spec, progress=pytest.fail)
    ctx = LatticeCtx.from_code(toy_key.code, toy_key.params.L)
    with pytest.raises(InvalidParams):
        lattice_sweep(ctx, DecoderConfig(), spec, progress=pytest.fail)


def test_run_sweep_high_vnr_zero_errors(toy_key):
    spec = SweepSpec(12.0, 12.0, 1.0, 30, 3)
    rows = run_sweep(toy_key, spec)
    assert len(rows) == 1
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0


@pytest.mark.parametrize("exc", [DecodeFailure, NotLatticePoint, NotInLattice, InvalidParams])
@pytest.mark.parametrize("sweep", ["cipher", "lattice"])
def test_sweeps_share_one_failure_policy(toy_key, monkeypatch, sweep, exc):
    # the receiver of trial 3 of 6 raises at 12 dB, where no frame fails by
    # itself; lattice_sweep used to let NotLatticePoint and NotInLattice escape
    spec = SweepSpec(12.0, 12.0, 1.0, 6, 3)
    if sweep == "cipher":
        owner, name = CipherSession, "decrypt_joint"
        run = lambda: run_sweep(toy_key, spec, workers=1)  # noqa: E731
    else:
        owner, name = channel, "decode"
        ctx = LatticeCtx.from_code(toy_key.code, toy_key.params.L)
        run = lambda: lattice_sweep(ctx, DecoderConfig(), spec)  # noqa: E731
    real = getattr(owner, name)
    calls = []

    def receive(*args):
        # a real failure comes after the frame's keystream material is drawn
        out = real(*args)
        calls.append(args)
        if len(calls) == 4:
            raise exc("planted")
        return out

    monkeypatch.setattr(owner, name, receive)
    if exc is InvalidParams:
        with pytest.raises(InvalidParams, match="planted"):
            run()
    else:
        # n symbol errors and one frame error, of 6 frames
        assert run() == [(12.0, 1 / 6, 1 / 6, 6, 3)]
    assert len(calls) == (4 if exc is InvalidParams else 6)


def test_cipher_sweep_receiver_seeks_to_each_trial(toy_key, monkeypatch):
    # the first receiver fails before drawing its frame's material; a
    # receiver that only stepped with the transmitter would then lag one
    # frame and fail every later trial of the chunk as well
    spec = SweepSpec(12.0, 12.0, 1.0, 6, 3)
    real = CipherSession.decrypt_joint
    calls = []

    def receive(self, r, sigma):
        calls.append(self.counter)
        if len(calls) == 1:
            raise DecodeFailure("planted")
        return real(self, r, sigma)

    monkeypatch.setattr(CipherSession, "decrypt_joint", receive)
    assert run_sweep(toy_key, spec, workers=1) == [(12.0, 1 / 6, 1 / 6, 6, 3)]
    assert calls == list(range(6))


def test_run_sweep_reproducible(toy_key):
    spec = SweepSpec(6.0, 8.0, 1.0, 20, 5)
    assert run_sweep(toy_key, spec) == run_sweep(toy_key, spec)


def test_run_sweep_parallel_matches_serial(toy_key):
    spec = SweepSpec(8.0, 8.0, 1.0, 12, 9)
    serial = run_sweep(toy_key, spec, workers=1)
    parallel = run_sweep(toy_key, spec, workers=3)
    assert serial == parallel


@pytest.mark.parametrize("workers, trials, cpus, pools", [
    (100_000, 5, 3, [3]),  # the CPU count caps the pool
    (100_000, 2, 64, [2]),  # so does the number of trials per point
    (4, 7, 64, [4]),
    (0, 5, 3, []),  # one worker or fewer runs in the caller, with no pool
])
def test_run_sweep_bounds_its_process_pool(toy_key, monkeypatch, workers, trials, cpus, pools):
    made = []

    class InlinePool:
        """Records each construction and runs every job in the caller."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            job = Future()
            job.set_result(fn(*args))
            return job

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(channel.os, "cpu_count", lambda: cpus)
    spec = SweepSpec(6.0, 8.0, 1.0, trials, 4)  # three grid points
    serial = run_sweep(toy_key, spec, workers=1)
    assert made == []
    assert run_sweep(toy_key, spec, workers=workers) == serial
    assert made == pools


def test_lattice_sweep_monotone_direction():
    ctx = LatticeCtx.from_code(rdf_search(13, 2, 3, rng_seed=2), 4)
    cfg = DecoderConfig()
    spec = SweepSpec(0.0, 8.0, 4.0, 60, 2)
    rows = lattice_sweep(ctx, cfg, spec)
    sers = [r[1] for r in rows]
    assert sers[0] > sers[-1]


def test_csv_format():
    rows = [(0.0, 0.125, 0.5, 8, 42), (0.5, 0.0, 0.0, 8, 42)]
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0.125,0.5,8,42"
    assert text.endswith("\n")
    assert "\r" not in text
    # grid points closer than %g's six digits still print apart, and read back
    pts = SweepSpec(12.0000001, 12.0000003, 0.0000001, 1, 0).points()
    lines = rows_to_csv([(v, 0.0, 0.0, 1, 0) for v in pts]).splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["12.0000001", "12.0000002", "12.0000003"]
    assert [float(line.split(",")[0]) for line in lines] == pts


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi > 0.99 and lo > 0.95
