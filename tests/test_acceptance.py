"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s or -rA to see them);
a failed assertion is the corresponding FAIL.  Criteria 2 and 3 share one
10^4-frame run through a module-scoped fixture.
"""

import numpy as np
import pytest

from conftest import PAPER_PARAMS, random_message
from gf2_reference import (
    CompanionMatrix,
    anf_degree,
    girth_ok_dense,
    h_dense,
    matrix_order,
    nlf_derivative,
    nlf_truth_table,
)
from keystream_reference import joint_state
from qclattice import CipherParams, keygen
from qclattice.analysis import (
    bruteforce_terms_log2,
    differential_cost_log2,
    key_size_bits,
    message_expansion,
)
from qclattice.channel import SweepSpec, lattice_sweep, run_sweep, wilson_interval
from qclattice.cipher import CipherSession
from qclattice.decoder import DecoderConfig, decode
from qclattice.errors import DecodeFailure
from qclattice.keystream import ReseedingLfsr
from qclattice.lattice import LatticeCtx
from qclattice.nlf import NlfContext
from qclattice.primitives import poly
from qclattice.rdfcode import (
    count_rdf_lower_bound_log2,
    rdf_search,
    systematic_generator,
)

JOINT_FRAMES = 10_000
RAW_FRAMES = 10_000


def ok(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def joint_run(paper_key):
    """10^4 noiseless joint frames: round-trip + region statistics."""
    tx, rx = CipherSession(paper_key), CipherSession(paper_key)
    p = paper_key.params
    rng = np.random.default_rng(2024)
    nL = p.n * p.L
    stats = {
        "frames": 0,
        "roundtrip_failures": 0,
        "shaping_violations": 0,
        "region_violations": 0,
        "parity_violations": 0,
    }
    for _ in range(JOINT_FRAMES):
        m = random_message(rng, p.n, p.L)
        ct = tx.encrypt_joint(m)
        # region invariants on the emitted ciphertext (block-aligned P)
        if ((ct.y % 2) == 0).any():
            stats["parity_violations"] += 1
        if (np.abs(ct.y[: p.k]) > nL + 1).any() or (
            np.abs(ct.y[p.k :]) > 2 * nL - 1
        ).any():
            stats["region_violations"] += 1
        out = rx.decrypt_joint(ct.y.astype(np.float64), 0.0)
        if not np.array_equal(out, m):
            stats["roundtrip_failures"] += 1
        stats["frames"] += 1
    # shaped lambda' bound checked directly on a fresh pass of the shaper
    ver = CipherSession(paper_key)
    rng2 = np.random.default_rng(2024)
    for _ in range(JOINT_FRAMES // 10):
        m = random_message(rng2, p.n, p.L)
        _, e, h, _ = ver._frame_material(1)
        x = ver.nlf.apply_f(m + (1 - e), h)
        lambda_prime = (ver.lattice.shape(x) + 1) // 2
        if (np.abs(lambda_prime) > ver.lattice.n * ver.lattice.L - 1).any():
            stats["shaping_violations"] += 1
    return stats


def test_acceptance_1_key_size():
    # test_cipher::test_key_size_matches_serialized_secrets checks that the
    # key text carries exactly these bits
    assert key_size_bits(PAPER_PARAMS) == 214
    ok(1, "key size 214 bits")


def test_acceptance_2_roundtrip_joint(joint_run):
    assert joint_run["frames"] == JOINT_FRAMES
    assert joint_run["roundtrip_failures"] == 0
    ok(2, f"{JOINT_FRAMES} joint frames recovered exactly (noiseless)")


def test_acceptance_2_roundtrip_raw(paper_key):
    tx, rx = CipherSession(paper_key), CipherSession(paper_key)
    rng = np.random.default_rng(77)
    n = paper_key.params.n
    for _ in range(RAW_FRAMES):
        m = rng.integers(-(10**6), 10**6 + 1, size=n)
        assert np.array_equal(rx.decrypt_raw(tx.encrypt_raw(m)), m)
    ok(2, f"{RAW_FRAMES} raw frames with |m| <= 1e6 recovered exactly")


def test_acceptance_3_shaping_and_region(joint_run):
    assert joint_run["shaping_violations"] == 0
    assert joint_run["region_violations"] == 0
    assert joint_run["parity_violations"] == 0
    ok(3, "zero shaping-box, ciphertext-region or parity violations")


def test_acceptance_4_shaping_oracle_toy(toy_lattice):
    ctx = toy_lattice
    axis = np.arange(-(ctx.n * ctx.L) // 2 + 1, (ctx.n * ctx.L + 1) // 2)
    grids = np.meshgrid(*[axis] * ctx.n, indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    mism = 0
    for x in box:
        lam = ctx.shape(x)
        lambda_prime = (lam + 1) // 2
        s = x[: ctx.k] @ ctx.a
        for i in range(ctx.n - ctx.k):
            best = min(
                abs(2 * (x[ctx.k + i] - z * ctx.mod_full) + s[i]) for z in range(-8, 9)
            )
            if abs(lambda_prime[ctx.k + i]) != best:
                mism += 1
        if not np.array_equal(ctx.mod_recover(lam), x):
            mism += 1
    assert mism == 0
    ok(4, f"exhaustive z-search and round trip agree on all {len(box)} box points")


@pytest.mark.parametrize("n,d", [(6, 2), (8, 3)])
def test_acceptance_5_nonlinearity_degree(n, d):
    # F mod 2 of the library's map: truth tables and derivatives from apply_f
    ctx = NlfContext(poly(n), d)
    tt = nlf_truth_table(ctx)
    for i in range(n):
        assert anf_degree(tt[:, i]) == d + 1
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = rng.integers(0, 2, size=n)
        while not w.any():
            w = rng.integers(0, 2, size=n)
        assert anf_degree(tt @ w & 1) == d + 1
    h = rng.integers(0, 2, size=d)
    dirs = list(range(d + 1))
    ref = nlf_derivative(ctx, dirs, np.zeros(n, dtype=np.uint8), h)
    for _ in range(50):
        base = rng.integers(0, 2, size=n)
        assert np.array_equal(nlf_derivative(ctx, dirs, base, h), ref)
    ok(5, f"(n={n}, d={d}): ANF degree d+1 everywhere; order-(d+1) derivative "
          f"base-independent over 50 bases")


def test_acceptance_6_companion_orders():
    for deg in range(3, 11):
        u = CompanionMatrix(poly(deg)).to_dense()
        assert matrix_order(u, 1 << deg) == (1 << deg) - 1
    ok(6, "companion orders equal 2^n - 1 for table degrees 3..10")


def test_acceptance_7_rdf_validity():
    for seed in range(100):
        code = rdf_search(43, 6, 3, rng_seed=seed)
        assert girth_ok_dense(code)
        h = h_dense(code)
        assert (h.sum(axis=0) == 3).all()
        assert (h.sum(axis=1) == 18).all()
        systematic_generator(code)  # raises if the last block is singular
    lg = count_rdf_lower_bound_log2(43, 3, 6)
    assert abs(lg - 61) <= 1.0
    ok(7, f"100 seeded searches valid; code-count bound log2 = {lg:.2f}")


def test_acceptance_8_keystream_periods():
    for l1 in range(2, 9):
        lf = ReseedingLfsr(l1, 1)
        start = joint_state(lf)
        target = ((1 << l1) - 1) ** 2
        steps = 0
        while True:
            lf.next_bits(1)
            steps += 1
            if joint_state(lf) == start:
                break
            assert steps <= target
        assert steps == target
    lf = ReseedingLfsr(9, 0x155)
    weights = [int(lf.next_bits(258).sum()) for _ in range(1000)]
    mean = float(np.mean(weights))
    assert abs(mean - 129.0) <= 129.0 * 0.08
    ok(8, f"joint periods (2^l1 - 1)^2 for l1 <= 8; mean weight {mean:.2f}")


def test_acceptance_9_message_expansion_interval():
    lo = hi = None
    for L in range(2, (1 << 20) + 1):
        v = message_expansion(258, 215, L)
        lo = v if lo is None or v < lo else lo
        hi = v if hi is None or v > hi else hi
        assert 1 <= v <= 5.6
    ok(9, f"expansion within [1, 5.6] for every L in 2..2^20 "
          f"(min {float(lo):.4f}, max {float(hi):.4f})")


def test_acceptance_10_attack_costs():
    bf = sum(bruteforce_terms_log2(PAPER_PARAMS).values())
    df = differential_cost_log2(PAPER_PARAMS)
    assert abs(bf - 176) <= 1.0
    assert abs(df - 129) <= 2.0
    ok(10, f"brute force 2^{bf:.2f} (target 176 +-1), "
           f"differential 2^{df:.2f} (target 129 +-2)")


def _wilson_frame_scaled(sym_err, frames, n, z=1.96):
    # symbol errors arrive in frame-sized bursts; score the per-frame mean
    return wilson_interval(sym_err / n, frames, z)


def test_acceptance_11a_ser_monotone(paper_key):
    spec = SweepSpec(0.0, 6.0, 0.5, 1000, 31)
    rows = run_sweep(paper_key, spec)
    n = paper_key.params.n
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            lo_j, _ = _wilson_frame_scaled(rows[j][1] * rows[j][3] * n, rows[j][3], n)
            _, hi_i = _wilson_frame_scaled(rows[i][1] * rows[i][3] * n, rows[i][3], n)
            assert lo_j <= hi_i + 1e-12, (rows[i], rows[j])
    # waterfall sits near 2 dB; two dB past it the scheme is essentially clean
    past = [r for r in rows if r[0] >= 4.0]
    assert all(r[2] <= 1e-2 for r in past), past
    assert all(r[1] <= 1e-3 for r in past), past
    ok(11, "a: SER non-increasing over 0..6 dB (Wilson-interval ordering); "
           "FER <= 1e-2 and SER <= 1e-3 beyond waterfall + 2 dB")


def test_acceptance_11b_lattice_comparison():
    cfg = DecoderConfig()
    ctx_a = LatticeCtx.from_code(rdf_search(43, 6, 3, rng_seed=5), 16)
    ctx_b = LatticeCtx.from_code(rdf_search(128, 2, 7, rng_seed=5), 16)
    spec = SweepSpec(2.0, 2.0, 1.0, 1000, 17)
    row_a = lattice_sweep(ctx_a, cfg, spec)[0]
    row_b = lattice_sweep(ctx_b, cfg, spec)[0]
    _, hi_a = _wilson_frame_scaled(row_a[1] * 1000 * ctx_a.n, 1000, ctx_a.n)
    lo_b, _ = _wilson_frame_scaled(row_b[1] * 1000 * ctx_b.n, 1000, ctx_b.n)
    assert hi_a < lo_b
    ok(11, f"b: at 2.0 dB the (215,258) lattice (SER {row_a[1]:.3e}) beats "
           f"the (128,256) lattice (SER {row_b[1]:.3e})")


def test_acceptance_11d_waterfalls_cross_258_1496(paper_key):
    # the longer code's waterfall is steeper: it fails more below the
    # crossing (between 1.5 and 2.0 dB) and less above it.  Trials per size
    # are set from a recorded seed-20 sweep; n = 258 decodes ~5x cheaper,
    # so it gets the larger sample at the upper point
    ctxs = [LatticeCtx.from_code(key.code, key.params.L)
            for key in (paper_key, keygen(CipherParams(187, 8, 5, 187, 16, 77), 1))]
    cfg = DecoderConfig()

    def fer_interval(ctx, vnr_db, trials):
        fer = lattice_sweep(ctx, cfg, SweepSpec(vnr_db, vnr_db, 1.0, trials, 20))[0][2]
        return wilson_interval(round(fer * trials), trials)

    (lo_258, hi_258), (lo_1496, hi_1496) = (fer_interval(c, 1.5, 100) for c in ctxs)
    assert hi_258 < lo_1496, (hi_258, lo_1496)
    (lo_258, _), (_, hi_1496) = fer_interval(ctxs[0], 2.25, 6000), fer_interval(ctxs[1], 2.25, 2500)
    assert hi_1496 < lo_258, (hi_1496, lo_258)
    ok(11, f"d: n = 1496 FER above n = 258 at 1.5 dB, below it at 2.25 dB "
           f"(Wilson upper {hi_1496:.4f} < lower {lo_258:.4f})")


def test_acceptance_11c_toy_spa_matches_ml():
    code = rdf_search(13, 2, 3, rng_seed=2)
    ctx = LatticeCtx.from_code(code, 4)
    gdense = np.hstack([np.eye(ctx.k, dtype=np.int64), ctx.a])
    all_xi = ((np.arange(1 << ctx.k)[:, None] >> np.arange(ctx.k)[None, :]) & 1)
    cpm = 2 * ((all_xi @ gdense) % 2) - 1

    def ml_decode(r):
        z = np.rint((r[None, :] - cpm) / 4.0)
        cand = cpm + 4 * z
        d2 = ((r[None, :] - cand) ** 2).sum(axis=1)
        return cand[np.argmin(d2)].astype(np.int64)

    cfg = DecoderConfig()
    rng = np.random.default_rng(23)
    sigma = ctx.vnr_sigma(3.5)
    agree = 0
    trials = 1000
    for _ in range(trials):
        lam = ctx.encode(rng.integers(0, 2, size=ctx.n))
        r = lam + rng.normal(0, sigma, ctx.n)
        ml = ml_decode(r)
        try:
            spa = decode(ctx, cfg, r, sigma)
        except DecodeFailure:
            continue
        agree += int(np.array_equal(spa, ml))
    assert agree / trials >= 0.99
    ok(11, f"c: SPA matches brute-force ML on {agree}/{trials} moderate-noise trials")
