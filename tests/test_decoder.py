import math

import numpy as np
import pytest

from qclattice._kernels import spa_core
from qclattice.decoder import DecoderConfig, channel_llr, decode, tanner_arrays
from qclattice.errors import DecodeFailure, InvalidParams
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import rdf_search


@pytest.fixture(scope="module")
def small_ctx():
    return LatticeCtx.from_code(rdf_search(13, 2, 3, rng_seed=2), 4)


def llr_direct(r, sigma, window):
    """Straight summation oracle with the same centered translate sets."""
    z1 = round((r - 1) / 4)
    z0 = round((r + 1) / 4)
    num = sum(
        math.exp(-((r - (1 + 4 * (z1 + t))) ** 2) / (2 * sigma * sigma))
        for t in range(-window, window + 1)
    )
    den = sum(
        math.exp(-((r - (-1 + 4 * (z0 + t))) ** 2) / (2 * sigma * sigma))
        for t in range(-window, window + 1)
    )
    return math.log(num / den)


def test_llr_sign_and_zero():
    assert channel_llr(1.0, 0.7, 4) > 0
    assert channel_llr(-1.0, 0.7, 4) < 0
    assert channel_llr(0.0, 0.7, 4) == pytest.approx(0.0, abs=1e-12)


def test_llr_matches_direct_summation():
    for r, sigma, window in [(2.0, 0.5, 4), (-3.7, 0.9, 3), (17.2, 0.4, 5), (0.6, 1.3, 2)]:
        assert channel_llr(r, sigma, window, clip=1e9) == pytest.approx(
            llr_direct(r, sigma, window), rel=1e-12
        )


def test_llr_odd_symmetry():
    rng = np.random.default_rng(0)
    r = rng.normal(0, 5, size=200)
    plus = channel_llr(r, 0.6, 4)
    minus = channel_llr(-r, 0.6, 4)
    assert np.allclose(plus, -minus, atol=1e-12)


def test_llr_clip():
    assert channel_llr(1.0, 0.05, 4, clip=30.0) == pytest.approx(30.0)


def test_llr_requires_positive_sigma():
    with pytest.raises(InvalidParams):
        channel_llr(1.0, 0.0, 4)


# 1e-200 squares to 0; 1e-160 squares to a subnormal whose 1/(2 sigma^2) is inf
UNUSABLE_SIGMAS = [1e-200, 1e-160, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("sigma", UNUSABLE_SIGMAS)
def test_llr_and_decode_reject_unusable_sigma(small_ctx, sigma):
    with pytest.raises(InvalidParams):
        channel_llr(np.array([1.0, -1.0, 3.0]), sigma, 4)
    with pytest.raises(InvalidParams):
        decode(small_ctx, DecoderConfig(), np.ones(small_ctx.n), sigma)


def test_llr_accepts_tiny_usable_sigma():
    # 1e-150 squares to 1e-300, whose reciprocal is still finite
    assert np.array_equal(channel_llr(np.array([1.0, -1.0]), 1e-150, 4), [30.0, -30.0])


def test_decoder_config_validation():
    with pytest.raises(InvalidParams):
        DecoderConfig(max_iterations=0)
    with pytest.raises(InvalidParams):
        DecoderConfig(coset_window=0)


def test_tanner_arrays_regular(small_ctx):
    code = small_ctx.code
    check_nbr, ve_check, ve_slot = tanner_arrays(code)
    assert check_nbr.shape == (code.b, code.dc)
    assert ve_check.shape == (code.n, code.dv)
    h = code.h_matrix()
    for c in range(code.b):
        assert sorted(check_nbr[c]) == list(np.nonzero(h[c])[0])


def test_decode_noiseless_exact(small_ctx, paper_lattice):
    cfg = DecoderConfig()
    rng = np.random.default_rng(1)
    for ctx in (small_ctx, paper_lattice):
        for sigma_arg in (0.1, 0.5):
            xi = rng.integers(-3, 4, size=ctx.n)
            lam = ctx.encode(xi)
            assert np.array_equal(decode(ctx, cfg, lam.astype(float), sigma_arg), lam)


def test_decode_high_vnr_low_ser(paper_lattice):
    ctx = paper_lattice
    cfg = DecoderConfig()
    sigma = ctx.vnr_sigma(4.5)  # comfortably past the waterfall
    rng = np.random.default_rng(2)
    sym_err = 0
    trials = 300
    for _ in range(trials):
        lam = ctx.encode(rng.integers(0, 2, size=ctx.n))
        r = lam + rng.normal(0, sigma, ctx.n)
        try:
            sym_err += int((decode(ctx, cfg, r, sigma) != lam).sum())
        except DecodeFailure:
            sym_err += ctx.n
    assert sym_err / (trials * ctx.n) <= 1e-3


def test_decode_failure_at_extreme_noise(small_ctx):
    cfg = DecoderConfig(max_iterations=5)
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(20):
        lam = small_ctx.encode(rng.integers(0, 2, size=small_ctx.n))
        r = lam + rng.normal(0, 4.0, small_ctx.n)
        try:
            decode(small_ctx, cfg, r, 4.0)
        except DecodeFailure as e:
            failures += 1
            assert e.iterations == 5
    assert failures > 0


def test_decode_outputs_satisfy_syndrome(small_ctx):
    cfg = DecoderConfig()
    rng = np.random.default_rng(4)
    sigma = small_ctx.vnr_sigma(2.0)
    checked = 0
    for _ in range(100):
        lam = small_ctx.encode(rng.integers(0, 2, size=small_ctx.n))
        r = lam + rng.normal(0, sigma, small_ctx.n)
        try:
            out = decode(small_ctx, cfg, r, sigma)
        except DecodeFailure:
            continue
        assert (out % 2 != 0).all()
        assert small_ctx.syndrome_ok(out)
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -(2.0**52)])
def test_decode_rejects_unusable_observation(small_ctx, bad):
    # NaN LLRs used to pass SPA as "converged", with cast warnings on the way
    r = small_ctx.encode(np.zeros(small_ctx.n, dtype=np.int64)).astype(np.float64)
    r[3] = bad
    with pytest.raises(DecodeFailure, match="not finite") as e:
        decode(small_ctx, DecoderConfig(), r, 0.5)
    assert e.value.iterations == 0


def test_decode_deterministic(small_ctx):
    cfg = DecoderConfig()
    rng = np.random.default_rng(5)
    sigma = 0.45
    lam = small_ctx.encode(rng.integers(0, 2, size=small_ctx.n))
    r = lam + rng.normal(0, sigma, small_ctx.n)
    a = decode(small_ctx, cfg, r, sigma)
    b = decode(small_ctx, cfg, r, sigma)
    assert np.array_equal(a, b)


def test_numpy_core_decodes_noiseless(small_ctx):
    code = small_ctx.code
    check_nbr, ve_check, ve_slot = tanner_arrays(code)
    lam = small_ctx.encode(np.arange(small_ctx.n))
    chan = channel_llr(lam.astype(float), 0.5, 4)
    bits, ok, iters = spa_core(chan, check_nbr, ve_check, ve_slot, 10, 30.0)
    assert ok and iters == 0
    assert np.array_equal(bits, ((lam + 1) // 2) % 2)
