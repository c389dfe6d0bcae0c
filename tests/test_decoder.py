import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import decoder_reference as ref
from gf2_reference import h_dense
from qclattice._kernels import _TANH_CAP, _TANH_FREE, add_order, spa_core, tree_sum
from qclattice.decoder import (
    NEAR_TRANSLATES_GAP,
    DecoderConfig,
    channel_llr,
    decode,
    tanner_arrays,
)
from qclattice.errors import DecodeFailure, InvalidParams
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import QcCode, rdf_search


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


@pytest.mark.parametrize("field, bad", [
    ("llr_clip", math.nan), ("llr_clip", math.inf), ("llr_clip", -math.inf),
    ("llr_clip", True), ("llr_clip", "30"),
    ("max_iterations", 2.5), ("max_iterations", 50.0), ("max_iterations", True),
    ("max_iterations", "50"), ("coset_window", 1.5), ("coset_window", True),
    ("coset_window", np.float64(4.0)),
])
def test_decoder_config_rejects_wrong_types(field, bad):
    # a NaN clip used to turn every LLR into NaN, and max_iterations=2.5 to
    # raise TypeError inside spa_core
    with pytest.raises(InvalidParams, match=field):
        DecoderConfig(**{field: bad})


def test_decoder_config_accepts_numpy_integers():
    cfg = DecoderConfig(max_iterations=np.int64(7), coset_window=np.int32(2),
                        llr_clip=np.float64(25.0))
    assert cfg.max_iterations == 7


def test_llr_zero_d_input_returns_float():
    # a 0-d array used to come back as a shape-(1,) array
    for r in (1.0, np.float64(1.0), np.array(1.0)):
        out = channel_llr(r, 0.5, 4)
        assert type(out) is float
        assert out == channel_llr(np.array([1.0]), 0.5, 4)[0]


@pytest.mark.parametrize("r", [
    np.zeros((2, 3)),  # ValueError from a broadcast
    np.zeros((1, 3)),  # flattened to 3 LLRs
    "abc",  # ValueError from the float cast
    np.array([True, False]),
    np.array([1.0 + 0j]),
    [[1.0], [2.0, 3.0]],  # ragged
], ids=["2d", "one_row", "str", "bool", "complex", "ragged"])
def test_llr_refuses_an_r_that_is_not_a_scalar_or_1d_numeric(r):
    with pytest.raises(InvalidParams, match="^r "):
        channel_llr(r, 0.5, 4)


def test_llr_takes_integer_and_float32_r():
    want = channel_llr(np.array([1.0, -3.0]), 0.5, 4)
    for r in ([1, -3], np.array([1, -3], dtype=np.int8), np.array([1, -3], dtype=np.float32)):
        assert channel_llr(r, 0.5, 4).tobytes() == want.tobytes()


def test_tanner_arrays_regular(small_ctx):
    code = small_ctx.code
    nbr, edge = tanner_arrays(code)
    assert nbr.shape == (code.dc, code.b) and edge.shape == (code.dv, code.n)
    for arr in (nbr, edge):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
    h = h_dense(code)
    for c in range(code.b):
        assert np.array_equal(nbr[:, c], np.nonzero(h[c])[0])
    for v in range(code.n):
        assert (nbr.flat[edge[:, v]] == v).all()


def test_tanner_arrays_are_read_only(small_ctx):
    # every decode of the code shares the cached arrays
    for arr in tanner_arrays(small_ctx.code):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


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
    nbr, edge = tanner_arrays(code)
    lam = small_ctx.encode(np.arange(small_ctx.n))
    chan = channel_llr(lam.astype(float), 0.5, 4)
    bits, ok, iters = spa_core(chan, nbr, edge, 10, 30.0)
    assert ok and iters == 0
    assert np.array_equal(bits, ((lam + 1) // 2) % 2)


# --- the rewritten kernels against the check-major oracles -----------------------------


def _dominates(t, k):
    # translate t lies >= 32 |inv| below kept translate k for every offset
    # u in [-2, 2] of r from the nearest representative: (u - 4t)^2 - (u - 4k)^2
    return min(8 * (t - k) * (2 * (t + k) - u) for u in (-2, 2)) >= 32


def test_far_translates_meet_a_dominating_partner():
    """The exactness rule behind NEAR_TRANSLATES_GAP, on numpy's order.

    Wherever the order of any window adds a sum of far translates
    (|t| >= 2) to a sum holding kept ones, some kept term there is at least
    16/sigma^2 above each far term.
    """
    def walk(tree, window):
        if not isinstance(tree, tuple):
            return [tree - window]
        a, b = walk(tree[0], window), walk(tree[1], window)
        for far, other in ((a, b), (b, a)):
            kept = [k for k in other if abs(k) <= 1]
            if kept and all(abs(t) >= 2 for t in far):
                assert any(all(_dominates(t, k) for t in far) for k in kept), (window, far)
        return a + b

    for window in [*range(1, 300), 500, 1000, 2048]:
        walk(add_order(2 * window + 1), window)


@pytest.mark.parametrize("terms", [*range(1, 40), 127, 128, 129, 130, 255, 300, 1001])
def test_add_order_matches_numpy_sum(terms):
    rng = np.random.default_rng(terms)
    # wide exponent spread, so a different association shows in the last bits
    a = rng.normal(size=(64, terms)) * np.exp2(rng.integers(-30, 30, size=(64, terms)))
    a = np.abs(a)
    assert np.array_equal(tree_sum(add_order(terms), a.T), a.sum(axis=1))


def test_add_order_prunes_to_kept_terms():
    assert add_order(3, 0, 3) == ((0, 1), 2)
    assert add_order(9, 3, 6) == (0, (1, 2))  # e_-1 + (e_0 + e_1)
    assert add_order(5, 1, 4) == ((0, 1), 2)
    assert add_order(7, 2, 5) == ((0, 1), 2)


_BOUND_SIGMA = math.sqrt(16.0 / NEAR_TRANSLATES_GAP)
_SIGMAS = st.one_of(
    st.floats(0.05, 2.0),
    st.floats(_BOUND_SIGMA * 0.97, _BOUND_SIGMA * 1.03),
    st.sampled_from([_BOUND_SIGMA, math.nextafter(_BOUND_SIGMA, 0.0),
                     math.nextafter(_BOUND_SIGMA, 1.0)]),
)
_HUGE = 2.0**52
_OBSERVATIONS = st.one_of(
    st.floats(-8.0, 8.0),
    st.floats(-_HUGE, _HUGE, exclude_min=True, exclude_max=True),
    st.integers(-(2**49), 2**49).map(lambda k: k / 2.0),  # halves: rint ties
    st.integers(-(2**50), 2**50).map(lambda k: float(2 * k + 1)),  # odd: (r -+ 1)/4 ties
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_OBSERVATIONS, min_size=1, max_size=24), _SIGMAS, st.integers(1, 6),
       st.sampled_from([30.0, 1e300]))
def test_llr_bit_identical_to_full_window(r, sigma, window, clip):
    r = np.array(r)
    new = channel_llr(r, sigma, window, clip)
    old = ref.channel_llr(r, sigma, window, clip)
    assert new.tobytes() == old.tobytes()


def _test_codes():
    return [
        rdf_search(13, 2, 3, rng_seed=2),  # dv 3, dc 6
        rdf_search(2, 2, 1, rng_seed=0),  # dv 1, dc 2
        rdf_search(43, 6, 3, rng_seed=5),  # dc 18, the reference shape
        # dv 9 takes numpy's pairwise branch for the variable sums; the SPA
        # does not need the graph to be free of 4-cycles
        QcCode(11, 2, 9, (tuple(range(9)), tuple(range(1, 10)))),
    ]


_CODES = _test_codes()
_REF_GRAPHS = [ref.tanner_arrays(code) for code in _CODES]


# spa_core keeps the tanh cap only for clip > 2 * _TANH_FREE = 36, and the
# clip after arctanh only for dc = 2; its bound at dc >= 3 peaks near 36.5
_TANH_FREE_CLIP = 2 * _TANH_FREE
_CLIPS = st.one_of(
    st.sampled_from([30.0, 2.5, 1e300, 36.0, 36.5, 37.5, _TANH_FREE_CLIP,
                     math.nextafter(_TANH_FREE_CLIP, math.inf),
                     2 * math.atanh(_TANH_CAP), 1e-300]),
    st.floats(0.01, 80.0),
)


def test_elided_clips_cannot_bind():
    """The bounds behind spa_core's two skipped clips, on numpy's tanh and arctanh."""
    x = np.linspace(0.0, _TANH_FREE, 1_000_001)
    assert np.abs(np.tanh(x)).max() < _TANH_CAP
    clip = np.concatenate([np.geomspace(1e-300, 1e300, 100_001),
                           np.linspace(30.0, 45.0, 100_001)])
    t = np.minimum(np.tanh(clip / 2.0), _TANH_CAP)
    # two or more factors of magnitude <= t: the dc >= 3 extrinsic messages
    assert (2.0 * np.arctanh(t * t) <= 0.988 * clip).all()


@settings(deadline=None, max_examples=300)
@given(st.data(), st.sampled_from(range(len(_CODES))), st.integers(1, 5), _CLIPS)
def test_spa_matches_check_major_oracle(data, which, max_iter, clip):
    code = _CODES[which]
    value = st.one_of(st.floats(-2 * clip, 2 * clip, allow_subnormal=False),
                      st.sampled_from([clip, -clip, 0.0, -0.0]))
    chan = data.draw(arrays(np.float64, code.n, elements=value))
    bits, ok, iters = spa_core(chan, *tanner_arrays(code), max_iter, clip)
    bits_ref, ok_ref, iters_ref = ref.spa_core(chan, *_REF_GRAPHS[which], max_iter, clip)
    assert (ok, iters) == (ok_ref, iters_ref)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, bits_ref)


def test_decode_matches_oracles_over_the_waterfall(paper_lattice):
    """LLRs and SPA results equal the oracles' on 0..6 dB, noisy frames."""
    ctx = paper_lattice
    graph = ref.tanner_arrays(ctx.code)
    slots = tanner_arrays(ctx.code)
    rng = np.random.default_rng(41)
    for vnr_db in np.arange(0.0, 6.5, 0.5):
        sigma = ctx.vnr_sigma(vnr_db)
        for _ in range(8):
            lam = ctx.encode(rng.integers(0, 2, size=ctx.n))
            r = lam + rng.normal(0, sigma, ctx.n)
            chan = channel_llr(r, sigma, 4)
            assert chan.tobytes() == ref.channel_llr(r, sigma, 4).tobytes()
            got = spa_core(chan, *slots, 50, 30.0)
            want = ref.spa_core(chan, *graph, 50, 30.0)
            assert got[1:] == want[1:]
            assert np.array_equal(got[0], want[0])
