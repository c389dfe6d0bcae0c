import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PAPER_PARAMS
from gf2_reference import h_dense, syndrome_ok_dense
from qclattice import CipherParams, keygen
from qclattice.bitmat import float_exact
from qclattice.errors import InvalidParams, NotLatticePoint, ShapingOverflow
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import rdf_search


def all_window_vectors(ctx):
    """Every integer vector in the recoverable box 2|x_i| < n*L."""
    axis = np.arange(-(ctx.n * ctx.L) // 2 + 1, (ctx.n * ctx.L + 1) // 2)
    grids = np.meshgrid(*[axis] * ctx.n, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_encode_zero_is_all_minus_one(paper_lattice):
    out = paper_lattice.encode(np.zeros(paper_lattice.n, dtype=np.int64))
    assert (out == -1).all()


def test_encode_unit_vector(paper_lattice):
    ctx = paper_lattice
    e1 = np.zeros(ctx.n, dtype=np.int64)
    e1[0] = 1
    g_row0 = np.concatenate(
        [np.eye(ctx.k, dtype=np.int64)[0], ctx.a[0]]
    )
    assert np.array_equal(ctx.encode(e1), 2 * g_row0 - 1)


def test_encode_syndrome_oracle(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(0)
    h = h_dense(ctx.code).astype(np.int64)
    for _ in range(20):
        xi = rng.integers(-50, 50, size=ctx.n)
        lam = ctx.encode(xi)
        assert (lam % 2 != 0).all()
        word = ((lam + 1) // 2) % 2
        assert not ((h @ word) % 2).any()


def test_encode_closure_under_lattice_addition(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = ctx.encode(rng.integers(-9, 9, size=ctx.n))
        b = ctx.encode(rng.integers(-9, 9, size=ctx.n))
        assert ctx.syndrome_ok(a + b + 1)


def test_shape_in_box_identity(paper_lattice):
    ctx = paper_lattice
    # small x keeps x G inside the box already
    x = np.zeros(ctx.n, dtype=np.int64)
    x[:5] = [1, -2, 3, 0, 1]
    lam = ctx.shape(x)
    assert np.array_equal(ctx.encode_inverse(lam), x)  # z = 0: x' = x
    assert np.array_equal(lam, ctx.encode(x))


def test_shape_bounds_and_roundtrip_random(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(2)
    half = ctx.n * ctx.L // 2
    for _ in range(300):
        x = rng.integers(-half + 1, half, size=ctx.n)
        lam_t = ctx.shape(x)
        lambda_prime = (lam_t + 1) // 2
        assert (np.abs(lambda_prime) <= ctx.n * ctx.L - 1).all()
        # systematic part satisfies the tighter half-window bound
        assert (2 * np.abs(lambda_prime[: ctx.k]) < ctx.n * ctx.L).all()
        assert np.array_equal(ctx.mod_recover(lam_t), x)


def test_shape_overflow(paper_lattice):
    ctx = paper_lattice
    x = np.zeros(ctx.n, dtype=np.int64)
    x[0] = ctx.n * ctx.L // 2  # positive boundary is not recoverable
    with pytest.raises(ShapingOverflow):
        ctx.shape(x)


@pytest.mark.parametrize("x0, inside", [
    (2063, True), (-2063, True),  # the last in-window values: 2|x_0| < n*L = 4128
    (2**61, False),
    # 2|x_0| wrapped in int64, so these passed the window check
    (2**62, False), (-(2**62), False), (2**63 - 1, False), (-(2**63), False),
])
def test_shape_window_check_has_no_int64_wrap(paper_lattice, x0, inside):
    ctx = paper_lattice
    assert ctx.n * ctx.L == 4128
    x = np.zeros(ctx.n, dtype=np.int64)
    x[0] = x0
    if inside:
        assert np.array_equal(ctx.mod_recover(ctx.shape(x)), x)
    else:
        with pytest.raises(ShapingOverflow):
            ctx.shape(x)


def test_shape_idempotent_on_shaped_output(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(3)
    half = ctx.n * ctx.L // 2
    for _ in range(50):
        x = rng.integers(-half + 1, half, size=ctx.n)
        lam = ctx.shape(x)
        x_prime = ctx.encode_inverse(lam)
        again = ctx.shape(x_prime)
        assert np.array_equal(ctx.encode_inverse(again), x_prime)  # z = 0
        assert np.array_equal(again, lam)


def test_mod_recover_zero(paper_lattice):
    ctx = paper_lattice
    lam = ctx.encode(np.zeros(ctx.n, dtype=np.int64))
    assert not ctx.mod_recover(lam).any()


def test_mod_recover_rejects_non_integer_input(paper_lattice):
    ctx = paper_lattice
    lam = ctx.encode(np.zeros(ctx.n, dtype=np.int64)).astype(float)
    lam[0] += 0.3
    with pytest.raises(NotLatticePoint):
        ctx.mod_recover(lam)


def test_mod_recover_sensitivity_to_perturbation(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(4)
    x = rng.integers(-100, 100, size=ctx.n)
    lam = ctx.shape(x)
    lam2 = lam.copy()
    lam2[10] += 2  # stays odd but leaves the lattice translate
    with pytest.raises(NotLatticePoint):
        ctx.mod_recover(lam2)


@pytest.mark.parametrize("bad", ["float", "even", "off_lattice"])
def test_mod_recover_rejects_non_translate_points(paper_lattice, bad):
    ctx = paper_lattice
    x = np.random.default_rng(6).integers(-100, 100, size=ctx.n)
    lam = ctx.shape(x)
    assert np.array_equal(ctx.mod_recover(lam), x)
    if bad == "float":
        lam = lam.astype(np.float64)  # integer-valued, but not an integer dtype
    elif bad == "even":
        lam[ctx.k] += 1
    else:
        lam[ctx.k] += 2  # odd, but u_par - u_sys*A turns odd at that coordinate
    with pytest.raises(NotLatticePoint):
        ctx.mod_recover(lam)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.data())
def test_encode_inverse_and_syndrome_ok_match_oracles(paper_lattice, toy_lattice, data):
    """encode_inverse undoes encode; syndrome_ok agrees with the dense-H oracle.

    The oracle is checked on the encoded point, on it moved by +-2 e_i (off
    the lattice) and +-4 e_i (on it), and on a random all-odd vector.
    """
    ctx = data.draw(st.sampled_from([paper_lattice, toy_lattice]))
    x = data.draw(arrays(np.int64, ctx.n, elements=st.integers(-(2**20), 2**20)))
    lam = ctx.encode(x)
    assert np.array_equal(ctx.encode_inverse(lam), x)
    assert ctx.syndrome_ok(lam) and syndrome_ok_dense(ctx.code, lam)
    i = data.draw(st.integers(0, ctx.n - 1))
    for step in (2, -2, 4, -4):
        moved = lam.copy()
        moved[i] += step
        assert ctx.syndrome_ok(moved) == syndrome_ok_dense(ctx.code, moved) == (step % 4 == 0)
    odd = 2 * data.draw(arrays(np.int64, ctx.n, elements=st.integers(-50, 50))) + 1
    assert ctx.syndrome_ok(odd) == syndrome_ok_dense(ctx.code, odd)


def test_toy_exhaustive_box_roundtrip_and_oracle(toy_lattice):
    ctx = toy_lattice
    box = all_window_vectors(ctx)
    for x in box:
        lam = ctx.shape(x)
        lambda_prime = (lam + 1) // 2
        assert (np.abs(lambda_prime) <= ctx.n * ctx.L - 1).all()
        # oracle: per-coordinate exhaustive z minimizing |lambda'_i|
        s = x[: ctx.k] @ ctx.a
        for i in range(ctx.n - ctx.k):
            best = min(
                (abs(2 * (x[ctx.k + i] - z * ctx.mod_full) + s[i]), z)
                for z in range(-6, 7)
            )
            got = abs(lambda_prime[ctx.k + i])
            assert got == best[0]
        assert np.array_equal(ctx.mod_recover(lam), x)


def test_shape_boundary_equality_case(toy_lattice):
    ctx = toy_lattice
    # engineer 2*x_par + s = n*L - 1 exactly: tie rounds half away from zero
    # and lands lambda' on the box wall
    nL1 = ctx.n * ctx.L - 1  # 7
    a_col = ctx.a[:, 0]
    j = int(np.nonzero(a_col)[0][0])
    x = np.zeros(ctx.n, dtype=np.int64)
    x[j] = 1
    x[ctx.k] = (nL1 - 1) // 2  # 2*3 + 1 = 7
    lam = ctx.shape(x)
    assert abs((lam[ctx.k] + 1) // 2) == nL1
    assert np.array_equal(ctx.mod_recover(lam), x)


def test_vnr_sigma_unit_point(paper_lattice):
    ctx = paper_lattice
    # linear VNR = 4^((2n-k)/n) / (2 pi e)  <=>  sigma = 1
    vnr_lin = 4 ** ((2 * ctx.n - ctx.k) / ctx.n) / (2 * math.pi * math.e)
    assert ctx.vnr_sigma(10 * math.log10(vnr_lin)) == pytest.approx(1.0, rel=1e-12)


def test_vnr_sigma_closed_form(paper_lattice):
    ctx = paper_lattice
    want = math.sqrt(4 ** ((2 * 258 - 215) / 258) / (2 * math.pi * math.e))
    assert ctx.vnr_sigma(0.0) == pytest.approx(want, rel=1e-12)


def test_vnr_sigma_monotone(paper_lattice):
    ctx = paper_lattice
    sig = [ctx.vnr_sigma(db) for db in (0.0, 3.0, 6.0)]
    assert sig[0] > sig[1] > sig[2] > 0


@pytest.mark.parametrize("vnr_db", [3100.0, 3080.0, -3100.0, -4000.0,
                                    math.nan, math.inf, -math.inf])
def test_vnr_sigma_rejects_unusable_points(paper_lattice, vnr_db):
    # 3100 dB overflowed 10**(vnr/10); -3100 dB gave sigma = inf
    with pytest.raises(InvalidParams):
        paper_lattice.vnr_sigma(vnr_db)


def test_lattice_ctx_from_other_code():
    code = rdf_search(13, 2, 3, rng_seed=1)
    ctx = LatticeCtx.from_code(code, 4)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.integers(-(ctx.n * 4) // 2 + 1, (ctx.n * 4) // 2, size=ctx.n)
        assert np.array_equal(ctx.mod_recover(ctx.shape(x)), x)


# --- sys*A on both sides of bitmat's float64 guard ------------------------------

# (params, seed) of the toy, reference and largest keys: n = 26, 258 and 1496
GUARD_KEYS = {
    26: (CipherParams(b=13, n0=2, dv=3, q=13, L=4, d=8), 42),
    258: (PAPER_PARAMS, 1),
    1496: (CipherParams(b=187, n0=8, dv=5, q=187, L=16, d=77), 1),
}


@functools.lru_cache(maxsize=None)
def key_lattice(n):
    params, seed = GUARD_KEYS[n]
    return LatticeCtx.from_code(keygen(params, seed).code, params.L)


def int64_maps(ctx):
    """The lattice maps with sys*A as numpy's int64 matmul, which wraps mod 2^64."""
    k, a, M = ctx.k, ctx.a, ctx.mod_full

    def encode(x):
        return 2 * np.concatenate([x[..., :k], x[..., :k] @ a + 2 * x[..., k:]], axis=-1) - 1

    def residue(lam):
        u = (lam + 1) >> 1
        return u[..., :k], u[..., k:] - u[..., :k] @ a, (lam & 1).all(axis=-1)

    def encode_inverse(lam):
        sys, t, odd = residue(lam)
        if not odd.all() or (t & 1).any():
            raise NotLatticePoint
        return np.concatenate([sys, t >> 1], axis=-1)

    def syndrome_ok(lam):
        _, t, odd = residue(lam)
        return odd & ~(t & 1).any(axis=-1)

    def shape(x):
        sys = x[..., :k]
        if sys.max() > ctx.half or sys.min() < -ctx.half:
            raise ShapingOverflow
        num = 2 * x[..., k:] + sys @ a
        q, r = np.divmod(num + M, 2 * M)
        return 2 * np.concatenate([sys, num - (q - (q & (r == 0))) * (2 * M)], axis=-1) - 1

    def mod_recover(lam):
        r = np.mod(encode_inverse(lam), M)
        r[2 * r >= ctx.n * ctx.L] -= M
        return r

    return {"encode": encode, "shape": shape, "encode_inverse": encode_inverse,
            "mod_recover": mod_recover, "syndrome_ok": syndrome_ok}


def _outcome(fn, v):
    try:
        return np.asarray(fn(v)).tolist()
    except (NotLatticePoint, ShapingOverflow) as exc:
        return type(exc).__name__


@st.composite
def guard_rows(draw):
    """(n, rows): one to three int64 rows for the key of length n, each drawn with
    its largest |entry| at the float64 limit (2^53 - 1) // k, one off it, at 2^51,
    at a shaping or an ordinary size, or holding -2^63."""
    # choices from a seeded generator: hypothesis would favour some entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = list(GUARD_KEYS)[rng.integers(len(GUARD_KEYS))]
    ctx = key_lattice(n)
    lim = (2**53 - 1) // ctx.k
    rows = []
    for _ in range(rng.integers(1, 4)):
        amp = (lim, lim - 1, lim + 1, 2**51, ctx.half, 17)[rng.integers(6)]
        row = rng.integers(-amp, amp, size=n, endpoint=True)
        if rng.integers(2):  # every entry at +-amp: the largest column sums amp allows
            row = np.where(row < 0, -amp, amp)
        row[rng.integers(ctx.k)] = (amp, -amp)[rng.integers(2)]
        if rng.integers(6) == 0:
            row[rng.integers(ctx.k)] = -(2**63)
        rows.append(row)
    return n, np.array(rows, dtype=np.int64)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(guard_rows(), st.data())
def test_product_matches_int64_on_both_sides_of_the_float_guard(case, data):
    """Every map that forms sys*A returns what the int64 product gives, or raises
    the same error, for a vector and for a block, whichever form the guard picks."""
    n, rows = case
    ctx, ref = key_lattice(n), int64_maps(key_lattice(n))
    for row in rows:
        amp = max(abs(int(v)) for v in row[: ctx.k])
        assert float_exact(row[: ctx.k], ctx.k, np.float64) == (amp * ctx.k < 2**53)
    points = ref["encode"](rows)
    kind = data.draw(st.sampled_from(["point", "nudged", "even", "odd"]))
    if kind == "nudged":  # off the lattice, still odd
        points[0, data.draw(st.integers(0, n - 1))] += 2
    elif kind == "even":
        points[-1, data.draw(st.integers(0, n - 1))] -= 1
    elif kind == "odd":
        points = 2 * rows + 1
    single = data.draw(st.booleans())  # the first row as a (n,) vector
    for name, arg in (("encode", rows), ("shape", rows), ("encode_inverse", points),
                      ("mod_recover", points), ("syndrome_ok", points)):
        arg = arg[0] if single else arg
        assert _outcome(getattr(ctx, name), arg) == _outcome(ref[name], arg), name
