import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gf2_reference import syndrome_ok_dense
from qclattice.errors import InvalidParams, NotLatticePoint, ShapingOverflow
from qclattice.lattice import LatticeCtx
from qclattice.rdfcode import rdf_search


def all_window_vectors(ctx):
    """Every integer vector in the recoverable box 2|x_i| < n*L_i."""
    axes = [np.arange(-(ctx.n * L) // 2 + 1, (ctx.n * L + 1) // 2) for L in ctx.L]
    grids = np.meshgrid(*axes, indexing="ij")
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
    h = ctx.code.h_matrix().astype(np.int64)
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
    sp = ctx.shape(x)
    assert not sp.z.any()
    assert np.array_equal(2 * sp.lambda_prime - 1, ctx.encode(x))


def test_shape_bounds_and_roundtrip_random(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(2)
    half = ctx.n * ctx.L // 2
    for _ in range(300):
        x = rng.integers(-half + 1, half, size=ctx.n)
        sp = ctx.shape(x)
        assert (np.abs(sp.lambda_prime) <= ctx.n * ctx.L - 1).all()
        # systematic part satisfies the tighter half-window bound
        assert (2 * np.abs(sp.lambda_prime[: ctx.k]) < ctx.n * ctx.L[: ctx.k]).all()
        lam_t = 2 * sp.lambda_prime - 1
        assert np.array_equal(ctx.mod_recover(lam_t), x)


def test_shape_overflow(paper_lattice):
    ctx = paper_lattice
    x = np.zeros(ctx.n, dtype=np.int64)
    x[0] = ctx.n * ctx.L[0] // 2  # positive boundary is not recoverable
    with pytest.raises(ShapingOverflow):
        ctx.shape(x)


def test_shape_idempotent_on_shaped_output(paper_lattice):
    ctx = paper_lattice
    rng = np.random.default_rng(3)
    half = ctx.n * ctx.L // 2
    for _ in range(50):
        x = rng.integers(-half + 1, half, size=ctx.n)
        sp = ctx.shape(x)
        again = ctx.shape(sp.x_prime)
        assert not again.z.any()
        assert np.array_equal(again.x_prime, sp.x_prime)


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
    lam = 2 * ctx.shape(x).lambda_prime - 1
    lam2 = lam.copy()
    lam2[10] += 2  # stays odd but leaves the lattice translate
    with pytest.raises(NotLatticePoint):
        ctx.mod_recover(lam2)


@pytest.mark.parametrize("bad", ["float", "even", "off_lattice"])
def test_mod_recover_rejects_non_translate_points(paper_lattice, bad):
    ctx = paper_lattice
    x = np.random.default_rng(6).integers(-100, 100, size=ctx.n)
    lam = 2 * ctx.shape(x).lambda_prime - 1
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
    mods = ctx.mod_full[ctx.k :]
    for x in box:
        sp = ctx.shape(x)
        assert (np.abs(sp.lambda_prime) <= ctx.n * ctx.L - 1).all()
        # oracle: per-coordinate exhaustive z minimizing |lambda'_i|
        s = x[: ctx.k] @ ctx.a
        for i in range(ctx.n - ctx.k):
            best = min(
                (abs(2 * (x[ctx.k + i] - z * mods[i]) + s[i]), z)
                for z in range(-6, 7)
            )
            got = abs(sp.lambda_prime[ctx.k + i])
            assert got == best[0]
        assert np.array_equal(ctx.mod_recover(2 * sp.lambda_prime - 1), x)


def test_shape_boundary_equality_case(toy_lattice):
    ctx = toy_lattice
    # engineer 2*x_par + s = n*L - 1 exactly: tie rounds half away from zero
    # and lands lambda' on the box wall
    nL1 = ctx.n * ctx.L[ctx.k] - 1  # 7
    a_col = ctx.a[:, 0]
    j = int(np.nonzero(a_col)[0][0])
    x = np.zeros(ctx.n, dtype=np.int64)
    x[j] = 1
    x[ctx.k] = (nL1 - 1) // 2  # 2*3 + 1 = 7
    sp = ctx.shape(x)
    assert abs(sp.lambda_prime[ctx.k]) == nL1
    assert np.array_equal(ctx.mod_recover(2 * sp.lambda_prime - 1), x)


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
        sp = ctx.shape(x)
        assert np.array_equal(ctx.mod_recover(2 * sp.lambda_prime - 1), x)
