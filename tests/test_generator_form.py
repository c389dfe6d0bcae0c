"""Generator-form U^alpha and windowed x^(+-alpha) against bit-serial oracles.

power_poly_matrix returns the multiplication matrix as one bit sequence per
tap block of g; gf2_reference.power_poly_rows builds the same matrix one row
at a time.  Its products run in float32 below max|a| * n = 2^24 and in int64
above; both must equal the dense int64 product, which wraps mod 2^64 like
the int64 correlate.  NlfContext builds x^alpha with Frobenius window tables
and x^-alpha as x^-(2^d) x^(2^d - alpha); gf2_reference.powmod squares and
multiplies bit by bit.  NlfContext.invert_f must agree with the int64 peel
gf2_reference.invert_peel, preimage or NotInLattice, at n = 6, 16, 258 and
1496: preimages at +-2^52 are returned, those at +-(2^52 + 1) and inputs
past +-n 2^52 are refused.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_reference as ref
from qclattice import gf2poly
from qclattice.bitmat import PolyMulMatrix, power_poly_matrix
from qclattice.errors import NotInLattice
from qclattice.nlf import NlfContext
from qclattice.primitives import poly

TRINOMIAL = poly(258)  # x^258 + x^83 + 1: two blocks
PENTANOMIAL = poly(1496)  # four blocks


@st.composite
def dense_modulus(draw, max_degree):
    """A random g with g(0) = 1: up to deg g blocks of width 1 and more."""
    n = draw(st.integers(1, max_degree))
    middle = draw(st.integers(0, (1 << max(n - 1, 0)) - 1))
    return (1 << n) | (middle << 1) | 1


moduli = st.one_of(
    st.sampled_from([TRINOMIAL, PENTANOMIAL, (1 << 259) - 1]),
    st.integers(2, 80).map(poly),
    dense_modulus(300),
)


@st.composite
def multiplier(draw, g):
    n = gf2poly.degree(g)
    return draw(st.one_of(
        st.just(0),
        st.just(1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << (2 * n)) - 1),  # reduced mod g on the way in
    ))


def oracle_dense(g: int, c: int) -> np.ndarray:
    return ref.rows_to_dense(ref.power_poly_rows(g, c), gf2poly.degree(g))


@settings(deadline=None, max_examples=80)
@given(moduli, st.data(), st.integers(0, 2**32 - 1), st.sampled_from([1, 16, 2**52]))
def test_generator_form_matches_row_oracle(g, data, seed, bound):
    c = data.draw(multiplier(g))
    m = power_poly_matrix(g, c)
    want = oracle_dense(g, c)
    assert isinstance(m, PolyMulMatrix)
    assert (m.rows, m.cols) == want.shape
    assert np.array_equal(ref.matrix_of(m.vecmul, m.rows), want)
    a = np.random.default_rng(seed).integers(-bound, bound, size=m.rows, endpoint=True)
    assert np.array_equal(m.vecmul(a), a @ want.astype(np.int64))


def test_block_count_follows_taps():
    assert len(power_poly_matrix(TRINOMIAL, 1).gens) == 2
    assert len(power_poly_matrix(PENTANOMIAL, 1).gens) == 4


def test_power_matrix_holds_no_square_array():
    # U^alpha as apply_f builds it, for a random 61-bit alpha
    alpha = int(np.random.default_rng(0).integers(0, 2**61))
    m = power_poly_matrix(TRINOMIAL, gf2poly.xpowmod(alpha, TRINOMIAL))
    buffers = {}
    for name in type(m).__slots__:
        value = getattr(m, name)
        for arr in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(arr, np.ndarray):
                base = arr if arr.base is None else arr.base
                buffers[id(base)] = base.nbytes
    assert 0 < sum(buffers.values()) < 16 * 1024


@st.composite
def context_and_alpha(draw):
    """(g, d, alpha) with alpha = 0, 1, 2^d - 1 or random below 2^d."""
    g = draw(st.one_of(
        st.sampled_from([TRINOMIAL, PENTANOMIAL]),
        st.integers(2, 80).map(poly),
        dense_modulus(40),
    ))
    d = draw(st.integers(0, 80))
    top = (1 << d) - 1
    alpha = draw(st.one_of(
        st.just(0), st.just(min(1, top)), st.just(top), st.integers(0, top),
    ))
    return g, d, alpha


@settings(deadline=None, max_examples=120)
@given(context_and_alpha())
def test_windowed_x_power_matches_oracle(case):
    g, d, alpha = case
    ctx = NlfContext(g, d)
    h = np.array([(alpha >> i) & 1 for i in range(d)], dtype=np.uint8)
    c = gf2poly.xpowmod(ctx._alpha(h), g)
    cinv = gf2poly.xinvpowmod(ctx._alpha(h), g)
    assert c == ref.powmod(2, alpha, g)
    assert cinv == ref.powmod(g >> 1, alpha, g)
    assert ref.mod(ref.mul(c, cinv), g) == 1


# max|a| * n just below, at and just above 2^24, where vecmul leaves float32,
# and just below 2^25, where a guard one bit too loose would still use it;
# the 2^53 targets, where float64 would stop being exact, now run in int64
GUARD_TARGETS = (
    2**24 - 1, 2**24, 2**24 + 1, 2**25 - 1,
    2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1,
)
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None)


@st.composite
def near_guard_vector(draw, n):
    """An int64 vector whose max|a| * n sits at one side of a guard target.

    All entries at +-max|a| make the column sums as large as the bound
    allows; -2^63 entries wrap, and np.abs(-2**63) is still negative.
    """
    # choices from a seeded generator: hypothesis would favour some entries,
    # and an all-equal vector of odd amplitude at each target is what shows a
    # guard one bit too loose
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = GUARD_TARGETS[rng.integers(len(GUARD_TARGETS))]
    amp = (target // n, -(-target // n))[rng.integers(2)]
    shape = ("mixed", "all_max", "all_min", "min_int64")[rng.integers(4)]
    if shape == "all_max":
        return np.full(n, amp, dtype=np.int64)
    if shape == "all_min":
        return np.full(n, -amp, dtype=np.int64)
    a = rng.integers(-amp, amp, size=n, endpoint=True)
    a[rng.integers(n)] = amp
    if shape == "min_int64":
        a[rng.choice(n, size=rng.integers(1, 4), replace=False)] = -(2**63)
    return a


@settings(DERANDOMIZED, max_examples=160)
@given(st.sampled_from([TRINOMIAL, PENTANOMIAL]), st.data())
def test_vecmul_matches_int64_oracle_at_the_float_guard(g, data):
    n = gf2poly.degree(g)
    # a uniform c: about half of its columns then hold more than n/2 ones
    c = random.Random(data.draw(st.integers(0, 2**32 - 1))).getrandbits(n)
    a = data.draw(near_guard_vector(n))
    want = a @ oracle_dense(g, c).astype(np.int64)
    assert np.array_equal(power_poly_matrix(g, c).vecmul(a), want)


NLF_CASES = [(TRINOMIAL, 61), (poly(6), 3), (poly(16), 4)]
PREIMAGE_BOUND = 2**52  # largest |v_i| invert_f returns


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except NotInLattice:
        return "NotInLattice"


@st.composite
def nlf_input(draw, cases=NLF_CASES):
    """(g, d, h, x, want): x = a U^alpha for a drawn preimage a, or x off the
    lattice; want is a's list, "NotInLattice", or None where either may come."""
    # choices from a seeded generator: hypothesis would favour the first entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, d = cases[rng.integers(len(cases))]
    n = gf2poly.degree(g)
    h = rng.integers(0, 2, size=d)
    alpha = sum(int(b) << i for i, b in enumerate(h))
    dense = oracle_dense(g, ref.powmod(2, alpha, g)).astype(np.int64)
    kind = rng.choice(["small", "raw", "guard", "guard", "nudged", "random", "min_int64",
                       "edge", "edge", "bound"])
    if kind == "raw":  # raw-mode preimages m + 1 - e with |m| <= 10^6
        a = rng.integers(-10**6, 10**6 + 1, size=n, endpoint=True)
    elif kind == "guard":  # preimages whose product nears a guard target or crosses it
        top = GUARD_TARGETS[rng.integers(len(GUARD_TARGETS))] // n
        a = rng.integers(top - top // 64, top, size=n, endpoint=True)
    else:
        a = rng.integers(-17, 17, size=n, endpoint=True)
    if kind == "edge":  # entries at the largest |v| returned, and one past it
        edges = [PREIMAGE_BOUND, -PREIMAGE_BOUND, PREIMAGE_BOUND + 1, -PREIMAGE_BOUND - 1]
        a[rng.choice(n, size=rng.integers(1, 4), replace=False)] = edges[rng.integers(4)]
    x = a @ dense
    if kind == "nudged":  # a unit step off a lattice point
        x[rng.integers(n)] += 1
    elif kind == "random":
        x = rng.integers(-(2**62), 2**62, size=n)
    elif kind == "min_int64":
        x[rng.integers(n)] = -(2**63)
    elif kind == "bound":  # just past n 2^52, where no preimage with |v| <= 2^52 maps
        x[rng.integers(n)] = rng.choice([-1, 1]) * (n * PREIMAGE_BOUND + 1)
    if kind in ("small", "raw", "guard", "edge"):
        return g, d, h, x, (a.tolist() if np.abs(a).max() <= PREIMAGE_BOUND else "NotInLattice")
    return g, d, h, x, ("NotInLattice" if kind == "bound" else None)


def _check_invert_f(case):
    g, d, h, x, want = case
    got = _outcome(ref.invert_peel, g, x, h)
    if want is not None:
        assert got == want
    assert _outcome(NlfContext(g, d).invert_f, x, h) == got


@settings(DERANDOMIZED, max_examples=100)
@given(nlf_input())
def test_invert_f_matches_int64_peel(case):
    _check_invert_f(case)


@settings(DERANDOMIZED, max_examples=6)
@given(nlf_input(cases=[(PENTANOMIAL, 77)]))
def test_invert_f_matches_int64_peel_at_1496(case):
    _check_invert_f(case)
