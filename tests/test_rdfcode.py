import itertools
from fractions import Fraction

import numpy as np
import pytest

from gf2_reference import code_rate, girth_ok_dense, spec_tuple
from qclattice.errors import SearchExhausted, SingularBlock
from qclattice.rdfcode import (
    QcCode,
    count_rdf_lower_bound,
    count_rdf_lower_bound_log2,
    girth_ok,
    rdf_search,
    systematic_generator,
)


def test_search_paper_small_params():
    code = rdf_search(43, 6, 3, rng_seed=7)
    assert (code.n, code.k, code.dc) == (258, 215, 18)
    assert code_rate(code) == Fraction(5, 6)
    assert girth_ok(code)


def test_search_paper_large_params():
    code = rdf_search(187, 8, 5, rng_seed=7)
    assert (code.n, code.k) == (1496, 1309)
    assert code_rate(code) == Fraction(7, 8)
    assert girth_ok(code)


def test_search_exhausts_on_impossible_params():
    # 2 blocks of weight 3 need 12 distinct differences but only 4 exist
    with pytest.raises(SearchExhausted):
        rdf_search(5, 2, 3, rng_seed=0, block_tries=20, restarts=3)


def test_search_reproducible():
    a = rdf_search(43, 6, 3, rng_seed=123)
    b = rdf_search(43, 6, 3, rng_seed=123)
    assert a == b
    c = rdf_search(43, 6, 3, rng_seed=124)
    assert a != c


def test_search_weights_exact():
    code = rdf_search(43, 6, 3, rng_seed=3)
    h = code.h_matrix()
    assert (h.sum(axis=0) == code.dv).all()
    assert (h.sum(axis=1) == code.dc).all()


def test_girth_ok_detects_duplicate_difference():
    # support (0, 1, 2) repeats the difference 1 inside one block
    bad = QcCode(11, 2, 3, ((0, 1, 2), (0, 4, 9)))
    assert not girth_ok(bad)
    assert not girth_ok_dense(bad)


def test_girth_ok_agrees_with_dense_oracle():
    rng = np.random.default_rng(9)
    agree = 0
    for _ in range(40):
        sups = tuple(
            tuple(sorted(int(x) for x in rng.choice(43, size=3, replace=False)))
            for _ in range(6)
        )
        code = QcCode(43, 6, 3, sups)
        assert girth_ok(code) == girth_ok_dense(code)
        agree += 1
    assert agree == 40


def _generator(code):
    """[I_k | A] as an int64 array."""
    a = systematic_generator(code)
    assert a.shape == (code.k, code.n - code.k) and a.dtype == np.uint8
    return np.hstack([np.eye(code.k, dtype=np.int64), a])


def test_systematic_generator_zero_syndrome():
    code = rdf_search(43, 6, 3, rng_seed=11)
    g = _generator(code)
    h = code.h_matrix().astype(np.int64)
    assert not ((g @ h.T) % 2).any()


def test_systematic_generator_identity_toy():
    # H_0 = H_1 = I: A = (I^-1 I)^T = I
    code = QcCode(4, 2, 1, ((0,), (0,)))
    assert np.array_equal(systematic_generator(code), np.eye(4, dtype=np.uint8))


def test_systematic_generator_singular_block():
    # even dv makes the last circulant singular (a(1) = 0)
    code = QcCode(5, 2, 2, ((0, 1), (0, 2)))
    with pytest.raises(SingularBlock):
        systematic_generator(code)


def test_generator_zero_syndrome_many_seeds():
    for seed in range(25):
        code = rdf_search(43, 6, 3, rng_seed=seed)
        g = _generator(code)
        h = code.h_matrix().astype(np.int64)
        assert not ((g @ h.T) % 2).any()


def test_count_lower_bound_paper_value():
    lg = count_rdf_lower_bound_log2(43, 3, 6)
    assert abs(lg - 61) <= 1.0


def test_count_lower_bound_positive_large_params():
    assert count_rdf_lower_bound(187, 5, 8) > 0


def _exhaustive_family_count(b, dv, n0):
    """Count ordered support families with all cyclic differences distinct."""
    subsets = list(itertools.combinations(range(b), dv))
    diffs = []
    for sup in subsets:
        d = {(s - t) % b for s in sup for t in sup if s != t}
        diffs.append(d if len(d) == dv * (dv - 1) else None)
    count = 0
    def rec(depth, used):
        nonlocal count
        if depth == n0:
            count += 1
            return
        for d in diffs:
            if d is not None and not (d & used):
                rec(depth + 1, used | d)
    rec(0, frozenset())
    return count


@pytest.mark.parametrize("b,dv,n0", [(7, 2, 2), (13, 2, 3), (7, 3, 1)])
def test_count_lower_bound_below_exhaustive_count(b, dv, n0):
    exact = _exhaustive_family_count(b, dv, n0)
    bound = count_rdf_lower_bound(b, dv, n0)
    assert bound <= exact


def test_spec_tuple_roundtrip():
    code = rdf_search(13, 2, 3, rng_seed=5)
    b, n0, dv, sups = spec_tuple(code)
    assert QcCode(b, n0, dv, sups) == code
