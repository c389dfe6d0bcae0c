import math
from fractions import Fraction

import pytest

from conftest import PAPER_PARAMS
from qclattice.analysis import (
    bruteforce_terms_log2,
    build_report,
    default_l2,
    differential_cost_log2,
    differential_cost_log2_lfsr_rounds,
    key_size_bits,
    l2_override_flag,
    message_expansion,
    rate_packed,
    rate_paper,
)
from qclattice.cipher import CipherParams


def test_key_size_paper_params():
    assert key_size_bits(PAPER_PARAMS) == 214
    assert l2_override_flag(PAPER_PARAMS)  # 61 != 7*ceil(log2 258) = 63


def test_key_size_term_breakdown():
    p = PAPER_PARAMS
    assert p.l1 == 9
    assert p.d == 61
    assert p.dv * (p.b - 1).bit_length() * p.n0 == 108
    assert p.v * p.gamma == 36


def test_key_size_large_params_cross_check():
    p = CipherParams(b=187, n0=8, dv=5, q=187, L=16, d=77)
    # independent re-derivation: l1 = ceil(log2 1496) = 11, l2 = 77,
    # l3 = 5*8*8 = 320, l4 = 8*8 = 64
    assert key_size_bits(p) == 11 + 77 + 320 + 64
    assert not l2_override_flag(p)  # 7*11 = 77


def test_key_size_degenerate_n2():
    p = CipherParams(b=1, n0=2, dv=1, q=1, L=2, d=7)
    # l1 = ceil(log2 2) = 1, l3 = l4 = 0
    assert key_size_bits(p) == 1 + 7


def test_default_l2():
    assert default_l2(258) == 63
    assert default_l2(1496) == 77
    # exact ceil(log2 n) at and just past a power of two, and at n = 1
    assert default_l2(256) == 56
    assert default_l2(257) == 63
    assert default_l2(1) == 0


def test_expansion_exact_value_at_L16():
    assert message_expansion(258, 215, 16) == Fraction(17, 6)


def test_expansion_interval_paper_range():
    vals = [float(message_expansion(258, 215, L)) for L in (2, 3, 4, 16, 256, 4096, 1 << 20)]
    assert all(1.0 <= v <= 5.6 for v in vals)
    assert max(vals) == pytest.approx(67 / 12)  # 5.5833, attained at L = 2


def test_expansion_trend_towards_one():
    assert float(message_expansion(258, 215, 1 << 30)) < 1.35


def test_expansion_at_least_one_sampled():
    for n, k in ((258, 215), (1496, 1309), (26, 13)):
        for L in (2, 8, 64, 1 << 10):
            assert message_expansion(n, k, L) >= 1


def test_rates():
    assert rate_paper(16) == 5.0
    assert rate_packed(16) == 4.0


def test_bruteforce_headline():
    lg = sum(bruteforce_terms_log2(PAPER_PARAMS).values())
    assert abs(lg - 176) <= 1.0


def test_bruteforce_terms():
    terms = bruteforce_terms_log2(PAPER_PARAMS)
    assert terms["control_line"] == 61.0
    assert terms["permutation"] == pytest.approx(36.0)
    assert terms["error_vector"] == pytest.approx(2 * math.log2(511))
    assert abs(terms["code"] - 61) <= 1.0


def test_differential_headline():
    lg = differential_cost_log2(PAPER_PARAMS)
    assert abs(lg - 129) <= 2.0
    # first-stage term alone: log2(k) + 2d = log2(215) + 122
    first = math.log2(215) + 122
    assert lg == pytest.approx(first, abs=0.01)  # dominated by stage one
    alt = differential_cost_log2_lfsr_rounds(PAPER_PARAMS)
    assert abs(alt - 129) <= 2.0


def test_differential_degenerate_small_d():
    p = CipherParams(b=43, n0=6, dv=3, q=43, L=16, d=2)
    lg = differential_cost_log2(p)
    assert math.isfinite(lg)
    # recovery stage dominates when d is tiny
    assert lg > math.log2(p.k) + 2 * p.d + 1


def test_report_reproducible_and_complete():
    a = build_report(PAPER_PARAMS)
    b = build_report(PAPER_PARAMS)
    assert a == b
    items, text = a
    kv = {k: f"{v}" for k, v in items}
    assert kv["key_bits"] == "214"
    assert abs(float(kv["bruteforce_log2"]) - 176) <= 1
    assert abs(float(kv["differential_log2"]) - 129) <= 2
    assert kv["rate_paper"] == "5"
    text = "\n".join(text)
    assert "214 bits" in text
