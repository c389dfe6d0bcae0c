"""Closed-form accounting: key size, rates, expansion, attack costs.

All calculators are pure functions of the public parameters, evaluated
exactly (rationals or log-domain floats); the report echoes every input so
it can be regenerated bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cipher import CipherParams
from .errors import integer
from .rdfcode import count_rdf_lower_bound_log2

# The control width that the key-size formula assumes when no explicit d
# is chosen: l2 = 7 * ceil(log2 n).
def default_l2(n: int) -> int:
    return 7 * _ceil_log2(integer(n, "code length n", 1))


def key_size_bits(params: CipherParams) -> int:
    """l1 + l2 + l3 + l4, the bits of the secret key fields, with l2 = d.

    l1 = ceil(log2 n)            error-LFSR seed
    l2 = d                       control-line seed
    l3 = dv * ceil(log2 b) * n0  circulant supports
    l4 = v * ceil(log2 q)        permutation seeds
    """
    return sum(count * width for _, count, width in params.secret_fields())


def l2_override_flag(params: CipherParams) -> bool:
    """True when the explicit d differs from the default 7*ceil(log2 n)."""
    return params.d != default_l2(params.n)


def _ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for positive integers."""
    return (x - 1).bit_length()


def message_expansion(n: int, k: int, L: int) -> Fraction:
    """Ciphertext bits over plaintext bits, exact rational.

    ((n-k)*ceil(log2(4nL-1)) + k*ceil(log2(2nL+3))) / (n*ceil(log2(2L)))
    """
    L = integer(L, "L", 2)
    num = (n - k) * _ceil_log2(4 * n * L - 1) + k * _ceil_log2(2 * n * L + 3)
    den = n * _ceil_log2(2 * L)
    return Fraction(num, den)


def rate_paper(L: int) -> float:
    """Information rate figure log2(2L) (bits per channel symbol)."""
    return math.log2(2 * L)


def rate_packed(L: int) -> float:
    """Payload rate actually carried by the bit framing: log2(L) per coord."""
    return math.log2(L)


def _log2_sum(log_terms) -> float:
    m = max(log_terms)
    return m + math.log2(sum(2.0 ** (t - m) for t in log_terms))


def bruteforce_terms_log2(params: CipherParams) -> dict:
    """log2 of each of the four key-space factors; the cost is their sum."""
    p = params
    return {
        "code": count_rdf_lower_bound_log2(p.b, p.dv, p.n0),
        "error_vector": 2 * math.log2((1 << p.l1) - 1),
        "control_line": float(p.d),
        "permutation": float(p.v * p.gamma),
    }


def differential_cost_log2(params: CipherParams, rounds_log2: float | None = None) -> float:
    """log2(k*2^(2d) + 2^(l1+l2+2)*2vq^2 + N_rounds*k*2^(d+1)).

    The first term is the derivative stage, the second the material
    recovery stage, the third the per-round rework; by default the round
    count N_rounds is the permutation-stream period bound 2^(v*gamma).
    """
    p = params
    if rounds_log2 is None:
        rounds_log2 = float(p.v * p.gamma)
    t1 = math.log2(p.k) + 2.0 * p.d
    t2 = (p.l1 + p.d + 2) + math.log2(2 * p.v * p.q * p.q)
    t3 = rounds_log2 + math.log2(p.k) + (p.d + 1)
    return _log2_sum([t1, t2, t3])


def differential_cost_log2_lfsr_rounds(params: CipherParams) -> float:
    """Alternative reading: error-stream period (2^l1-1)^2 bounds the rounds."""
    p = params
    return differential_cost_log2(p, rounds_log2=2 * math.log2((1 << p.l1) - 1))


def build_report(params: CipherParams) -> tuple:
    """The analyze report: ordered (name, value) items, and text lines."""
    p = params
    p.validate()
    key_bits = key_size_bits(p)
    overridden = l2_override_flag(p)
    r_paper, r_packed = rate_paper(p.L), rate_packed(p.L)
    exp = message_expansion(p.n, p.k, p.L)
    expansion = float(exp)
    terms = bruteforce_terms_log2(p)
    nrdf, brute = terms["code"], sum(terms.values())
    diff, diff_lfsr = differential_cost_log2(p), differential_cost_log2_lfsr_rounds(p)
    items = (
        ("b", p.b), ("n0", p.n0), ("dv", p.dv), ("q", p.q), ("L", p.L),
        ("d", p.d), ("n", p.n), ("k", p.k),
        ("key_bits", key_bits),
        ("l2_overridden", int(overridden)),
        ("rate_paper", f"{r_paper:.6g}"),
        ("rate_packed", f"{r_packed:.6g}"),
        ("expansion", f"{expansion:.6g}"),
        ("nrdf_log2", f"{nrdf:.4f}"),
        ("bruteforce_log2", f"{brute:.4f}"),
        ("differential_log2", f"{diff:.4f}"),
        ("differential_log2_lfsr_rounds", f"{diff_lfsr:.4f}"),
    )
    text = (
        f"parameters        b={p.b} n0={p.n0} dv={p.dv} q={p.q} L={p.L} d={p.d}",
        f"code              n={p.n} k={p.k} rate={p.n0 - 1}/{p.n0}",
        f"key size          {key_bits} bits"
        + ("  (explicit d overrides l2 = 7*ceil(log2 n))" if overridden else ""),
        f"information rate  {r_paper:.4g} bit/symbol"
        f"  (packed payload {r_packed:.4g} bit/coordinate)",
        f"message expansion {expansion:.4f}  ({exp.numerator}/{exp.denominator})",
        f"code count        >= 2^{nrdf:.2f} (search-family lower bound)",
        f"brute force       ~2^{brute:.2f}",
        f"differential      ~2^{diff:.2f}  (2^{diff_lfsr:.2f} with LFSR-period rounds)",
    )
    return items, text
