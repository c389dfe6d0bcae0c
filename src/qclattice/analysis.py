"""Closed-form accounting: key size, rates, expansion, attack costs.

All calculators are pure functions of the public parameters, evaluated
exactly (rationals or log-domain floats); the report echoes every input so
it can be regenerated bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cipher import CipherParams
from .rdfcode import count_rdf_lower_bound

# The control width that the key-size formula assumes when no explicit d
# is chosen: l2 = 7 * ceil(log2 n).
def default_l2(n: int) -> int:
    return 7 * math.ceil(math.log2(n))


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
    if L < 2:
        raise ValueError("L must be >= 2")
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


def bruteforce_cost_log2(params: CipherParams) -> float:
    """log2 of the product of the four key-space factors."""
    return sum(bruteforce_terms_log2(params).values())


def bruteforce_terms_log2(params: CipherParams) -> dict:
    p = params
    nrdf = count_rdf_lower_bound(p.b, p.dv, p.n0)
    return {
        "code": math.log2(nrdf) if nrdf > 0 else float("-inf"),
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
    t2 = (p.l1 + p.l2 + 2) + math.log2(2 * p.v * p.q * p.q)
    t3 = rounds_log2 + math.log2(p.k) + (p.d + 1)
    return _log2_sum([t1, t2, t3])


def differential_cost_log2_lfsr_rounds(params: CipherParams) -> float:
    """Alternative reading: error-stream period (2^l1-1)^2 bounds the rounds."""
    p = params
    return differential_cost_log2(p, rounds_log2=2 * math.log2((1 << p.l1) - 1))


@dataclass(frozen=True)
class SchemeReport:
    params: CipherParams
    n: int
    k: int
    key_bits: int
    l2_overridden: bool
    rate_paper: float
    rate_packed: float
    expansion: float
    expansion_exact: Fraction
    nrdf_log2: float
    bruteforce_log2: float
    differential_log2: float
    differential_log2_lfsr_rounds: float

    def kv_lines(self):
        p = self.params
        items = [
            ("b", p.b), ("n0", p.n0), ("dv", p.dv), ("q", p.q), ("L", p.L),
            ("d", p.d), ("n", self.n), ("k", self.k),
            ("key_bits", self.key_bits),
            ("l2_overridden", int(self.l2_overridden)),
            ("rate_paper", f"{self.rate_paper:.6g}"),
            ("rate_packed", f"{self.rate_packed:.6g}"),
            ("expansion", f"{self.expansion:.6g}"),
            ("nrdf_log2", f"{self.nrdf_log2:.4f}"),
            ("bruteforce_log2", f"{self.bruteforce_log2:.4f}"),
            ("differential_log2", f"{self.differential_log2:.4f}"),
            ("differential_log2_lfsr_rounds",
             f"{self.differential_log2_lfsr_rounds:.4f}"),
        ]
        return [f"{k}={v}" for k, v in items]

    def text_lines(self):
        p = self.params
        return [
            f"parameters        b={p.b} n0={p.n0} dv={p.dv} q={p.q} L={p.L} d={p.d}",
            f"code              n={self.n} k={self.k} rate={p.n0 - 1}/{p.n0}",
            f"key size          {self.key_bits} bits"
            + ("  (explicit d overrides l2 = 7*ceil(log2 n))" if self.l2_overridden else ""),
            f"information rate  {self.rate_paper:.4g} bit/symbol"
            f"  (packed payload {self.rate_packed:.4g} bit/coordinate)",
            f"message expansion {self.expansion:.4f}"
            f"  ({self.expansion_exact.numerator}/{self.expansion_exact.denominator})",
            f"code count        >= 2^{self.nrdf_log2:.2f} (search-family lower bound)",
            f"brute force       ~2^{self.bruteforce_log2:.2f}",
            f"differential      ~2^{self.differential_log2:.2f}"
            f"  (2^{self.differential_log2_lfsr_rounds:.2f} with LFSR-period rounds)",
        ]


def build_report(params: CipherParams) -> SchemeReport:
    params.validate()
    exp = message_expansion(params.n, params.k, params.L)
    nrdf = count_rdf_lower_bound(params.b, params.dv, params.n0)
    return SchemeReport(
        params=params,
        n=params.n,
        k=params.k,
        key_bits=key_size_bits(params),
        l2_overridden=l2_override_flag(params),
        rate_paper=rate_paper(params.L),
        rate_packed=rate_packed(params.L),
        expansion=float(exp),
        expansion_exact=exp,
        nrdf_log2=math.log2(nrdf) if nrdf > 0 else float("-inf"),
        bruteforce_log2=bruteforce_cost_log2(params),
        differential_log2=differential_cost_log2(params),
        differential_log2_lfsr_rounds=differential_cost_log2_lfsr_rounds(params),
    )
