"""Closed-form evaluations of every bound in the paper.

All functions return the bound *without* its unspecified constant factor
(i.e. the expression inside the O(.) / Omega(.)); experiment harnesses
report measured/bound ratios and check they stay within a bounded band
while the parameter *shape* matches.

``log`` is base-2 throughout, matching the paper ("we use log n to denote
log_2 n"), and arguments of logs are clamped to 2 so the formulas stay
finite on the small instances a simulator can afford.

Every count a bound takes (``L``, ``C``, ``D``, ``B``, ``n``, ``q``,
``d``) is an exact integer of any size: a fraction, a bool, ``nan`` or
a count below the bound's domain is a
:class:`~repro.network.errors.NetworkError` naming it, never a number.
"""

from __future__ import annotations

import math

from ..network.errors import NetworkError
from ..sim.spec import exact_int

__all__ = [
    "aiello_randomized_oblivious",
    "borodin_hopcroft_oblivious",
    "butterfly_lower_bound",
    "butterfly_subset_size",
    "butterfly_upper_bound",
    "color_classes_bound",
    "general_lower_bound",
    "general_upper_bound",
    "koch_circuit_throughput",
    "log2c",
    "naive_coloring_bound",
    "num_colors",
    "num_rounds",
    "oblivious_wormhole_lower_bound",
    "ranade_b1_butterfly_lower",
    "store_forward_bound",
    "unobstructed_time",
    "virtual_channel_speedup",
]


def log2c(x: float) -> float:
    """``log2`` clamped below at 1 (i.e. ``log2(max(x, 2))``).

    The paper's asymptotic formulas contain ``log D``, ``log log n`` etc.
    that vanish or go negative at simulator scales; clamping keeps every
    bound positive and monotone without changing asymptotics.
    """
    return math.log2(max(x, 2.0))


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int >= least`` (unbounded, unlike the kernels'
    ``int64`` counts: the asymptotic checks reach ``n = 2**64``)."""
    count = exact_int(value, name)
    if count < least:
        raise NetworkError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _counts(**counts) -> list[int]:
    """Each of ``counts`` as an ``int >= 1``, in the order given."""
    return [_count(v, name) for name, v in counts.items()]


def unobstructed_time(L: int, D: int) -> int:
    """Flit steps for a never-blocked worm: ``L + D - 1`` (Section 1)."""
    L, D = _counts(L=L, D=D)
    return L + D - 1


def naive_coloring_bound(L: int, C: int, D: int) -> float:
    """Footnote 5's naive schedule: ``(L + D) C D`` flit steps."""
    L, C, D = _counts(L=L, C=C, D=D)
    return (L + D) * C * D


def store_forward_bound(L: int, C: int, D: int) -> float:
    """Leighton-Maggs-Rao [27]: ``L (C + D)`` flit steps (optimal offline)."""
    L, C, D = _counts(L=L, C=C, D=D)
    return L * (C + D)


def general_upper_bound(L: int, C: int, D: int, B: int) -> float:
    """Theorem 2.1.6 schedule length in flit steps.

    ``(L+D) C (D C)^(1/B) / B`` when ``C <= log D`` (case 1), else
    ``(L+D) C (D log D)^(1/B) / B`` (cases 2a / 2).
    """
    L, C, D, B = _counts(L=L, C=C, D=D, B=B)
    if C <= log2c(D):
        inner = D * C
    else:
        inner = D * log2c(D)
    return (L + D) * C * inner ** (1.0 / B) / B


def general_lower_bound(L: int, C: int, D: int, B: int) -> float:
    """Theorem 2.2.1: ``L C D^(1/B) / B`` flit steps."""
    L, C, D, B = _counts(L=L, C=C, D=D, B=B)
    return L * C * D ** (1.0 / B) / B


def color_classes_bound(C: int, D: int, B: int) -> float:
    """Number of color classes produced by Theorem 2.1.6:
    ``C (D log D)^(1/B) / B`` (``C (D C)^(1/B)/B`` for small C)."""
    C, D, B = _counts(C=C, D=D, B=B)
    if C <= log2c(D):
        inner = D * C
    else:
        inner = D * log2c(D)
    return C * inner ** (1.0 / B) / B


def virtual_channel_speedup(D: int, B: int) -> float:
    """Section 1.4's headline: speedup ``B * D^(1 - 1/B)`` over ``B = 1``.

    Ratio of the ``B = 1`` lower-bound form ``L C D`` to the ``B``-channel
    form ``L C D^(1/B) / B`` — superlinear in ``B`` whenever ``D > 1``.
    """
    D, B = _counts(D=D, B=B)
    return B * D ** (1.0 - 1.0 / B)


def w1(n: int, q: int) -> float:
    """The slowly-growing factor of Theorem 3.1.1: ``log log (n q)``."""
    return log2c(log2c(n * q))


def butterfly_upper_bound(L: int, q: int, n: int, B: int) -> float:
    """Theorem 3.1.1: ``L (q + log n) (log^(1/B) n) log log(nq) / B``."""
    L, q, B = _counts(L=L, q=q, B=B)
    n = _count(n, "n", 2)
    log_n = log2c(n)
    return L * (q + log_n) * (log_n ** (1.0 / B)) * w1(n, q) / B


def w2(n: int, q: int, L: int, B: int) -> float:
    """Theorem 3.2.1's slowly-growing factor
    ``l^(1/B^2) log^(2/B)(q log n)``, ``l = min(L, log n)``."""
    l = min(L, log2c(n))
    return (max(l, 2.0) ** (1.0 / B**2)) * (log2c(q * log2c(n)) ** (2.0 / B))


def butterfly_lower_bound(L: int, q: int, n: int, B: int) -> float:
    """Theorem 3.2.1: ``L q l^(1/B) / (w2(n,q) B)``, ``l = min(L, log n)``."""
    L, q, B = _counts(L=L, q=q, B=B)
    n = _count(n, "n", 2)
    l = min(L, log2c(n))
    return L * q * (max(l, 2.0) ** (1.0 / B)) / (w2(n, q, L, B) * B)


def butterfly_subset_size(n: int, q: int, L: int, B: int) -> float:
    """Theorem 3.2.5's ``s = 3 B n log^(2/B)(q log n) / l^(1/(B+1))``.

    Every set of ``s`` messages (of the ``n q`` total) collides w.h.p.
    """
    L, q, B = _counts(L=L, q=q, B=B)
    n = _count(n, "n", 2)
    l = min(L, log2c(n))
    return 3 * B * n * (log2c(q * log2c(n)) ** (2.0 / B)) / (max(l, 2.0) ** (1.0 / (B + 1)))


def koch_circuit_throughput(n: int, B: int) -> float:
    """Koch [22]: expected circuit-switching survivors ``n / log^(1/B) n``."""
    B = _count(B, "B")
    n = _count(n, "n", 2)
    return n / (log2c(n) ** (1.0 / B))


def borodin_hopcroft_oblivious(n: int, d: int) -> float:
    """Borodin-Hopcroft [9] (Section 1.3.2): some permutation forces a
    deterministic oblivious store-and-forward router on an n-node,
    degree-d network to take ``Omega(sqrt(n) / d^(3/2))`` message steps
    — later improved to ``Omega(sqrt(n) / d)`` by Kaklamanis et al.
    Returns the improved form ``sqrt(n) / d``."""
    n, d = _counts(n=n, d=d)
    return math.sqrt(n) / d


def oblivious_wormhole_lower_bound(n: int, d: int, L: int, B: int) -> float:
    """Section 1.3.2's translation of the congestion-based oblivious
    lower bound to wormhole flit steps: ``Omega(L sqrt(n) / (d B))``."""
    L, B = _counts(L=L, B=B)
    return L * borodin_hopcroft_oblivious(n, d) / B


def aiello_randomized_oblivious(n: int, d: int, L: int, B: int) -> float:
    """Aiello et al. [1] (Section 1.3.2): almost all permutations force
    randomized oblivious routers to take
    ``Omega(L log n / (B (log d + log log n)))`` flit steps."""
    d, L, B = _counts(d=d, L=L, B=B)
    n = _count(n, "n", 2)
    return L * log2c(n) / (B * (log2c(d) + log2c(log2c(n))))


def ranade_b1_butterfly_lower(n: int) -> float:
    """Ranade et al. [41] (Section 1.3.3): routing a log n-relation with
    L = log n and B = 1 needs ``Omega(log^3 n / (log log n)^2)`` flit
    steps — nearly matched by known O(log^3 n / log log n) algorithms."""
    ln = log2c(_count(n, "n", 2))
    return ln**3 / (log2c(ln) ** 2)


def num_rounds(n: int, q: int) -> int:
    """Rounds of the Section 3.1 algorithm: ``2 log log (n q) + 1``."""
    q = _count(q, "q")
    n = _count(n, "n", 2)
    return 2 * int(math.ceil(log2c(log2c(n * q)))) + 1


def num_colors(n: int, q: int, B: int, beta: float = 1.0) -> int:
    """Colors per round: ``Delta = beta q log^(1/B) n / B`` (Section 3.1)."""
    q, B = _counts(q=q, B=B)
    n = _count(n, "n", 2)
    if not 0 < beta < math.inf:
        raise NetworkError(f"beta must be finite and > 0, got {beta!r}")
    return max(1, int(math.ceil(beta * q * (log2c(n) ** (1.0 / B)) / B)))

