"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive (factorial/exponential enumeration)
and shares no code with the production paths it checks.
"""

import itertools
from math import comb, factorial

import numpy as np


def perm_definition(mat) -> complex:
    """Permanent straight from the definition: sum over permutations."""
    a = np.asarray(mat)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(sigma):
            prod *= a[i, j]
        total += prod
    return complex(total)


def threshold_distribution(occupation_dist: dict) -> dict:
    """Collapse an occupation-pattern distribution to click-pattern bits."""
    out = {}
    for pattern, p in occupation_dist.items():
        bits = tuple(1 if c > 0 else 0 for c in pattern)
        out[bits] = out.get(bits, 0.0) + p
    return out


def candidate_distribution(thresh_dist: dict, probs) -> dict:
    """Exact post-bit-flip distribution by enumerating all flip masks."""
    probs = np.asarray(probs, dtype=float)
    m = probs.size
    out = {}
    for bits, p_bits in thresh_dist.items():
        for mask in itertools.product((0, 1), repeat=m):
            w = 1.0
            for i in range(m):
                w *= probs[i] if mask[i] else 1.0 - probs[i]
            cand = tuple(b ^ f for b, f in zip(bits, mask))
            out[cand] = out.get(cand, 0.0) + p_bits * w
    return out


def candidate_expectation(thresh_dist: dict, probs, cost_fn) -> float:
    dist = candidate_distribution(thresh_dist, probs)
    return sum(p * cost_fn(np.array(bits)) for bits, p in dist.items())


def candidate_expectation_dalpha(thresh_dist: dict, alphas, cost_fn, index) -> float:
    """d E[C] / d alpha_i by differentiating the Bernoulli flip pmf.

    Independent of the forced-flip identity: differentiates the product
    measure term by term, then applies the sigmoid chain rule.
    """
    alphas = np.asarray(alphas, dtype=float)
    probs = 1.0 / (1.0 + np.exp(-alphas))
    m = probs.size
    total = 0.0
    for bits, p_bits in thresh_dist.items():
        for mask in itertools.product((0, 1), repeat=m):
            w = 1.0
            for i in range(m):
                if i == index:
                    continue
                w *= probs[i] if mask[i] else 1.0 - probs[i]
            dmeasure = 1.0 if mask[index] else -1.0
            cand = np.array([b ^ f for b, f in zip(bits, mask)])
            total += p_bits * w * dmeasure * cost_fn(cand)
    sig = probs[index]
    return total * sig * (1.0 - sig)


def lex_permutation(n_values: int, rank: int) -> tuple:
    """rank-th permutation of (1..n_values) in lexicographic order."""
    perms = list(itertools.permutations(range(1, n_values + 1)))
    return perms[rank]


def tv_distance(empirical: dict, exact: dict) -> float:
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


def empirical_distribution(rows: np.ndarray) -> dict:
    out = {}
    for row in rows:
        key = tuple(int(v) for v in row)
        out[key] = out.get(key, 0) + 1
    n = len(rows)
    return {k: v / n for k, v in out.items()}


def factorial_check(n: int) -> int:
    return factorial(n)


def beamsplitter_blocks(theta: float, n: int) -> np.ndarray:
    """Pair-space beamsplitter blocks by direct expansion, one entry at a time.

    out[t, kp, k] is the amplitude for |k, t-k> -> |kp, t-kp> under the mode
    rotation a_i -> c*a_i + s*a_j, a_j -> -s*a_i + c*a_j with c = cos(theta)
    and s = sin(theta): expand (c a_i^+ + s a_j^+)^k (-s a_i^+ + c a_j^+)^(t-k)
    binomially and normalise by the occupation factorials.
    """
    ct, st = np.cos(theta), np.sin(theta)
    sqfact = [np.sqrt(float(factorial(v))) for v in range(n + 1)]
    out = np.zeros((n + 1, n + 1, n + 1))
    for t in range(n + 1):
        for k in range(t + 1):
            l = t - k
            for kp in range(t + 1):
                lp = t - kp
                acc = 0.0
                for q in range(max(kp - k, 0), min(l, kp) + 1):
                    p = kp - q
                    term = comb(k, p) * comb(l, q) * ct ** (p + l - q) * st ** (k - p + q)
                    acc += -term if q & 1 else term
                out[t, kp, k] = acc * sqfact[kp] * sqfact[lp] / (sqfact[k] * sqfact[l])
    return out
