"""Independent brute-force oracles used to pin expected values in tests,
and the sampling helpers only tests call.

Everything here is deliberately naive (factorial/exponential enumeration)
and shares no code with the production paths it checks, bar the Fock basis
that ``exact_distribution`` enumerates outcomes from, the CDF draw and
sequential sampler that ``sample_threshold`` draws through, and the circuit
state, samplers, ledger and SGD step that ``per_pass_run`` reuses to check
only how the training update orders and groups them.
"""

import itertools
import math
from math import comb, factorial

import numpy as np

from bbsolve import engine
from bbsolve.fock import FockStateVector, get_basis
from bbsolve.sampling import draw_from_cdf, sample_occupations_sequential


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


# ---------------------------------------------------------------------------
# direct sampling
# ---------------------------------------------------------------------------
#
# Training samples through its tiles (``engine._TileRuntime``). These draw
# from an evolved state or a mode unitary directly, through the same CDF
# inversion and sequential sampler, for tests of the samplers themselves.


def sample_occupations_statevector(
    state: FockStateVector, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` occupation patterns from the exact distribution."""
    draws = draw_from_cdf(np.cumsum(state.probabilities()), rng, count)
    return state.basis.patterns[draws].astype(np.int64)


def sample_threshold(
    source,
    rng: np.random.Generator,
    count: int,
    input_pattern=None,
) -> np.ndarray:
    """Draw ``count`` threshold bit strings (shape (count, m)).

    ``source`` is either an evolved :class:`FockStateVector` (statevector
    backend) or a mode unitary paired with ``input_pattern`` (sequential
    backend).
    """
    if isinstance(source, FockStateVector):
        occ = sample_occupations_statevector(source, rng, count)
    else:
        if input_pattern is None:
            raise ValueError("sequential backend needs the input pattern")
        occ = sample_occupations_sequential(np.asarray(source), input_pattern, rng, count)
    return (occ > 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# permanents: outcome probabilities without the Fock-space evolution
# ---------------------------------------------------------------------------
#
# The probability of measuring occupation s after sending occupation t
# through mode unitary U is |Perm(U[s-rows, t-cols])|^2 scaled by the
# occupation factorials. This checks the evolved state and the sequential
# sampler, which gets its minors from a subset table of its own
# (``sampling._placement_minors``).

_PERM_LIMIT = 18


def permanent(mat) -> complex:
    """Permanent of a square matrix of size n <= 18 (Ryser, O(n 2^n))."""
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > _PERM_LIMIT:
        raise ValueError(f"permanent limited to n <= {_PERM_LIMIT}")
    k = np.arange(1, 1 << n, dtype=np.int64)
    bits = (k[:, None] >> np.arange(n)) & 1
    sums = bits @ a.T.astype(np.complex128)
    prods = np.prod(sums, axis=1)
    signs = 1 - 2 * (bits.sum(axis=1) & 1)
    total = np.sum(signs * prods)
    return complex(total if n % 2 == 0 else -total)


def pattern_probability(u: np.ndarray, input_pattern, output_pattern) -> float:
    """P(output | input) through mode unitary ``u`` via a permanent."""
    inp = np.asarray(input_pattern, dtype=np.int64)
    out = np.asarray(output_pattern, dtype=np.int64)
    rows = np.repeat(np.arange(u.shape[0]), out)
    cols = np.repeat(np.arange(u.shape[0]), inp)
    if rows.size != cols.size:
        raise ValueError("photon number mismatch between input and output")
    sub = u[np.ix_(rows, cols)]
    norm = 1.0
    for c in inp:
        norm *= factorial(int(c))
    for c in out:
        norm *= factorial(int(c))
    return float(abs(permanent(sub)) ** 2 / norm)


def exact_distribution(u: np.ndarray, input_pattern) -> dict[tuple[int, ...], float]:
    """Full outcome distribution computed outcome-by-outcome from permanents."""
    inp = np.asarray(input_pattern, dtype=np.int64)
    basis = get_basis(u.shape[0], int(inp.sum()))
    dist = {}
    for row in basis.patterns:
        p = pattern_probability(u, inp, row)
        if p > 0.0:
            dist[tuple(int(v) for v in row)] = p
    return dist


# ---------------------------------------------------------------------------
# baselines: the SA and HC searches on bit arrays and handle.eval
# ---------------------------------------------------------------------------
#
# The production searches move an integer state and read a cost table or a
# decode of that integer. These walk the same moves on a bit array, call
# ``handle.eval`` on it, and take the same draws from the Generator in the
# same order, so a seeded run must match theirs result for result.


def hill_climb_bits(handle, budget: int, rng: np.random.Generator):
    """(best bits, best cost, calls, restarts, local optima)."""
    m = handle.size
    sign = -1.0 if handle.sense == "maximize" else 1.0
    pool = iter(rng.random(2 * budget + m))
    best_cost, best, calls, restarts, local_optima = np.inf, None, 0, 0, 0
    while calls < budget:
        bits = np.array([1 if next(pool) < 0.5 else 0 for _ in range(m)], dtype=np.uint8)
        current = sign * float(handle.eval(bits))
        calls += 1
        restarts += 1
        untried = list(range(m))
        while untried and calls < budget:
            bit = untried[min(int(next(pool) * len(untried)), len(untried) - 1)]
            bits[bit] ^= 1
            candidate = sign * float(handle.eval(bits))
            calls += 1
            if candidate < current:
                current = candidate
                untried = list(range(m))
            else:
                bits[bit] ^= 1
                # the untried set is kept in the kernel's swap-remove order
                pick = untried.index(bit)
                untried[pick] = untried[-1]
                untried.pop()
        local_optima += not untried
        if current < best_cost:
            best_cost, best = current, tuple(int(b) for b in bits)
    return best, sign * best_cost, calls, restarts, local_optima


def anneal_bits(handle, budget: int, rng: np.random.Generator, t_max=25_000.0, t_min=2.5):
    """(best bits, best cost, calls, uphill moves accepted)."""
    m = handle.size
    sign = -1.0 if handle.sense == "maximize" else 1.0
    init_u = rng.random(m)
    flip_idx = rng.integers(0, m, size=max(budget - 1, 0))
    accept_u = rng.random(max(budget - 1, 0))
    bits = (init_u < 0.5).astype(np.uint8)
    current = sign * float(handle.eval(bits))
    best_cost, best, uphill = current, tuple(int(b) for b in bits), 0
    moves = budget - 1
    for k in range(moves):
        temp = t_max * math.exp(math.log(t_min / t_max) * (k / (moves - 1) if moves > 1 else 1.0))
        bits[flip_idx[k]] ^= 1
        candidate = sign * float(handle.eval(bits))
        delta = candidate - current
        if delta <= 0.0 or accept_u[k] < math.exp(-delta / temp):
            uphill += delta > 0.0
            current = candidate
            if current < best_cost:
                best_cost, best = current, tuple(int(b) for b in bits)
        else:
            bits[flip_idx[k]] ^= 1
    return best, sign * best_cost, budget, uphill


# ---------------------------------------------------------------------------
# the training update as a loop of separate passes
# ---------------------------------------------------------------------------
#
# ``engine.run_bbs`` draws a whole update first, then places and costs it
# together. This loop runs every pass on its own, as the engine once did:
# each pass draws its samples tile by tile, then its flip uniforms, and
# costs its S rows in a ledger call of its own. A seeded run must match
# ``run_bbs`` value for value.


def per_pass_run(problem, config):
    """Losses, best costs, best bits and cost, calls, unique candidates and
    the final parameters of ``run_bbs(problem, config)``."""
    plan = engine.make_plan(problem.size, config)
    budget = engine.budget_bound(
        problem.size, updates=config.updates, samples=config.samples, tile_plan=plan
    )
    rng = np.random.default_rng(config.seed)
    params = engine.init_params(plan, rng)
    ledger = engine.EvalLedger(problem, budget)
    tiles = [
        engine._TileRuntime(layout, config.sampler_backend, config.max_dim, config.shift)
        for layout in plan.layouts
    ]
    couplers = [
        (t, c) for t, layout in enumerate(plan.layouts) for c in range(layout.coupler_count)
    ]
    count, m = config.samples, problem.size

    def sample(tile, row):
        if tile.backend == "statevector":
            return tile.basis.thresholded[draw_from_cdf(tile.cdfs[row], rng, count)]
        occ = sample_occupations_sequential(tile.unitaries[row], tile.input, rng, count)
        return (occ > 0).astype(np.uint8)

    def flip(raw, force=None, force_up=False, uniforms=None):
        if uniforms is None:
            uniforms = rng.random(raw.shape)
        flips = uniforms < params.probs
        if force is not None:
            flips[:, force] = force_up
        return raw ^ flips.astype(np.uint8), uniforms

    def mean_cost(candidates):
        return float(ledger.evaluate_batch(candidates).mean())

    def sampled_pass(shifted_tile=None, row=0):
        raw = np.concatenate(
            [sample(tile, row if t == shifted_tile else 0) for t, tile in enumerate(tiles)], axis=1
        )
        return mean_cost(flip(raw)[0]), raw

    losses, best_costs = [], []
    for _ in range(config.updates):
        for tile, sl in zip(tiles, plan.theta_slices()):
            tile.set_thetas(params.thetas[sl])
        loss, raw = sampled_pass()
        theta_grads = []
        for t, c in couplers:
            e_up, _ = sampled_pass(t, 2 * c + 1)
            e_down, _ = sampled_pass(t, 2 * c + 2)
            theta_grads.append(config.gradient_scale * (e_up - e_down) / math.sin(config.shift))
        alpha_grads = []
        for i in range(m):
            up, uniforms = flip(raw, i, True)
            e_up = mean_cost(up)
            down, _ = flip(raw, i, False, uniforms if config.crn else None)
            e_down = mean_cost(down)
            sig = 1.0 / (1.0 + np.exp(-params.alphas[i]))
            alpha_grads.append(float(sig * (1.0 - sig)) * (e_up - e_down))
        params = engine.sgd_update(
            params, np.array(theta_grads), np.array(alpha_grads), config.lr_theta, config.lr_alpha
        )
        losses.append(loss)
        best_costs.append(ledger.best_internal)
    return {
        "losses": losses,
        "best_costs": best_costs,
        "best_bits": ledger.best_bits,
        "best_cost": ledger.best_native,
        "calls": ledger.call_count,
        "unique_evals": ledger.unique_count,
        "thetas": params.thetas.tolist(),
        "alphas": params.alphas.tolist(),
    }
