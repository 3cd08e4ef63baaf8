import math

import numpy as np
import pytest

from bbsolve.engine import (
    BbsConfig,
    BbsParams,
    EvalLedger,
    _RunState,
    bitflip_grad_value,
    init_params,
    make_plan,
    shift_rule_value,
    sigmoid,
    sigmoid_deriv,
)
from bbsolve.fock import evolve, output_distribution
from bbsolve.interferometer import build_layout, input_pattern
from bbsolve.problems import CostFunctionHandle

from oracles import (
    candidate_distribution,
    candidate_expectation,
    candidate_expectation_dalpha,
    threshold_distribution,
)


def exact_expectation(theta):
    """E[bit 2] for a single photon on one coupler: sin^2(theta), computed
    through the production distribution rather than the closed form."""
    layout = build_layout(2, [1])
    dist = output_distribution(evolve([1, 0], layout, [theta]))
    return sum(p for pattern, p in dist.items() if pattern[1] > 0)


class TestShiftRule:
    def test_exact_expectation_is_sin_squared(self):
        for theta in (0.0, 0.3, np.pi / 4, 2.0):
            assert exact_expectation(theta) == pytest.approx(np.sin(theta) ** 2, abs=1e-12)

    def test_closed_form_identity(self):
        # rule on exact expectations equals sin(2 theta) sin(2 phi) / sin(phi)
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0.05, 3.0)
            est = shift_rule_value(
                exact_expectation(theta + phi), exact_expectation(theta - phi), phi
            )
            expected = np.sin(2 * theta) * np.sin(2 * phi) / np.sin(phi)
            assert est == pytest.approx(expected, abs=1e-10)

    def test_blind_spot_at_quarter_shift(self):
        # at theta = pi/4 and phi = pi/2 the estimate is 0 although dE/dtheta = 1
        theta, phi = np.pi / 4, np.pi / 2
        est = shift_rule_value(
            exact_expectation(theta + phi), exact_expectation(theta - phi), phi
        )
        assert est == pytest.approx(0.0, abs=1e-12)
        assert np.sin(2 * theta) == pytest.approx(1.0)

    def test_small_shift_recovers_twice_the_derivative(self):
        phi = 1e-3
        for theta in (0.3, 0.7, 1.1):
            est = shift_rule_value(
                exact_expectation(theta + phi), exact_expectation(theta - phi), phi
            )
            derivative = np.sin(2 * theta)
            assert est == pytest.approx(2 * derivative, rel=1e-3)

    def test_monte_carlo_estimator_matches_exact_rule(self):
        theta, phi, s = 0.9, np.pi / 2, 4000
        plan = make_plan(2, BbsConfig(updates=1, samples=1, loop_lengths=(1,)))
        params = BbsParams(thetas=np.array([theta]), alphas=np.full(2, -40.0))
        handle = CostFunctionHandle(
            size=2,
            sense="minimize",
            eval=lambda b: float(b[1]),
            kind="bit2",
            eval_batch=lambda mat: mat[:, 1].astype(float),
        )
        config = BbsConfig(samples=s, shift=phi)
        state = _RunState(plan, params, EvalLedger(handle), np.random.default_rng(3), config)
        _, theta_grads, _ = state.update()
        g = theta_grads[0]
        exact = shift_rule_value(
            exact_expectation(theta + phi), exact_expectation(theta - phi), phi
        )
        p_up = exact_expectation(theta + phi)
        p_dn = exact_expectation(theta - phi)
        sigma = math.sqrt((p_up * (1 - p_up) + p_dn * (1 - p_dn)) / s) / math.sin(phi)
        assert abs(g - exact) < 4 * sigma


def random_three_mode_setup(rng):
    m = 3
    loops = [(1,), (2,), (1, 2)][int(rng.integers(3))]
    layout = build_layout(m, loops)
    thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
    alphas = rng.normal(0, 1.5, m)
    table = {
        tuple(int(v) for v in bits): float(rng.normal())
        for bits in np.ndindex(2, 2, 2)
    }
    cost_fn = lambda bits: table[tuple(int(v) for v in bits)]
    state = evolve(input_pattern(m), layout, thetas)
    thresh = threshold_distribution(output_distribution(state))
    return alphas, cost_fn, thresh


class TestBitflipGradientIdentity:
    def test_forced_flip_identity_matches_analytic_derivative(self):
        # E[C] is linear in each flip probability, so the forced-flip form
        # f'(a) (E|p=1 - E|p=0) must equal the measure-derivative exactly
        rng = np.random.default_rng(7)
        for _ in range(10):
            alphas, cost_fn, thresh = random_three_mode_setup(rng)
            probs = sigmoid(alphas)
            for i in range(3):
                up = probs.copy()
                up[i] = 1.0
                down = probs.copy()
                down[i] = 0.0
                formula = bitflip_grad_value(
                    alphas[i],
                    candidate_expectation(thresh, up, cost_fn),
                    candidate_expectation(thresh, down, cost_fn),
                )
                analytic = candidate_expectation_dalpha(thresh, alphas, cost_fn, i)
                assert formula == pytest.approx(analytic, abs=1e-10)

    def test_expectation_linear_in_flip_probability(self):
        rng = np.random.default_rng(11)
        alphas, cost_fn, thresh = random_three_mode_setup(rng)
        probs = sigmoid(alphas)
        for i in range(3):
            lo, hi, mid = probs.copy(), probs.copy(), probs.copy()
            lo[i], hi[i] = 0.0, 1.0
            mid[i] = 0.37
            e_lo = candidate_expectation(thresh, lo, cost_fn)
            e_hi = candidate_expectation(thresh, hi, cost_fn)
            e_mid = candidate_expectation(thresh, mid, cost_fn)
            assert e_mid == pytest.approx(0.37 * e_hi + 0.63 * e_lo, abs=1e-10)

    def test_sigmoid_derivative(self):
        x = np.linspace(-8, 8, 200)
        s = sigmoid(x)
        h = 1e-6
        numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid_deriv(x), numeric, atol=1e-9)
        np.testing.assert_allclose(sigmoid_deriv(0.0), 0.25)


class TestCandidateOracleSelfChecks:
    def test_distribution_normalized(self):
        rng = np.random.default_rng(2)
        _, _, thresh = random_three_mode_setup(rng)
        dist = candidate_distribution(thresh, [0.2, 0.8, 0.5])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
