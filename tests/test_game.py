"""First-to-home game on the 3-node line: payoffs, equilibria, simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnav import (
    DegeneratePolicy,
    OutOfRange,
    Regime,
    ValidationError,
    asymmetric_equilibrium,
    asymmetric_payoff,
    asymmetric_q_mid,
    best_response,
    best_response_curves,
    evaluate_payoff,
    simulate_game,
    symmetric_equilibrium,
    symmetric_payoff,
)

probs = st.floats(min_value=0.01, max_value=0.99)


# ------------------------------------------------------------- symmetric

@given(probs, probs)
@settings(max_examples=60)
def test_symmetric_equal_trusts_give_half(p, q):
    assert symmetric_payoff(p, q, q) == pytest.approx(0.5, abs=1e-12)


@given(probs, probs, probs)
@settings(max_examples=60)
def test_symmetric_payoffs_sum_to_one(p, q, r):
    total = symmetric_payoff(p, q, r) + symmetric_payoff(p, r, q)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(probs, probs, probs, st.sampled_from(["symmetric", "asymmetric"]))
@settings(max_examples=60)
def test_payoff_records_are_probabilities(p, q, r, mode):
    record = evaluate_payoff(p, q, r, mode)
    assert 0.0 <= record.v <= 1.0
    assert (record.p, record.q, record.r) == (p, q, r)


def test_symmetric_correct_pointer_component():
    # p = 1 leaves only the correct-pointer race
    q, r = 0.9, 0.5
    expected = (2 * q - q * r) / (2 * q + 2 * r - 2 * q * r)
    assert symmetric_payoff(1.0, q, r) == pytest.approx(expected, abs=1e-12)


def test_symmetric_equilibrium_two_thirds():
    sol = symmetric_equilibrium(2 / 3)
    assert sol.regime is Regime.SYMMETRIC_START
    assert sol.q_star == pytest.approx(math.sqrt(3) - 1, abs=1e-9)
    assert sol.r_star == sol.q_star
    assert sol.value == 0.5


def test_symmetric_equilibrium_is_best_response_fixed_point():
    for p in (0.55, 2 / 3, 0.8):
        q = symmetric_equilibrium(p).q_star
        assert best_response(p, "symmetric", "II", q) == pytest.approx(
            q, abs=1e-6
        )
        assert best_response(p, "symmetric", "I", q) == pytest.approx(
            q, abs=1e-6
        )


def test_symmetric_equilibrium_at_half_is_random_walk():
    sol = symmetric_equilibrium(0.5)
    assert sol.q_star == 0.5
    assert best_response(0.5, "symmetric", "I", 0.5) == pytest.approx(
        0.5, abs=1e-6
    )


def test_symmetric_equilibrium_validates():
    with pytest.raises(ValidationError):
        symmetric_equilibrium(0.0)
    with pytest.raises(ValidationError):
        symmetric_equilibrium(1.0)


def test_symmetric_degenerate_pairs():
    with pytest.raises(DegeneratePolicy):
        symmetric_payoff(0.7, 0.0, 0.0)
    with pytest.raises(DegeneratePolicy):
        symmetric_payoff(0.7, 1.0, 1.0)
    # zero-weight degenerate component is skipped
    assert symmetric_payoff(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert symmetric_payoff(0.0, 0.0, 0.0) == pytest.approx(0.5)


# ------------------------------------------------------------ asymmetric

def test_asymmetric_full_trust_wins_iff_pointer_correct():
    for p in (0.3, 0.6, 0.9):
        assert asymmetric_payoff(p, 1.0, 0.4) == pytest.approx(p, abs=1e-12)
    assert asymmetric_payoff(1.0, 1.0, 0.7) == 1.0


@given(probs, probs, probs)
@settings(max_examples=60)
def test_asymmetric_matches_alternating_tosses(p, q, r):
    def first_head(a, b):
        return a / (1 - (1 - a) * (1 - b))

    expected = p * first_head(q, r) + (1 - p) * first_head(1 - q, 1 - r)
    assert asymmetric_payoff(p, q, r) == pytest.approx(expected, abs=1e-12)


def test_asymmetric_value_formula():
    p = 2 / 3
    q = asymmetric_q_mid(p)
    assert q == pytest.approx(5 - 3 * math.sqrt(2), abs=1e-12)
    value = asymmetric_payoff(p, q, 0.5)
    assert value == pytest.approx(4 / 3 * (1 - math.sqrt(2) / 3), abs=1e-9)


def test_asymmetric_equilibrium_regimes():
    high = asymmetric_equilibrium(0.9)
    assert high.regime is Regime.ASYM_HIGH_P
    assert high.q_star == 1.0
    assert high.r_star == 0.5
    assert high.value == 0.9

    mid = asymmetric_equilibrium(2 / 3)
    assert mid.regime is Regime.ASYM_MID_P
    assert mid.q_star == pytest.approx(0.75736, abs=1e-5)
    assert mid.r_star == 0.5
    assert mid.value == pytest.approx(4 / 3 * (1 - math.sqrt(2) / 3), abs=1e-9)

    walk = asymmetric_equilibrium(0.5)
    assert walk.regime is Regime.ASYM_RANDOM_WALK
    assert walk.value == pytest.approx(2 / 3, abs=1e-12)


def test_asymmetric_equilibrium_continuous_at_four_fifths():
    assert asymmetric_q_mid(0.8) == pytest.approx(1.0, abs=1e-9)
    mid_value = 4 / 3 * (1 - math.sqrt(0.8 * 0.2))
    assert asymmetric_equilibrium(0.8).value == pytest.approx(mid_value,
                                                              abs=1e-9)


def test_asymmetric_out_of_range():
    with pytest.raises(OutOfRange):
        asymmetric_equilibrium(0.3)


def test_asymmetric_value_consistency():
    for p in (0.55, 2 / 3, 0.75, 0.8, 0.9):
        sol = asymmetric_equilibrium(p)
        assert asymmetric_payoff(p, sol.q_star, 0.5) == pytest.approx(
            sol.value, abs=1e-9
        )


@pytest.mark.parametrize("p", [0.55, 2 / 3, 0.75, 0.8, 0.9])
def test_no_profitable_deviation(p):
    grid = np.linspace(0.01, 0.99, 99)
    sol = asymmetric_equilibrium(p)
    for g in grid:
        assert asymmetric_payoff(p, g, sol.r_star) <= sol.value + 1e-6
        assert asymmetric_payoff(p, sol.q_star, g) >= sol.value - 1e-6
    sym = symmetric_equilibrium(p)
    for g in grid:
        assert symmetric_payoff(p, g, sym.r_star) <= 0.5 + 1e-6
        assert symmetric_payoff(p, sym.q_star, g) >= 0.5 - 1e-6


def test_asymmetric_degenerate_pairs():
    with pytest.raises(DegeneratePolicy):
        asymmetric_payoff(0.5, 0.0, 0.0)
    with pytest.raises(DegeneratePolicy):
        asymmetric_payoff(0.5, 1.0, 1.0)
    assert asymmetric_payoff(1.0, 1.0, 1.0) == 1.0
    assert asymmetric_payoff(0.0, 0.0, 0.0) == 1.0


# ------------------------------------------------------- response curves

def test_response_to_half_is_interior_optimum():
    p = 2 / 3
    q_mid = asymmetric_q_mid(p)
    assert best_response(p, "asymmetric", "I", 0.5) == pytest.approx(
        q_mid, abs=1e-6
    )
    assert best_response(p, "asymmetric", "II", q_mid) == pytest.approx(
        0.5, abs=1e-6
    )


def test_response_to_interior_trust_is_not_that_trust():
    # the "II faces the same problem, so r = q" argument fails numerically
    p = 2 / 3
    q_mid = asymmetric_q_mid(p)
    reply = best_response(p, "asymmetric", "I", q_mid)
    assert abs(reply - q_mid) > 0.01


def test_first_order_sign_change():
    def f(p, q):
        return -1 + 5 * p - 2 * q - 2 * p * q - q * q + 2 * p * q * q

    for p in (0.55, 2 / 3, 0.75):
        q_mid = asymmetric_q_mid(p)
        assert f(p, q_mid - 0.01) > 0
        assert f(p, q_mid + 0.01) < 0
        assert abs(f(p, q_mid)) < 1e-9


def test_response_curves_tables():
    curves = best_response_curves(2 / 3, "asymmetric", [0.3, 0.5, 0.7])
    assert curves.opponent_q == (0.3, 0.5, 0.7)
    assert len(curves.best_r) == 3
    assert all(0.0 <= r <= 1.0 for r in curves.best_r)
    # player I's reply to r = 1/2 appears in the table
    assert curves.best_q[1] == pytest.approx(asymmetric_q_mid(2 / 3), abs=1e-6)

    sym = best_response_curves(2 / 3, "symmetric", [math.sqrt(3) - 1])
    assert sym.best_q[0] == pytest.approx(math.sqrt(3) - 1, abs=1e-6)
    assert sym.best_r[0] == pytest.approx(math.sqrt(3) - 1, abs=1e-6)


def test_response_curves_validate():
    with pytest.raises(ValidationError):
        best_response_curves(0.7, "asymmetric", [0.0, 0.5])
    with pytest.raises(ValidationError):
        best_response_curves(0.7, "bogus", [0.5])
    with pytest.raises(ValidationError):
        best_response(0.7, "asymmetric", "III", 0.5)


# ------------------------------------------------------------ simulation

@pytest.mark.parametrize("p,q,r", [(2 / 3, 0.7, 0.5), (0.9, 1.0, 0.5)])
def test_simulated_asymmetric_game_matches_formula(p, q, r):
    sim = simulate_game(p, q, r, "asymmetric", 100_000, seed=2024)
    exact = asymmetric_payoff(p, q, r)
    assert abs(sim.win_probability - exact) <= 4 * sim.std_error


def test_simulated_symmetric_game_matches_formula():
    p, q, r = 0.7, 0.6, 0.75
    sim = simulate_game(p, q, r, "symmetric", 100_000, seed=99)
    exact = symmetric_payoff(p, q, r)
    assert abs(sim.win_probability - exact) <= 4 * sim.std_error


def test_simulated_game_deterministic():
    a = simulate_game(0.7, 0.6, 0.5, "asymmetric", 2000, seed=5)
    b = simulate_game(0.7, 0.6, 0.5, "asymmetric", 2000, seed=5)
    assert a == b


def test_simulated_game_rejects_degenerate_trusts():
    with pytest.raises(DegeneratePolicy):
        simulate_game(0.5, 1.0, 1.0, "symmetric", 100)


def test_simulated_game_validates():
    with pytest.raises(ValidationError):
        simulate_game(0.5, 0.5, 0.5, "asymmetric", 0)
    with pytest.raises(ValidationError):
        simulate_game(0.5, 0.5, 0.5, "bogus", 10)
