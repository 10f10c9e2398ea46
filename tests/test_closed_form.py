"""Closed forms vs the slow method: stars, bridges, trees, lines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnav import (
    BridgeSpec,
    ByDegree,
    NotATree,
    StarSpec,
    Uniform,
    ValidationError,
    bridge_M,
    bridge_time,
    expected_profile,
    expected_time,
    expected_time_between,
    line_coefficients,
    line_cross_time,
    line_increment,
    line_z,
    star_optimal_trust,
    star_time,
    tree_solve_counting,
    unit_line_cross_time,
)
from conftest import line_network, small_trees, star_network

QBAR2_34 = 1.5 - math.sqrt(3) / 2     # optimal degree-2 trust at p = 3/4
QBAR3_34 = 3.0 - math.sqrt(6)         # optimal degree-3 trust at p = 3/4


def qbar(n, p):
    return star_optimal_trust(n, p)


# ---------------------------------------------------------------- stars

TRUST_TABLE = {2: 0.634, 3: 0.55051, 4: 0.500, 5: 0.464, 6: 0.436, 7: 0.414}


@pytest.mark.parametrize("n,expected", sorted(TRUST_TABLE.items()))
def test_star_trust_table(n, expected):
    tol = 5e-6 if n == 3 else 5e-4
    assert star_optimal_trust(n, 0.75) == pytest.approx(expected, abs=tol)


def test_star_trust_singularity_is_half():
    assert star_optimal_trust(4, 0.75) == 0.5
    assert star_optimal_trust(2, 0.5) == 0.5
    assert star_optimal_trust(3, 2 / 3) == 0.5


def test_star_trust_closed_forms():
    assert qbar(2, 0.75) == pytest.approx(QBAR2_34, abs=1e-12)
    assert qbar(3, 0.75) == pytest.approx(QBAR3_34, abs=1e-12)


def test_star_trust_validation():
    with pytest.raises(ValidationError):
        star_optimal_trust(1, 0.5)
    with pytest.raises(ValidationError):
        star_optimal_trust(3, 1.0)


def test_star_time_two_rays():
    s = StarSpec(2, 1.0, (1.0,))
    assert star_time(s, 0.75, qbar(2, 0.75)) == pytest.approx(2.732, abs=2e-3)


def test_star_time_perfect_information_limit():
    s = StarSpec(3, 2.0, (1.0, 4.0))
    assert star_time(s, 1.0, 1 - 1e-9) == pytest.approx(2.0, abs=1e-6)


def test_star_time_matches_slow_method():
    s = StarSpec(3, 1.0, (1.0, 2.0))
    net = star_network(3, 1.0, [1.0, 2.0])
    exact = expected_time(net, 0.75, Uniform(0.5), "I")
    assert star_time(s, 0.75, 0.5) == pytest.approx(exact, abs=1e-8)


def test_star_oracle_sweep():
    rng = np.random.default_rng(99)
    for n in (2, 3, 4, 5):
        rays = tuple(rng.uniform(0.5, 3.0, size=n - 1))
        net = star_network(n, 1.0, rays)
        for p in (0.6, 0.75, 0.9):
            for q in (0.3, 0.5, 0.7):
                closed = star_time(StarSpec(n, 1.0, rays), p, q)
                slow = expected_time(net, p, Uniform(q), "I")
                assert closed == pytest.approx(slow, abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
def test_star_optimality_on_grid(n, p):
    s = StarSpec(n, 1.0, tuple([1.5] * (n - 1)))
    best = star_time(s, p, qbar(n, p))
    for q in np.linspace(0.01, 0.99, 99):
        value = star_time(s, p, q)
        assert best <= value + 1e-12
        if abs(q - qbar(n, p)) > 1e-3:
            assert best < value


def test_star_argmin_independent_of_ray_lengths():
    n, p = 4, 0.7
    q = qbar(n, p)
    for rays in [(1.0, 1.0, 1.0), (0.5, 2.7, 1.3)]:
        s = StarSpec(n, 1.0, rays)
        best = star_time(s, p, q)
        assert best < star_time(s, p, q - 1e-5)
        assert best < star_time(s, p, q + 1e-5)


def test_star_spec_validation():
    with pytest.raises(ValidationError):
        StarSpec(3, 1.0, (1.0,))
    with pytest.raises(ValidationError):
        StarSpec(2, 0.0, (1.0,))
    with pytest.raises(ValidationError):
        StarSpec(1, 1.0, ())


# --------------------------------------------------------------- bridges

def test_bridge_M_reference_value():
    assert bridge_M(2, 0.75, qbar(2, 0.75)) == pytest.approx(0.866, abs=5e-4)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [0.3, 0.75])
@pytest.mark.parametrize("q", [0.25, 0.5, 0.8])
def test_bridge_M_is_half_the_star_coefficient(n, p, q):
    s = StarSpec(n, 1.0, tuple([1.0] * (n - 1)))
    coefficient = (star_time(s, p, q) - s.c) / s.alpha
    assert bridge_M(n, p, q) == pytest.approx(coefficient / 2, abs=1e-12)


def test_bridge_M_matches_spike_slow_method(spike):
    p = 0.75
    q3 = qbar(3, p)
    t = expected_time(spike, p, ByDegree({2: 1.0, 3: q3}), "X")
    beta = 7 - 2 * p
    assert bridge_M(3, p, q3) == pytest.approx((t - 1.0) / beta, abs=1e-9)


def test_bridge_time_spike():
    p = 0.75
    b = BridgeSpec(3, 1.0, (3 - p, 4 - p))
    assert bridge_time(b, p, qbar(3, p)) == pytest.approx(5.056, abs=2e-3)


def test_bridge_time_tiny_returns():
    b = BridgeSpec(2, 2.0, (1e-12,))
    assert bridge_time(b, 0.75, 0.5) == pytest.approx(2.0, abs=1e-9)


def test_bridge_time_equals_star_with_half_rays():
    b = BridgeSpec(4, 1.5, (0.8, 2.0, 3.1))
    s = StarSpec(4, 1.5, tuple(x / 2 for x in b.return_times))
    for p, q in [(0.6, 0.4), (0.9, 0.7)]:
        assert bridge_time(b, p, q) == pytest.approx(star_time(s, p, q),
                                                     abs=1e-12)


def test_bridge_spec_validation():
    with pytest.raises(ValidationError):
        BridgeSpec(3, 1.0, (1.0,))
    with pytest.raises(ValidationError):
        BridgeSpec(2, 1.0, (-1.0,))


# ----------------------------------------------------------------- trees

def test_tree_counting_reference(tree):
    policy, profile = tree_solve_counting(tree, 0.75)
    assert policy.q_by_degree[2] == pytest.approx(QBAR2_34, abs=1e-9)
    assert policy.q_by_degree[3] == pytest.approx(QBAR3_34, abs=1e-9)
    assert profile["A"] == pytest.approx(7.96, abs=1e-2)
    assert profile["B"] == pytest.approx(5.23, abs=1e-2)
    assert profile["H"] == 0.0


def test_tree_counting_matches_slow_method(tree):
    policy, profile = tree_solve_counting(tree, 0.75)
    slow = expected_profile(tree, 0.75, policy)
    for node, value in profile.items():
        assert value == pytest.approx(slow[node], abs=1e-8)


@given(small_trees(), st.floats(min_value=0.15, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_tree_counting_matches_slow_method_random(net, p):
    from satnav import classify

    if not classify(net).branch_nodes:
        return
    policy, profile = tree_solve_counting(net, p)
    slow = expected_profile(net, p, policy)
    for node, value in profile.items():
        assert value == pytest.approx(slow[node], abs=1e-8)


def test_path_graph_policy_is_uniform():
    net = line_network([1.0, 1.0, 1.0, 1.0])
    policy, _ = tree_solve_counting(net, 0.75)
    assert dict(policy.q_by_degree) == {2: pytest.approx(qbar(2, 0.75))}


def test_depth_one_tree_is_a_star():
    rays = (1.0, 2.0, 0.7)
    net = star_network(4, 1.2, rays)
    policy, profile = tree_solve_counting(net, 0.8)
    q = policy.q_by_degree[4]
    assert q == pytest.approx(star_optimal_trust(4, 0.8), abs=1e-12)
    assert profile["I"] == pytest.approx(
        star_time(StarSpec(4, 1.2, rays), 0.8, q), abs=1e-10
    )


def test_not_a_tree(c3, spike):
    with pytest.raises(NotATree):
        tree_solve_counting(c3, 0.75)
    with pytest.raises(NotATree):
        tree_solve_counting(spike, 0.75)


# ----------------------------------------------------------------- lines

def test_line_z_at_optimum():
    z = line_z(0.75, qbar(2, 0.75))
    assert z == pytest.approx(2 * math.sqrt(0.75 * 0.25), abs=1e-12)
    assert z == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_line_z_random_walk_point():
    assert line_z(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_line_z_equals_degree_two_bridge_M():
    assert line_z(0.9, 0.7) == pytest.approx(bridge_M(2, 0.9, 0.7), abs=1e-12)


@pytest.mark.parametrize("formula", [
    lambda p: line_z(p, 0.9),
    lambda p: bridge_M(3, p, 0.5),
    lambda p: star_time(StarSpec(3, 1.0, (1.0, 2.0)), p, 0.5),
    lambda p: bridge_time(BridgeSpec(3, 1.0, (1.0, 2.0)), p, 0.5),
], ids=["line_z", "bridge_M", "star_time", "bridge_time"])
@pytest.mark.parametrize("p", [1.5, -0.25, math.nan])
def test_formulas_reject_a_bad_reliability(formula, p):
    with pytest.raises(ValidationError, match="reliability p"):
        formula(p)


def test_line_coefficients_invariant():
    for p in (0.3, 0.6, 0.75, 0.9):
        coeff = line_coefficients(p)
        assert coeff.z == pytest.approx(2 * math.sqrt(p * (1 - p)), abs=1e-12)
        assert coeff.optimal_q == qbar(2, p)


def test_line_increment_base_case():
    assert line_increment([2.5], 0, 0.75, 0.6) == 2.5


def test_line_increment_first_step_unit():
    z = math.sqrt(3) / 2
    s1 = line_increment([1.0, 1.0], 1, 0.75, qbar(2, 0.75))
    assert s1 == pytest.approx(1 + 2 * z, abs=1e-12)
    assert s1 == pytest.approx(2.732, abs=1e-3)


def test_line_increment_matches_slow_method():
    lengths = [2.0, 5.0, 1.0]
    net = line_network(lengths)
    for p, q in [(0.75, qbar(2, 0.75)), (0.6, 0.45)]:
        closed = line_increment(lengths, 2, p, q)
        slow = expected_time_between(net, p, Uniform(q), "2", "3")
        assert closed == pytest.approx(slow, abs=1e-8)


def test_line_cross_time_telescopes_exactly():
    lengths = [1.3, 0.7, 2.2, 1.0, 0.5]
    p, q = 0.7, 0.55
    for j in range(1, 6):
        total = sum(line_increment(lengths, m, p, q) for m in range(j))
        assert line_cross_time(lengths, j, p, q) == total


def test_line_cross_time_matches_slow_method():
    lengths = [1.3, 0.7, 2.2, 1.0]
    net = line_network(lengths)
    p, q = 0.75, qbar(2, 0.75)
    for j in (1, 2, 3, 4):
        closed = line_cross_time(lengths, j, p, q)
        slow = expected_time_between(net, p, Uniform(q), "0", str(j))
        assert closed == pytest.approx(slow, abs=1e-8)


def test_unit_line_random_walk_is_quadratic():
    for j in range(7):
        assert unit_line_cross_time(j, 0.5) == float(j * j)


def test_unit_line_perfect_pointers():
    for p in (0.0, 1.0):
        for j in (1, 3, 6):
            assert unit_line_cross_time(j, p) == pytest.approx(float(j),
                                                               abs=1e-12)


def test_unit_line_interior_decomposition():
    t35 = unit_line_cross_time(5, 0.75) - unit_line_cross_time(3, 0.75)
    assert t35 == pytest.approx(12.187, abs=2e-3)


def test_unit_line_matches_general_form():
    p = 0.75
    q = qbar(2, p)
    for j in (1, 2, 5):
        general = line_cross_time([1.0] * j, j, p, q)
        assert unit_line_cross_time(j, p) == pytest.approx(general, abs=1e-9)


def test_unit_line_stable_near_half():
    for p in (0.5 - 1e-8, 0.5 + 1e-8):
        for j in (2, 5):
            assert unit_line_cross_time(j, p) == pytest.approx(
                float(j * j), rel=1e-6
            )


def test_line_validation():
    with pytest.raises(ValidationError):
        line_increment([1.0], 1, 0.75, 0.5)
    with pytest.raises(ValidationError):
        line_increment([1.0], -1, 0.75, 0.5)
    with pytest.raises(ValidationError):
        line_z(0.75, 1.0)
    with pytest.raises(ValidationError):
        unit_line_cross_time(3, 1.5)
