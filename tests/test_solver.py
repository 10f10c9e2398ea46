"""Hitting-time solver, averaging, travel between nodes, Monte Carlo."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnav import (
    ByDegree,
    DirectionVector,
    Uniform,
    ValidationError,
    build_network,
    classify,
    enumerate_direction_space,
    expected_profile,
    expected_time,
    expected_time_between,
    hitting_times_for_direction,
    shortest_paths,
    simulate,
    step_distribution,
)
from satnav import fixtures as fx
from satnav.solver import BLOCK, profile_residual
from conftest import small_networks

D1 = DirectionVector({"A": "AB", "B": "BC"})  # triangle: both pointers correct
D3 = DirectionVector({"A": "AB", "B": "AB"})  # correct at A, wrong at B


def test_step_distribution_degree_three(spike):
    d = DirectionVector({"A": "AX1", "X": "XH"})
    dist = step_distribution(spike, d, Uniform(0.55), "X")
    assert dist["XH"] == pytest.approx(0.55)
    assert dist["AX1"] == pytest.approx(0.225)
    assert dist["AX2"] == pytest.approx(0.225)


def test_step_distribution_leaf_reflects(tree):
    d = DirectionVector({"A": "AB", "B": "BH"})
    assert step_distribution(tree, d, Uniform(0.3), "1") == {"1B": 1.0}


def test_step_distribution_degree_two_full_trust(triangle):
    assert step_distribution(triangle, D1, Uniform(1.0), "A") == {
        "AB": 1.0,
        "AC": 0.0,
    }


def test_step_distribution_rejects_home(triangle):
    with pytest.raises(ValidationError):
        step_distribution(triangle, D1, Uniform(0.5), "C")


@pytest.mark.parametrize("q", [0.2, 0.5, 0.68, 0.9])
def test_triangle_both_correct_closed_form(triangle, q):
    x = 3.0
    profile = hitting_times_for_direction(triangle, D1, Uniform(q))
    assert profile.time["A"] == pytest.approx(
        (2 * q + x - q * x) / (q * q - q + 1), abs=1e-12
    )


def test_triangle_blocking_direction_is_infinite(triangle):
    profile = hitting_times_for_direction(triangle, D3, Uniform(1.0))
    assert math.isinf(profile.time["A"])
    assert math.isinf(profile.time["B"])
    assert profile.time["C"] == 0.0


def test_forced_path():
    net = build_network("H", [("IH", "I", "H", 5)])
    profile = hitting_times_for_direction(net, DirectionVector({}), Uniform(0.4))
    assert profile.time["I"] == pytest.approx(5.0)


@pytest.mark.parametrize("name, policy", [
    ("spike", ByDegree({2: 1.0, 3: 0.55})),  # A's pointer: 2 step patterns
    ("triangle", Uniform(0.0)),  # pointers at home strand both nodes
])
def test_block_rows_equal_single_direction_solves(name, policy):
    net = fx.fixture(name)
    space = enumerate_direction_space(net, p=0.5)
    profile = hitting_times_for_direction(net, space.slots, policy)
    block = profile.times
    assert block.shape == (len(space), len(net.nodes))
    assert profile.time[net.nodes[0]] == block[:, 0].tolist()
    for k, (d, _) in enumerate(space):
        single = hitting_times_for_direction(net, d, policy).times
        assert block[k].tolist() == single.tolist()
    if name == "triangle":
        assert np.isinf(block).any() and np.isfinite(block[:, :2]).any()


def grid3x3():
    """3x3 grid, home at a corner, arc lengths 1..3: 2,592 directions."""
    arcs = []
    for i in range(3):
        for j in range(3):
            if j < 2:
                arcs.append((f"h{i}{j}", f"r{i}c{j}", f"r{i}c{j + 1}",
                             1 + (i + 2 * j) % 3))
            if i < 2:
                arcs.append((f"v{i}{j}", f"r{i}c{j}", f"r{i + 1}c{j}",
                             1 + (2 * i + j) % 3))
    return build_network("r0c0", arcs)


def test_expected_profile_is_the_in_order_sum_of_single_solves():
    net, p, policy = grid3x3(), 0.75, Uniform(0.6)
    space = enumerate_direction_space(net, p=p)
    assert len(space) == 2_592 > BLOCK
    total = np.zeros(len(net.nodes))
    for slots, weight in zip(space.slots, space.weights):
        total += weight * hitting_times_for_direction(net, slots, policy).times
    assert list(expected_profile(net, p, policy).values()) == total.tolist()


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_profile_residual_small(tree, q):
    for d, _ in enumerate_direction_space(tree, p=0.75).entries:
        profile = hitting_times_for_direction(tree, d, Uniform(q))
        assert profile_residual(tree, d, Uniform(q), profile) < 1e-9


def test_expected_time_spike_uniform(spike):
    assert expected_time(spike, 0.75, Uniform(0.5628), "X") == pytest.approx(
        5.38, abs=1e-2
    )
    assert expected_time(spike, 0.75, Uniform(0.57108), "A") == pytest.approx(
        6.85, abs=1e-2
    )


def test_expected_time_tree_counting(tree):
    policy = ByDegree({2: 1.5 - math.sqrt(3) / 2, 3: 3 - math.sqrt(6)})
    assert expected_time(tree, 0.75, policy, "B") == pytest.approx(
        5.23, abs=1e-2
    )
    assert expected_time(tree, 0.75, policy, "A") == pytest.approx(
        7.96, abs=1e-2
    )


def test_expected_time_infinite_at_full_trust(triangle):
    # one positive-weight pointer configuration blocks home at q = 1
    assert math.isinf(expected_time(triangle, 0.75, Uniform(1.0), "A"))


def test_expected_time_finite_at_full_trust_when_reliable(triangle):
    # p = 1 puts zero weight on the blocking configurations
    assert expected_time(triangle, 1.0, Uniform(1.0), "A") == pytest.approx(2.0)


def test_expected_time_between_line_asymmetry(line7):
    q = (0.75 - math.sqrt(0.75 * 0.25)) / 0.5
    policy = Uniform(q)
    assert expected_time_between(line7, 0.75, policy, "3", "5") == pytest.approx(
        12.187, abs=2e-3
    )
    assert expected_time_between(line7, 0.75, policy, "5", "3") == pytest.approx(
        9.763, abs=2e-3
    )
    # the leftward time equals the mirrored rightward time
    assert expected_time_between(line7, 0.75, policy, "5", "3") == pytest.approx(
        expected_time_between(line7, 0.75, policy, "2", "4"), abs=1e-10
    )


def test_expected_time_between_same_node(tree):
    assert expected_time_between(tree, 0.75, Uniform(0.6), "B", "B") == 0.0


def test_expected_time_between_to_home_matches_expected_time(tree):
    policy = Uniform(0.6)
    assert expected_time_between(tree, 0.75, policy, "A", "H") == pytest.approx(
        expected_time(tree, 0.75, policy, "A"), abs=1e-12
    )


@pytest.mark.parametrize(
    "name,a,b,c",
    [
        ("tree", "A", "B", "H"),
        ("tree", "2", "A", "H"),
        ("tree", "2", "B", "H"),
        ("spike", "A", "X", "H"),
    ],
)
@pytest.mark.parametrize("policy", [Uniform(0.6), Uniform(0.35)])
def test_cut_node_additivity(request, name, a, b, c, policy):
    net = request.getfixturevalue(name)
    whole = expected_time_between(net, 0.75, policy, a, c)
    parts = expected_time_between(net, 0.75, policy, a, b) + \
        expected_time_between(net, 0.75, policy, b, c)
    assert whole == pytest.approx(parts, abs=1e-8)


def test_boundary_divergence(triangle):
    optimum = expected_time(triangle, 0.75, Uniform(0.68), "A")
    assert expected_time(triangle, 0.75, Uniform(1e-3), "A") > 10 * optimum
    assert expected_time(triangle, 0.75, Uniform(1 - 1e-3), "A") > 10 * optimum


@pytest.mark.parametrize("name,start", [("triangle", "A"), ("spike", "X"),
                                        ("tree", "A")])
@pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
def test_monte_carlo_agrees_with_exact(request, name, start, p):
    net = request.getfixturevalue(name)
    policy = Uniform(0.6)
    exact = expected_time(net, p, policy, start)
    sim = simulate(net, p, policy, start, 100_000, seed=1234)
    assert sim.censored == 0
    assert abs(sim.mean - exact) <= 4 * sim.std_error


def test_simulate_deterministic(tree):
    a = simulate(tree, 0.75, Uniform(0.6), "A", 5000, seed=7)
    b = simulate(tree, 0.75, Uniform(0.6), "A", 5000, seed=7)
    assert a == b


def test_simulate_perfect_information(tree):
    sim = simulate(tree, 1.0, Uniform(1.0), "A", 2000, seed=5)
    assert sim.mean == pytest.approx(2.0)
    assert sim.std_error == 0.0
    assert sim.censored == 0


def test_simulate_censors_blocked_walks(triangle):
    # q = 1: the configuration that is wrong at B traps the walk
    sim = simulate(triangle, 0.75, Uniform(1.0), "A", 500, max_time=100,
                   seed=9)
    assert sim.censored > 0
    assert sim.mean < 100


def test_simulate_validates(triangle):
    with pytest.raises(ValidationError):
        simulate(triangle, 0.75, Uniform(0.5), "A", 0)
    with pytest.raises(ValidationError):
        simulate(triangle, 1.5, Uniform(0.5), "A", 10)


def test_policy_validation(triangle, spike):
    with pytest.raises(ValidationError):
        Uniform(1.2)
    with pytest.raises(ValidationError):
        ByDegree({2: -0.1})
    with pytest.raises(ValidationError, match="degree 3"):
        expected_time(spike, 0.75, ByDegree({2: 0.5}), "X")


def test_by_degree_keeps_its_own_trusts(spike):
    trusts = {2: 0.5, 3: 0.55}
    policy = ByDegree(trusts)
    before = expected_time(spike, 0.75, policy, "X")
    trusts[3] = 5.0
    assert policy.trust_at(3) == 0.55
    assert expected_time(spike, 0.75, policy, "X") == before


@given(small_networks(), st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_expected_time_at_least_distance(net, p, q):
    from satnav import expected_profile

    distance = shortest_paths(net).distance
    profile = expected_profile(net, p, Uniform(q))
    for start in net.nodes:
        assert profile[start] >= distance[start] - 1e-9


@given(small_networks(), st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_interior_policy_profiles_are_finite(net, q):
    space = enumerate_direction_space(net, p=0.5)
    for d, _ in space.entries:
        profile = hitting_times_for_direction(net, d, Uniform(q))
        assert all(not math.isinf(t) for t in profile.time.values())
        assert profile_residual(net, d, Uniform(q), profile) < 1e-9


def test_branch_nodes_are_only_pointer_sites(c4):
    assert classify(c4).branch_nodes == {"A", "B", "C"}


def test_threads_sharing_a_network_get_their_own_policy(tree):
    # the compiled arrays and the latest step table are cached on the network
    policies = [Uniform(q) for q in (0.3, 0.5, 0.7, 0.9)]
    want = [expected_time(fx.tree(), 0.75, policy, "A") for policy in policies]
    got = [set() for _ in range(8)]

    def work(k):
        for _ in range(20):
            got[k].add(expected_time(tree, 0.75, policies[k % 4], "A"))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [{want[k % 4]} for k in range(8)]
