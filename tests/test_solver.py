"""Hitting-time solver, averaging, travel between nodes, Monte Carlo."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satnav import (
    ByDegree,
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
)
from satnav import fixtures as fx
from satnav import pointers, solver
from satnav.pointers import compile_network, step_table
from satnav.closed_form import line_increments
from satnav.solver import BLOCK, TimeProfile, TrustLine, profile_residual
from conftest import CACTUS3, cactus_arcs, grid3x3, grid_arcs, small_networks

# a direction is a row of pointer slots, one per branch node in node order;
# slot s is the node's s-th incident arc in the order the arcs were given
D1 = np.array([0, 1])  # triangle, A: AB, B: BC, both pointers correct
D3 = np.array([0, 0])  # triangle, A: AB, B: AB, correct at A, wrong at B


def step_distribution(net, slots, policy, v):
    """The step table row of `v` under `slots`, keyed by arc id."""
    form = compile_network(net)
    i = form.index[v]
    row = form.row_start[i] + (slots[form.branch.index(i)]
                               if i in form.branch else 0)
    probs = step_table(net, policy).probs[row]
    return {a.arc_id: pr for a, pr in zip(net.incident(v), probs.tolist())}


def test_step_distribution_degree_three(spike):
    d = np.array([0, 2])  # A: AX1, X: XH
    dist = step_distribution(spike, d, Uniform(0.55), "X")
    assert dist["XH"] == pytest.approx(0.55)
    assert dist["AX1"] == pytest.approx(0.225)
    assert dist["AX2"] == pytest.approx(0.225)


def test_step_distribution_leaf_reflects(tree):
    d = np.array([1, 2])  # A: AB, B: BH
    assert step_distribution(tree, d, Uniform(0.3), "1") == {"1B": 1.0}


def test_step_distribution_degree_two_full_trust(triangle):
    assert step_distribution(triangle, D1, Uniform(1.0), "A") == {
        "AB": 1.0,
        "AC": 0.0,
    }


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
    profile = hitting_times_for_direction(net, np.zeros(0, dtype=np.int64),
                                          Uniform(0.4))
    assert profile.time["I"] == pytest.approx(5.0)


@pytest.mark.parametrize("name, policy", [
    ("spike", ByDegree({2: 1.0, 3: 0.55})),  # A's pointer: 2 step patterns
    ("triangle", Uniform(0.0)),  # pointers at home strand both nodes
    # every branch node is sharp, so each direction is its own pattern: 8
    # and 6 patterns, of which 4 and 5 strand a node
    ("c4", Uniform(1.0)),
    ("tree", ByDegree({2: 0.0, 3: 1.0})),
])
def test_block_rows_equal_single_direction_solves(name, policy):
    net = fx.fixture(name)
    space = enumerate_direction_space(net, p=0.5)
    profile = hitting_times_for_direction(net, space.slots, policy)
    block = profile.times
    assert block.shape == (len(space), len(net.nodes))
    assert profile.time[net.nodes[0]] == block[:, 0].tolist()
    for k, slots in enumerate(space.slots):
        single = hitting_times_for_direction(net, slots, policy).times
        assert block[k].tolist() == single.tolist()
    if name == "triangle":
        assert np.isinf(block).any() and np.isfinite(block[:, :2]).any()
    stranding = {"spike": 0, "triangle": 1, "c4": 4, "tree": 5}[name]
    assert np.isinf(block).any(axis=1).sum() == stranding


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
    for slots in enumerate_direction_space(tree, p=0.75).slots:
        profile = hitting_times_for_direction(tree, slots, Uniform(q))
        assert profile_residual(tree, slots, Uniform(q), profile) < 1e-9


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
@pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
def test_profile_residual_on_whole_blocks(name, q):
    net = fx.fixture(name)
    slots = enumerate_direction_space(net, p=0.5).slots
    profile = hitting_times_for_direction(net, slots, Uniform(q))
    assert profile_residual(net, slots, Uniform(q), profile) <= 1e-9
    # one finite time off by 1e-3 breaks its own recurrence by that much
    k, v = np.argwhere(np.isfinite(profile.times) & (profile.times > 0))[0]
    times = profile.times.copy()
    times[k, v] += 1e-3
    corrupted = TimeProfile(profile.nodes, times)
    assert profile_residual(net, slots, Uniform(q), corrupted) >= 0.9e-3
    times[k, v] = math.nan
    nan_profile = TimeProfile(profile.nodes, times)
    assert not profile_residual(net, slots, Uniform(q), nan_profile) <= 1e-9


@pytest.mark.parametrize("slots", [
    [0, 3],  # B has degree 3
    [2, 0],  # A has degree 2
    [-1, 0],
    [[0, 1], [0, 3]],
    [0, 1, 2],  # the tree has two branch nodes
    [[[0, 1]]],
    np.array(0),
    np.array([0.0, 1.0]),
    np.array([True, False]),
])
def test_hitting_times_validates_slots(tree, slots):
    with pytest.raises(ValidationError, match="pointer slots"):
        hitting_times_for_direction(tree, slots, Uniform(0.5))


def test_expected_time_rejects_a_foreign_space(tree):
    space = enumerate_direction_space(tree, p=0.5)
    assert expected_time(tree, 0.9, Uniform(0.5), "A") == pytest.approx(7.6)
    assert expected_time(tree, 0.5, Uniform(0.5), "A", space=space) == \
        expected_time(tree, 0.5, Uniform(0.5), "A")
    with pytest.raises(ValidationError, match="reliability"):
        expected_time(tree, 0.9, Uniform(0.5), "A", space=space)
    with pytest.raises(ValidationError, match="network"):
        expected_time(fx.tree(), 0.5, Uniform(0.5), "A", space=space)


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


PINNED_DRAWS = [
    (fx.cycle(4), 0.75, Uniform(0.6), "C", 5000, None, 11,
     "SimulationResult(mean=3.7024, std_error=0.03691502934955322, "
     "censored=0, n_walks=5000, seed=11)"),
    (fx.spike(), 0.7, ByDegree({2: 1.0, 3: 0.55051}), "A", 5000, None, 3,
     "SimulationResult(mean=6.814, std_error=0.1082477912793761, "
     "censored=0, n_walks=5000, seed=3)"),
    (build_network("a0", CACTUS3), 0.75, ByDegree({2: 0.7, 4: 0.5}), "a3",
     20000, None, 5,
     "SimulationResult(mean=23.6176, std_error=0.17397103726796137, "
     "censored=0, n_walks=20000, seed=5)"),
    (build_network("a0", CACTUS3), 0.75, ByDegree({2: 0.7, 4: 0.5}), "a1",
     20000, None, 5,
     "SimulationResult(mean=13.0153, std_error=0.14865538408231582, "
     "censored=0, n_walks=20000, seed=5)"),
    (fx.triangle(), 0.75, Uniform(1.0), "A", 2000, 20, 9,
     "SimulationResult(mean=2.2988147223955084, std_error=0.01143631566117885, "
     "censored=397, n_walks=2000, seed=9)"),
    (fx.tree(), 0.75, Uniform(0.6), "H", 1000, None, 0,
     "SimulationResult(mean=0.0, std_error=0.0, censored=0, n_walks=1000, "
     "seed=0)"),
]
PINNED_IDS = ["c4", "spike-bydegree", "cactus3-a3", "cactus3-degree4",
              "triangle-censored", "tree-at-home"]


@pytest.mark.parametrize("net,p,policy,start,n,max_time,seed,want",
                         PINNED_DRAWS, ids=PINNED_IDS)
def test_simulate_pinned_draws(net, p, policy, start, n, max_time, seed, want):
    # every digit: the walker's draws, their order and its summation order
    sim = simulate(net, p, policy, start, n, max_time=max_time, seed=seed)
    assert repr(sim) == want


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("net,p,policy,start,n,max_time,seed,want",
                         PINNED_DRAWS, ids=PINNED_IDS)
def test_simulate_draws_do_not_depend_on_the_chunk(
        monkeypatch, chunk, net, p, policy, start, n, max_time, seed, want):
    # test_simulate_pinned_draws runs the default WALK_CHUNK; here the
    # pointer draws and the steps both run in chunks of the patched size
    monkeypatch.setattr(pointers, "WALK_CHUNK", chunk)
    monkeypatch.setattr(solver, "WALK_CHUNK", chunk)
    sim = simulate(net, p, policy, start, n, max_time=max_time, seed=seed)
    assert repr(sim) == want


def test_uniforms_drawn_in_pieces_are_one_stream():
    # the walker's chunks rely on it: one draw per chunk is one draw per step
    rng = np.random.default_rng(17)
    pieces = np.concatenate([rng.random(3), rng.random(5)])
    assert (pieces == np.random.default_rng(17).random(8)).all()


def test_simulate_peak_memory_per_walk():
    # numpy reports its buffers to tracemalloc, so this holds on any machine
    net = build_network("a0", CACTUS3)
    n = 200_000
    tracemalloc.start()
    try:
        simulate(net, 0.75, ByDegree({2: 0.7, 4: 0.5}), "a3", n, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(net.nodes) + 24) * n


def test_simulate_one_finisher_shows_no_spread():
    # p = 1 on a line: the walk takes 5; a standard error of 0 would claim
    # that one finish time shows no spread
    sim = simulate(fx.fixture("line5"), 1.0, Uniform(0.5), "0", 1)
    assert sim.mean == 5.0
    assert math.isnan(sim.std_error)
    assert sim.censored == 0
    # of three walks on the triangle two are trapped and censored
    sim = simulate(fx.triangle(), 0.75, Uniform(1.0), "A", 3, max_time=20,
                   seed=11)
    assert (sim.mean, sim.censored) == (2.0, 2)
    assert math.isnan(sim.std_error)


def test_simulate_perfect_information(tree):
    sim = simulate(tree, 1.0, Uniform(1.0), "A", 2000, seed=5)
    assert sim.mean == pytest.approx(2.0)
    assert sim.std_error == 0.0
    assert sim.censored == 0


def test_simulate_slot_ties_take_the_next_slot(monkeypatch, triangle):
    # a uniform of exactly 0 picks the first slot of positive chance: at p
    # and q = 1 every walk steps A -> B -> C, never back through a slot of
    # chance 0
    class Zeros:
        def random(self, n):
            return np.zeros(n)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    sim = simulate(triangle, 1.0, Uniform(1.0), "A", 10)
    assert (sim.mean, sim.censored) == (2.0, 0)


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
    for max_time in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="max_time"):
            simulate(triangle, 0.75, Uniform(1.0), "A", 10, max_time=max_time)
    with pytest.raises(ValidationError, match="seed"):
        simulate(triangle, 0.75, Uniform(0.5), "A", 10, seed=-1)


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
    for slots in space.slots:
        profile = hitting_times_for_direction(net, slots, Uniform(q))
        assert all(not math.isinf(t) for t in profile.time.values())
        assert profile_residual(net, slots, Uniform(q), profile) < 1e-9


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


# --- block by block: networks with a cut node other than home --------------


@given(small_networks(), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
       st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_profile_matches_the_elimination_on_random_networks(net, p, q):
    # the GTH elimination (TrustLine) is accurate to a few units in the last
    # place at any trust; blocks and folded leaves keep the LU within 1e-9
    profile = expected_profile(net, p, Uniform(q))
    for start in net.nodes:
        line = TrustLine(net, p, start, Uniform(q), Uniform(q))
        assert profile[start] == pytest.approx(line.values([0.0])[0], rel=1e-9)


def test_long_line_solves_one_arc_at_a_time():
    # 500 unit arcs: 2**499 directions, far over the cap, in one core each
    line = fx.line(500)
    begin = time.perf_counter()
    value = expected_time(line, 0.75, Uniform(0.6), "0")
    took = time.perf_counter() - begin
    crossing = math.fsum(line_increments([1.0] * 500, 500, 0.75, 0.6))
    assert value == pytest.approx(crossing, rel=1e-12)
    assert took < 1.0


def test_twenty_triangles_agree_with_the_walker():
    # 2**59 directions; each core is one triangle with two stubs
    net = build_network("a0", cactus_arcs(20, seed=0))
    policy = ByDegree({2: 0.7, 4: 0.5})
    exact = expected_time(net, 0.75, policy, "a20")
    assert exact == pytest.approx(352.23181113557916, rel=1e-12)
    sim = simulate(net, 0.75, policy, "a20", 100_000, seed=0)
    assert sim.censored == 0
    assert abs(sim.mean - exact) <= 5 * sim.std_error


@pytest.mark.parametrize("net, policy", [
    # at trust 1 the triangle behind V traps the walk: its excursion is +inf
    (build_network("H", [("VH", "V", "H", 1), ("VX", "V", "X", 1),
                         ("XY", "X", "Y", 1), ("YV", "Y", "V", 1)]),
     Uniform(1.0)),
    # X's two arcs tie in the triangle homed at A, but not after the long
    # arc's rounding, so the core would give X another pointer law
    (build_network("H", [("HA", "H", "A", 1e10), ("AM", "A", "M", 0.2),
                         ("MX", "M", "X", 0.1), ("XA", "X", "A", 0.3)]),
     Uniform(0.6)),
], ids=["infinite-excursion", "tie-rounds-apart"])
def test_whole_network_where_blocks_would_differ(net, policy):
    space = enumerate_direction_space(net, p=0.75)
    assert expected_profile(net, 0.75, policy) == \
        expected_profile(net, 0.75, policy, space=space)


def test_a_home_cut_node_splits_the_solve(monkeypatch):
    bowtie = build_network("H", [("HA", "H", "A", 1), ("AB", "A", "B", 1),
                                 ("BH", "B", "H", 2), ("HC", "H", "C", 1),
                                 ("CD", "C", "D", 2), ("DH", "D", "H", 1)])
    space = enumerate_direction_space(bowtie, p=0.75)
    whole_net = expected_profile(bowtie, 0.75, Uniform(0.6), space=space)
    solved = []
    whole = solver._weighted_profile
    monkeypatch.setattr(solver, "_weighted_profile",
                        lambda net, *rest: solved.append(net) or whole(net, *rest))
    profile = expected_profile(bowtie, 0.75, Uniform(0.6))
    # each triangle is its own core, homed at H
    assert [(core.home, core.nodes) for core in solved] == \
        [("H", ("A", "B", "H")), ("H", ("C", "D", "H"))]
    assert profile == pytest.approx(whole_net, rel=1e-12)
    expected_profile(fx.tree(), 0.75, Uniform(0.6))
    assert len(solved) == 6  # one core per arc of the tree


def test_two_grids_joined_at_home_solve_past_the_cap():
    # 93,312 directions each, 8.7e9 together; each grid is one block at home
    grid = build_network("r0c0", grid_arcs(3, 4))
    joined = build_network("r0c0", grid_arcs(3, 4) + grid_arcs(3, 4, "s"))
    policy = Uniform(0.55)
    alone = expected_time(grid, 0.75, policy, "r2c3")
    profile = expected_profile(joined, 0.75, policy)
    assert profile["r2c3"] == pytest.approx(alone, rel=1e-12)
    assert profile["sr2c3"] == pytest.approx(alone, rel=1e-12)
