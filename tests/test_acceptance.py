"""Acceptance suite: one test per release criterion, with the tolerances
pinned here. Run with -s to see one PASS/FAIL line per criterion."""

import math
import time

import numpy as np
import pytest

from satnav import (
    StarSpec,
    Uniform,
    asymmetric_equilibrium,
    asymmetric_payoff,
    best_response,
    bridge_M,
    bridge_time,
    BridgeSpec,
    build_network,
    expected_profile,
    expected_time,
    expected_time_between,
    line_cross_time,
    line_z,
    optimize_counting,
    optimize_uniform,
    simulate,
    star_optimal_trust,
    star_time,
    symmetric_equilibrium,
    symmetric_payoff,
    tree_solve_counting,
    unit_line_cross_time,
)
from satnav import fixtures as fx
from conftest import line_network, star_network

QBAR2 = star_optimal_trust(2, 0.75)
QBAR3 = star_optimal_trust(3, 0.75)


def report(num, label, ok):
    print(f"criterion {num:>2} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module", autouse=True)
def acceptance_timer():
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"\nacceptance suite wall time: {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_1_star_trust_table():
    expected = {2: 0.634, 3: 0.55051, 4: 0.500, 5: 0.464, 6: 0.436, 7: 0.414}
    star_optimal_trust(2, 0.75)  # warm-up outside the timed section
    t0 = time.perf_counter()
    got = {n: star_optimal_trust(n, 0.75) for n in range(2, 8)}
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(got[n] - expected[n]) < (5e-6 if n == 3 else 5e-4)
        for n in range(2, 8)
    )
    ok = ok and elapsed < 1e-3
    report(1, f"star trust table, {elapsed * 1e6:.0f} us", ok)


def test_criterion_2_circle_with_spike():
    net = fx.spike()
    t0 = time.perf_counter()
    counting = optimize_counting(net, 0.75, "X")
    uniform_x = optimize_uniform(net, 0.75, "X")
    uniform_a = optimize_uniform(net, 0.75, "A")
    elapsed = time.perf_counter() - t0
    ok = (
        counting.policy.q_by_degree[2] == 1.0
        and abs(counting.policy.q_by_degree[3] - 0.55051) < 5e-4
        and abs(counting.value - 5.056) < 2e-3
        and abs(uniform_x.policy.q - 0.56) < 5e-3
        and abs(uniform_x.value - 5.38) < 1e-2
        and abs(uniform_a.policy.q - 0.57108) < 5e-3
        and abs(uniform_a.value - 6.85) < 1e-2
        and elapsed < 1.0
    )
    report(2, f"circle-with-spike, {elapsed:.2f} s", ok)


def test_criterion_3_two_branch_tree():
    net = fx.tree()
    policy, profile = tree_solve_counting(net, 0.75)
    ok = (
        abs(policy.q_by_degree[2] - (1.5 - math.sqrt(3) / 2)) < 1e-9
        and abs(policy.q_by_degree[3] - (3 - math.sqrt(6))) < 1e-9
        and abs(profile["A"] - 7.96) < 1e-2
        and abs(profile["B"] - 5.23) < 1e-2
    )
    res_a = optimize_uniform(net, 0.75, "A")
    res_b = optimize_uniform(net, 0.75, "B")
    ok = ok and abs(res_a.policy.q - 0.590) < 5e-3
    ok = ok and abs(res_a.value - 8.057) < 1e-2
    ok = ok and abs(res_b.policy.q - 0.573) < 5e-3
    ok = ok and abs(res_b.value - 5.283) < 1e-2

    def quartic_a(p, q):
        return ((3 - 5 * p) * q**4 + (23 * p - 12 * p * p - 7) * q**3
                + (15 * p * p - 15 * p) * q**2 + (5 * p - 9 * p * p) * q
                + 2 * p * p)

    def quartic_b(p, q):
        return ((1 - p) * q**4 + (15 * p - 12 * p * p - 5) * q**3
                + (15 * p * p - 9 * p) * q**2 + (3 * p - 9 * p * p) * q
                + 2 * p * p)

    for p in (0.25, 0.5, 0.75):
        qa = optimize_uniform(net, p, "A").policy.q
        qb = optimize_uniform(net, p, "B").policy.q
        ok = ok and abs(quartic_a(p, qa)) < 1e-6
        ok = ok and abs(quartic_b(p, qb)) < 1e-6
    report(3, "two-branch tree", ok)


def test_criterion_4_bridge_and_cut_consistency():
    net = fx.tree()
    m = bridge_M(2, 0.75, QBAR2)
    t_ab = expected_time_between(net, 0.75, Uniform(QBAR2), "A", "B")
    t_ab_bridge = bridge_time(BridgeSpec(2, 1.0, (2.0,)), 0.75, QBAR2)
    _, counting_profile = tree_solve_counting(net, 0.75)
    t_bh = counting_profile["B"]
    t_ah = optimize_uniform(net, 0.75, "A").value
    legs = t_ab + t_bh
    ok = (
        abs(m - 0.866) < 5e-4
        and abs(t_ab - 2.732) < 2e-3
        and abs(t_ab_bridge - t_ab) < 1e-9
        and abs(legs - 7.962) < 1e-2
        and abs(t_ah - 8.05) < 1e-2
        and legs < t_ah
    )
    report(4, "bridge multiplier and cut decomposition", ok)


def test_criterion_5_line_graph():
    net = fx.line(7)
    policy = Uniform(QBAR2)
    t35 = expected_time_between(net, 0.75, policy, "3", "5")
    t53 = expected_time_between(net, 0.75, policy, "5", "3")
    t24 = expected_time_between(net, 0.75, policy, "2", "4")
    ok = (
        abs(t35 - 12.187) < 2e-3
        and abs(t53 - 9.763) < 2e-3
        and abs(t53 - t24) < 1e-9
    )
    for j in range(7):
        ok = ok and unit_line_cross_time(j, 0.5) == float(j * j)
    slow = expected_time_between(fx.line(7), 0.5, Uniform(0.5), "0", "5")
    ok = ok and abs(slow - 25.0) < 1e-9
    for p in (0.6, 0.75, 0.9):
        z = line_z(p, star_optimal_trust(2, p))
        ok = ok and abs(z - 2 * math.sqrt(p * (1 - p))) < 1e-12
    report(5, "line crossing times", ok)


def test_criterion_6_cycles():
    c3 = fx.cycle(3)
    qa = optimize_uniform(c3, 0.75, "A").policy.q
    qb = optimize_uniform(c3, 0.75, "B").policy.q
    ok = abs(qa - 0.78676) < 5e-4 and abs(qb - 0.78676) < 5e-4
    ok = ok and abs(qa - qb) < 1e-6

    c4 = fx.cycle(4)
    qa4 = optimize_uniform(c4, 0.75, "A").policy.q
    qc4 = optimize_uniform(c4, 0.75, "C").policy.q
    ok = ok and abs(qa4 - qc4) > 1e-3
    report(6, "cycles", ok)


def test_criterion_7_triangle_and_crossover():
    net = fx.triangle()
    qa = optimize_uniform(net, 0.75, "A").policy.q
    qb = optimize_uniform(net, 0.75, "B").policy.q
    ok = abs(qa - 0.68) < 1e-2 and abs(qb - 0.72) < 1e-2 and qa < qb
    qa96 = optimize_uniform(net, 0.96, "A").policy.q
    qb96 = optimize_uniform(net, 0.96, "B").policy.q
    ok = ok and abs(qa96 - 0.885) < 1e-2 and abs(qb96 - 0.879) < 1e-2
    ok = ok and qa96 > qb96

    warm = {"A": qa96, "B": qb96}

    def gap(p):
        warm["A"] = optimize_uniform(net, p, "A", warm=warm["A"]).policy.q
        warm["B"] = optimize_uniform(net, p, "B", warm=warm["B"]).policy.q
        return warm["A"] - warm["B"]

    lo, hi = 0.90, 0.95
    ok = ok and gap(lo) < 0 < gap(hi)
    for _ in range(14):
        mid = (lo + hi) / 2
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    crossover = (lo + hi) / 2
    q_at_crossover = optimize_uniform(net, crossover, "A").policy.q
    ok = ok and 0.90 <= crossover <= 0.95
    ok = ok and abs(q_at_crossover - 0.84) < 1e-2
    report(7, f"triangle, crossover p={crossover:.4f}", ok)


def test_criterion_8_treasure_game():
    sym = symmetric_equilibrium(2 / 3)
    ok = abs(sym.q_star - (math.sqrt(3) - 1)) < 1e-5
    ok = ok and abs(sym.value - 0.5) < 1e-9

    high = asymmetric_equilibrium(0.9)
    ok = ok and high.q_star == 1.0 and high.value == 0.9

    mid = asymmetric_equilibrium(2 / 3)
    ok = ok and abs(mid.q_star - 0.75736) < 1e-5
    ok = ok and abs(
        best_response(2 / 3, "asymmetric", "II", mid.q_star) - 0.5
    ) < 1e-6
    ok = ok and abs(mid.value - 4 / 3 * (1 - math.sqrt(2) / 3)) < 1e-9

    ok = ok and abs(asymmetric_equilibrium(0.5).value - 2 / 3) < 1e-12

    grid = np.linspace(0.01, 0.99, 99)
    for p in (0.55, 2 / 3, 0.75, 0.8, 0.9):
        asym = asymmetric_equilibrium(p)
        for g in grid:
            ok = ok and asymmetric_payoff(p, g, asym.r_star) <= asym.value + 1e-6
            ok = ok and asymmetric_payoff(p, asym.q_star, g) >= asym.value - 1e-6
        s = symmetric_equilibrium(p)
        for g in grid:
            ok = ok and symmetric_payoff(p, g, s.r_star) <= 0.5 + 1e-6
            ok = ok and symmetric_payoff(p, s.q_star, g) >= 0.5 - 1e-6
    report(8, "treasure game", ok)


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    instances = 0
    ok = True

    # stars: closed form vs slow method
    for n in (2, 3, 4, 5):
        for _ in range(5):
            rays = tuple(rng.uniform(0.5, 3.0, size=n - 1))
            p = rng.choice([0.6, 0.75, 0.9])
            q = rng.choice([0.3, 0.5, 0.7])
            closed = star_time(StarSpec(n, 1.0, rays), p, q)
            slow = expected_time(star_network(n, 1.0, rays), p, Uniform(q), "I")
            ok = ok and abs(closed - slow) < 1e-8
            instances += 1

    # trees: leaf-up recursion vs slow method, every node
    for _ in range(15):
        n = int(rng.integers(3, 8))
        arcs = [
            (f"t{i}", str(i), str(int(rng.integers(0, i))),
             float(rng.uniform(0.5, 3.0)))
            for i in range(1, n)
        ]
        net = build_network("0", arcs)
        p = float(rng.uniform(0.2, 0.9))
        policy, profile = tree_solve_counting(net, p)
        slow = expected_profile(net, p, policy)
        ok = ok and all(
            abs(profile[v] - slow[v]) < 1e-8 for v in net.nodes
        )
        instances += 1

    # lines: increment sums vs slow method
    for _ in range(15):
        m = int(rng.integers(2, 6))
        lengths = [float(rng.uniform(0.5, 3.0)) for _ in range(m)]
        net = line_network(lengths)
        p = float(rng.uniform(0.2, 0.9))
        q = float(rng.uniform(0.3, 0.7))
        j = int(rng.integers(1, m + 1))
        closed = line_cross_time(lengths, j, p, q)
        slow = expected_time_between(net, p, Uniform(q), "0", str(j))
        ok = ok and abs(closed - slow) < 1e-8
        instances += 1

    ok = ok and instances >= 50

    # Monte Carlo vs exact on every fixture
    starts = {"triangle": "A", "spike": "X", "tree": "A", "line5": "0",
              "c3": "A", "c4": "C"}
    for name, start in starts.items():
        net = fx.fixture(name)
        for p in (0.6, 0.75, 0.9):
            exact = expected_time(net, p, Uniform(0.6), start)
            sim = simulate(net, p, Uniform(0.6), start, 100_000, seed=42)
            ok = ok and sim.censored == 0
            ok = ok and abs(sim.mean - exact) <= 4 * sim.std_error
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 90.0
    report(9, f"oracle equivalence, {instances} instances, "
              f"{elapsed:.1f} s", ok)


def test_criterion_10_boundary_divergence():
    net = fx.triangle()
    best = optimize_uniform(net, 0.75, "A").value
    low = expected_time(net, 0.75, Uniform(1e-3), "A")
    high = expected_time(net, 0.75, Uniform(1 - 1e-3), "A")
    ok = low > 10 * best and high > 10 * best
    report(10, "boundary divergence", ok)
