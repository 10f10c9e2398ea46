"""Trust optimization: scalar, coordinate descent, and reliability curves."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satnav import (
    ByDegree,
    CapExceeded,
    Uniform,
    ValidationError,
    build_network,
    enumerate_direction_space,
    expected_time,
    line_increment,
    optimize_counting,
    optimize_uniform,
    simulate,
    star_optimal_trust,
    tree_solve_counting,
    trust_curve,
)
from conftest import (
    CACTUS3,
    cactus_arcs,
    grid3x3,
    rational_expected_profile,
    small_networks,
    star_network,
)
from satnav import fixtures as fx
from satnav.network import classify
from satnav.optimize import EPS, _grid, _grid_winner, _search
from satnav import solver
from satnav.solver import TrustLine


def trust_lines(p):
    """(name, start, line, at) for every fixture and a star with a degree-4
    center (three arcs share 1 - q), from every non-home start, under
    Uniform and under the top branch degree's ByDegree coordinate; at(q) is
    the line's policy at q."""
    networks = {name: fx.fixture(name) for name in sorted(fx.FIXTURES)}
    networks["star4"] = star_network(4, 1.0, [1.0, 2.0, 1.5])
    for name, net in networks.items():
        degrees = sorted({net.degree(v) for v in classify(net).branch_nodes})
        coordinate = lambda q, k=degrees[-1], others=dict.fromkeys(degrees, 0.7): (
            ByDegree({**others, k: q}))
        for start in net.nodes:
            if start != net.home:
                for at in (Uniform, coordinate):
                    yield name, start, TrustLine(net, p, start, at(0.0), at(1.0)), at


def test_trust_line_derivatives_match_central_differences():
    h = 1e-5
    for name, start, line, _ in trust_lines(0.75):
        for q in (0.3, 0.6):
            value, slope, curvature = line.derivatives(q)
            below, at, above = line.values([q - h, q, q + h])
            assert value == pytest.approx(at, rel=1e-13), (name, start, q)
            assert slope == pytest.approx(
                (above - below) / (2 * h), rel=1e-6), (name, start, q)
            assert curvature == pytest.approx(
                (above - 2 * at + below) / h**2, rel=1e-3), (name, start, q)


def test_trust_line_values_match_expected_time():
    grid = [q for q in _grid(EPS, 1 - EPS, 101) if 0.05 <= q <= 0.95]
    for name, start, line, at in trust_lines(0.75):
        space = enumerate_direction_space(line.net, p=0.75)
        for q, value in zip(grid, line.values(grid)):
            if name.startswith("line"):
                # the exact path's LU is off by up to 1.6e-9 on line7 near
                # q = 0.05; the line's closed form is not
                size = len(line.net.nodes)
                exact = sum(line_increment([1.0] * size, m, 0.75, q)
                            for m in range(int(start), size - 1))
            else:
                exact = expected_time(line.net, 0.75, at(q), start, space=space)
            assert value == pytest.approx(exact, rel=1e-13), (name, start, q)


def test_trust_line_clamp_values_match_exact_rationals():
    profiles = {}  # one oracle profile serves every start
    for name, start, line, at in trust_lines(0.75):
        for q, value in zip((EPS, 1 - EPS), line.values([EPS, 1 - EPS])):
            key = name, at is Uniform, q
            if key not in profiles:
                profiles[key] = rational_expected_profile(line.net, 0.75, at(q))
            assert value == pytest.approx(float(profiles[key].get(start, 0)),
                                          rel=1e-14), (name, start, q)


@pytest.mark.parametrize("name, p, q, start", [
    ("line5", 1.0, 1e-6, "0"),
    ("line5", 1.0, 1e-12, "0"),
    ("line7", 0.5, 1e-6, "0"),
    ("tree", 0.5, 1e-6, "B"),
], ids=["line5-1e-6", "line5-1e-12", "line7-1e-6", "tree-1e-6"])
def test_trust_line_near_edge_rows_match_exact_rationals(name, p, q, start):
    # the exact path's LU reads 6.96e16, raises SingularSystem, reads
    # 2.67e16 and reads 249997155579.58 on these rows; the elimination
    # must hold the exact value
    net = fx.fixture(name)
    line = TrustLine(net, p, start, Uniform(0.0), Uniform(1.0))
    exact = rational_expected_profile(net, p, Uniform(q))[start]
    assert line.values([q])[0] == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("q", [1e-6, 1 - 1e-6], ids=["near-0", "near-1"])
@pytest.mark.parametrize("at", [Uniform, lambda q: ByDegree({2: q, 4: 0.5})],
                         ids=["uniform", "degree2"])
def test_trust_line_cactus3_near_edges_match_exact_rationals(at, q):
    net = build_network("a0", CACTUS3)
    exact = rational_expected_profile(net, 0.75, at(q))
    for start in ("a3", "x2"):
        line = TrustLine(net, 0.75, start, at(0.0), at(1.0))
        assert line.values([q])[0] == pytest.approx(float(exact[start]),
                                                    rel=1e-12), start


@st.composite
def grid2x3_or_two_triangles(draw):
    """A 2x3 grid or a chain of two triangles a0-x1-a1-x2-a2, with random
    arc lengths and a random home."""
    if draw(st.booleans()):
        ends = [(f"r{i}c{j}", f"r{i}c{j + 1}") for i in (0, 1) for j in (0, 1)]
        ends += [(f"r0c{j}", f"r1c{j}") for j in (0, 1, 2)]
    else:
        ends = [(f"a{k - 1}", f"x{k}") for k in (1, 2)]
        ends += [(f"x{k}", f"a{k}") for k in (1, 2)]
        ends += [(f"a{k - 1}", f"a{k}") for k in (1, 2)]
    length = st.floats(min_value=0.5, max_value=3.0)
    arcs = [(f"e{k}", u, v, draw(length)) for k, (u, v) in enumerate(ends)]
    nodes = sorted({v for pair in ends for v in pair})
    return build_network(draw(st.sampled_from(nodes)), arcs)


@given(st.one_of(small_networks(max_nodes=6), grid2x3_or_two_triangles()))
@settings(max_examples=20, deadline=None)
def test_trust_line_values_match_exact_rationals(net):
    # every start, reliability and trust, near-edge trusts included
    for p in (0.25, 0.75, 1.0):
        for q in (1e-6, 1e-3, 0.5, 0.999, 1 - 1e-6):
            exact = rational_expected_profile(net, p, Uniform(q))
            for start, value in exact.items():
                line = TrustLine(net, p, start, Uniform(q), Uniform(q))
                assert line.values([0.0])[0] == pytest.approx(
                    float(value), rel=1e-12), (p, q, start)


def on_segment(low, high, q):
    """The policy at q on the segment from `low` to `high`."""
    if isinstance(low, Uniform):
        return Uniform(low.q + q * (high.q - low.q))
    return ByDegree({k: t + q * (high.q_by_degree[k] - t)
                     for k, t in low.q_by_degree.items()})


@pytest.mark.parametrize("net, low, high", [
    (fx.tree(), Uniform(0.2), Uniform(0.6)),
    (fx.cycle(4), Uniform(0.2), Uniform(0.6)),
    (fx.spike(), ByDegree({2: 0.9, 3: 0.2}), ByDegree({2: 0.4, 3: 0.7})),
    (build_network("a0", CACTUS3), ByDegree({2: 0.3, 4: 0.8}),
     ByDegree({2: 0.7, 4: 0.2})),
], ids=["tree-uniform", "c4-uniform", "spike-two-degrees", "cactus3-two-degrees"])
def test_trust_line_off_the_coordinates(net, low, high):
    # every trust moves at once, so no trust is the line's q itself
    grid, h = [0.1, 0.25, 0.5, 0.75, 0.9], 1e-5
    space = enumerate_direction_space(net, p=0.75)
    for start in net.nodes:
        if start == net.home:
            continue
        line = TrustLine(net, 0.75, start, low, high)
        for q, value in zip(grid, line.values(grid)):
            exact = expected_time(net, 0.75, on_segment(low, high, q), start,
                                  space=space)
            assert value == pytest.approx(exact, rel=1e-12), (start, q)
        for q in (0.3, 0.6):
            value, slope, curvature = line.derivatives(q)
            below, at, above = line.values([q - h, q, q + h])
            assert value == pytest.approx(at, rel=1e-13), (start, q)
            assert slope == pytest.approx(
                (above - below) / (2 * h), rel=1e-6), (start, q)
            assert curvature == pytest.approx(
                (above - 2 * at + below) / h**2, rel=1e-3), (start, q)


def test_trust_line_reads_its_segment_not_a_coordinate(tree):
    # halfway from trust 0 to trust 1/2 is trust 1/4 everywhere: 164/9
    line = TrustLine(tree, 0.75, "A", Uniform(0.0), Uniform(0.5))
    exact = rational_expected_profile(tree, 0.75, Uniform(0.25))["A"]
    assert exact == Fraction(164, 9)
    assert line.values([0.5])[0] == pytest.approx(float(exact), rel=1e-12)


def test_trust_line_runs_past_the_enumeration_cap():
    # 7 triangles have 2**20 directions, over the cap; the line needs only
    # the reliability, and expected_time solves one triangle at a time. The
    # walker checks both
    net = build_network("a0", cactus_arcs(7, seed=0))
    policy = ByDegree({2: 0.7, 4: 0.5})
    value = TrustLine(net, 0.75, "a7", policy, policy).values([0.0])[0]
    assert expected_time(net, 0.75, policy, "a7") == pytest.approx(value,
                                                                   rel=1e-12)
    sim = simulate(net, 0.75, policy, "a7", 200_000, seed=1)
    assert sim.censored == 0
    assert abs(value - sim.mean) <= 5 * sim.std_error


@pytest.mark.parametrize("q", [1.5, -0.5, math.nan])
def test_trust_line_rejects_a_trust_off_its_segment(tree, q):
    line = TrustLine(tree, 0.75, "A", Uniform(0.0), Uniform(1.0))
    with pytest.raises(ValidationError, match="segment"):
        line.values([0.5, q])
    with pytest.raises(ValidationError, match="segment"):
        line.derivatives(q)


def test_trust_line_end_derivatives_ignore_nodes_that_cannot_reach_home():
    # at q2 = 1 node 2 steps home over length 2; its other arc (length 3)
    # leads to node 1, which with q3 = q4 = 0 never takes its pointer and
    # is trapped among 0, 1, 3, 5 and 6. As on the exact path, that region
    # adds nothing to the one-sided derivatives, so only the step length
    # 2q + 3(1 - q) moves: T' = -1 and T'' = 0. Node 1 is eliminated before
    # the trap closes at node 3, so the trap must be known beforehand.
    net = build_network("4", [("t1", "1", "0", 1.5), ("t2", "2", "1", 3),
                              ("t3", "3", "1", 1), ("t4", "4", "2", 2),
                              ("t5", "5", "3", 1.5), ("t6", "6", "3", 3),
                              ("x0", "3", "0", 1)])
    line = TrustLine(net, 1.0, "2", ByDegree({2: 0.0, 3: 0.0, 4: 0.0}),
                     ByDegree({2: 1.0, 3: 0.0, 4: 0.0}))
    assert line.derivatives(1.0) == pytest.approx((2.0, -1.0, 0.0), abs=1e-12)
    assert list(line.values([1.0, 0.99])) == [2.0, math.inf]


@given(small_networks(), st.sampled_from([0.0, 0.3, 0.75, 1.0]),
       st.floats(min_value=0.2, max_value=0.8), st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_trust_line_matches_expected_time_on_random_networks(net, p, q, other):
    # along the top degree's coordinate, every other degree trusting `other`:
    # 0 or 1 can strand nodes, and the start among them
    degrees = sorted({net.degree(v) for v in classify(net).branch_nodes})
    assume(degrees)
    space = enumerate_direction_space(net, p=p)

    def at(t):
        return ByDegree({**dict.fromkeys(degrees, other), degrees[-1]: t})

    for start in net.nodes:
        line = TrustLine(net, p, start, at(0.0), at(1.0))
        exact = expected_time(net, p, at(q), start, space=space)
        assert line.values([q])[0] == pytest.approx(exact, rel=1e-12)
        assert line.derivatives(q)[0] == pytest.approx(exact, rel=1e-12)


def test_trust_line_makes_no_lapack_call(monkeypatch, tree):
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    space = enumerate_direction_space(tree, p=0.75)
    line = TrustLine(tree, 0.75, "A", Uniform(0.0), Uniform(1.0))
    line.values(_grid(EPS, 1 - EPS, 101))
    for q in (0.0, 0.3, 1.0):
        line.derivatives(q)
    assert calls == []
    expected_time(tree, 0.75, Uniform(0.3), "A", space=space)
    assert calls  # the wrapper does see the exact path's solves


@pytest.mark.parametrize("net, start, low, high", [
    (grid3x3(), "r2c2", Uniform(0.0), Uniform(1.0)),
    (build_network("a0", CACTUS3), "a3", ByDegree({2: 0.0, 4: 0.5}),
     ByDegree({2: 1.0, 4: 0.5})),
], ids=["grid3x3-uniform", "cactus3-degree2"])
def test_trust_line_results_do_not_depend_on_the_state_budget(
        monkeypatch, net, start, low, high):
    line = TrustLine(net, 0.75, start, low, high)

    def results():
        return (line.values(_grid(EPS, 1 - EPS, 101)).tolist(),
                line.values([0.0, 1.0]).tolist(),
                [line.derivatives(q) for q in (0.0, 0.3, 0.7, 1.0)])

    whole = results()
    monkeypatch.setattr(solver, "STATE_BUDGET", 2**6)
    assert results() == whole


def test_trust_line_trusts_do_not_interact():
    # calls of interior trusts only, as the searches make them: a trust of
    # 0 or 1 on a coordinate line splits nodes for its whole call, which
    # can move the other values' last bits, so _search scores those apart
    grid = _grid(EPS, 1 - EPS, 101)
    for name, start, line, _ in trust_lines(0.75):
        alone = [line.values([q])[0] for q in grid]
        assert alone == line.values(grid).tolist(), (name, start)


class StubLine:
    """A stand-in for a TrustLine whose expected time is exp(q) - c * q,
    least at q = log(c)."""

    def __init__(self, c):
        self.c, self.seen = c, []

    def values(self, trusts):
        return [math.exp(q) - self.c * q for q in trusts]

    def derivatives(self, q):
        self.seen.append(q)
        return math.exp(q) - self.c * q, math.exp(q) - self.c, math.exp(q)


@pytest.mark.parametrize("least", [math.log(2.0), 0.103])
def test_search_closes_its_bracket_on_an_interior_minimum(least):
    # at 0.103 the grid end 0.1 wins and its derivative points inward
    line = StubLine(math.exp(least))
    q, diag = _search(line, 0.1, 0.9, 101)
    assert q == pytest.approx(least, abs=1e-12)
    assert 0.0 < diag.residual <= 1e-10
    assert diag.iterations == len(line.seen) <= 6


@pytest.mark.parametrize("c, end", [(1.0, 0.1), (3.0, 0.9)])
def test_search_keeps_an_end_whose_derivative_points_outward(c, end):
    line = StubLine(c)
    q, diag = _search(line, 0.1, 0.9, 101)
    assert q == end
    assert line.seen == [end]  # no trust closer to the end is evaluated
    assert (diag.iterations, diag.residual) == (1, 0.0)


def test_grid_winner_ties_go_to_the_smaller_trust():
    # values within 1e-12 of the least tie; the first of them wins
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _grid_winner(grid, [3.0, 1.0 + 5e-13, 2.0, 1.0, 1.0]) == 1
    assert _grid_winner(grid, [3.0, 1.0 + 2e-12, 2.0, 1.0, 1.0]) == 3


def test_uniform_search_reports_its_final_bracket(tree):
    res = optimize_uniform(tree, 0.75, "A")
    assert EPS < res.policy.q < 1 - EPS
    assert res.diagnostics.residual <= 1e-8


def test_uniform_triangle(triangle):
    res_a = optimize_uniform(triangle, 0.75, "A")
    res_b = optimize_uniform(triangle, 0.75, "B")
    assert res_a.policy.q == pytest.approx(0.68, abs=1e-2)
    assert res_b.policy.q == pytest.approx(0.72, abs=1e-2)
    assert res_a.value == pytest.approx(3.2510, abs=1e-3)


def test_uniform_tree(tree):
    res_a = optimize_uniform(tree, 0.75, "A")
    res_b = optimize_uniform(tree, 0.75, "B")
    assert res_a.policy.q == pytest.approx(0.590, abs=5e-3)
    assert res_a.value == pytest.approx(8.057, abs=1e-2)
    assert res_b.policy.q == pytest.approx(0.573, abs=5e-3)
    assert res_b.value == pytest.approx(5.283, abs=1e-2)


def test_uniform_c3(c3):
    res = optimize_uniform(c3, 0.75, "A")
    assert res.policy.q == pytest.approx(0.78676, abs=5e-4)


def test_uniform_optimal_trust_is_start_independent_on_lines(line5):
    expected = star_optimal_trust(2, 0.75)
    for start in "01234":
        res = optimize_uniform(line5, 0.75, start)
        assert res.policy.q == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 0.9])
def test_line7_uniform_optimum_is_the_line_closed_form(line7, p):
    # the unit line's optimal trust is the degree-2 star's from every start,
    # and its time the sum of the per-arc increments
    for j in range(7):
        res = optimize_uniform(line7, p, str(j))
        q = res.policy.q
        assert q == pytest.approx(star_optimal_trust(2, p), abs=1e-6)
        assert res.value == pytest.approx(
            sum(line_increment([1.0] * 8, m, p, q) for m in range(j, 7)),
            rel=1e-12)
        if (j, p) == (0, 0.75):
            assert res.value == pytest.approx(36.2557644266, rel=1e-11)


def test_uniform_interior_on_fixtures():
    for name in ("triangle", "spike", "tree", "c3", "c4"):
        res = optimize_uniform(fx.fixture(name), 0.75, "A")
        assert EPS < res.policy.q < 1 - EPS
        assert math.isfinite(res.value)
        assert res.diagnostics.grid_points >= 3


def test_counting_spike(spike):
    res = optimize_counting(spike, 0.75, "X")
    assert res.policy.q_by_degree[2] == 1.0
    assert res.policy.q_by_degree[3] == pytest.approx(0.55051, abs=5e-4)
    assert res.value == pytest.approx(5.056, abs=2e-3)


def test_counting_settles_on_a_flat_coordinate(spike):
    # at p = 1/2 the pointer at A is either parallel arc, so q_2 is idle
    res = optimize_counting(spike, 0.5, "A")
    assert res.policy.q_by_degree[3] == pytest.approx(
        star_optimal_trust(3, 0.5), abs=1e-6)
    assert res.value == pytest.approx(
        expected_time(spike, 0.5, ByDegree({2: 0.5, 3: star_optimal_trust(3, 0.5)}),
                      "A"), rel=1e-12)


def test_counting_tree_reproduces_closed_form(tree):
    res = optimize_counting(tree, 0.75, "A")
    policy, profile = tree_solve_counting(tree, 0.75)
    for k, q in policy.q_by_degree.items():
        assert res.policy.q_by_degree[k] == pytest.approx(q, abs=1e-4)
    assert res.value == pytest.approx(profile["A"], rel=1e-6)


def test_counting_star_single_coordinate():
    net = star_network(3, 1.0, [1.0, 2.0])
    res = optimize_counting(net, 0.75, "I")
    assert res.policy.q_by_degree[3] == pytest.approx(
        star_optimal_trust(3, 0.75), abs=1e-4
    )


def test_too_many_branch_degrees_rejected():
    arcs = [("p1", "H", "v2", 1), ("p2", "v2", "v3", 1),
            ("p3", "v3", "v4", 1), ("p4", "v4", "v5", 1),
            ("p5", "v5", "v6", 1)]
    hub_extra = {"v3": 1, "v4": 2, "v5": 3, "v6": 5}
    for hub, extra in hub_extra.items():
        for i in range(extra):
            arcs.append((f"{hub}l{i}", hub, f"{hub}x{i}", 1))
    net = build_network("H", arcs)
    with pytest.raises(ValidationError, match="degrees"):
        optimize_counting(net, 0.75, "v6")


def test_cap_propagates(triangle):
    with pytest.raises(CapExceeded):
        optimize_uniform(triangle, 0.75, "A", cap=2)


def test_quartic_first_order_conditions(tree):
    def quartic_a(p, q):
        return ((3 - 5 * p) * q**4 + (23 * p - 12 * p * p - 7) * q**3
                + (15 * p * p - 15 * p) * q**2 + (5 * p - 9 * p * p) * q
                + 2 * p * p)

    def quartic_b(p, q):
        return ((1 - p) * q**4 + (15 * p - 12 * p * p - 5) * q**3
                + (15 * p * p - 9 * p) * q**2 + (3 * p - 9 * p * p) * q
                + 2 * p * p)

    for p in (0.25, 0.5, 0.75):
        qa = optimize_uniform(tree, p, "A").policy.q
        qb = optimize_uniform(tree, p, "B").policy.q
        assert abs(quartic_a(p, qa)) < 1e-6
        assert abs(quartic_b(p, qb)) < 1e-6


def test_curve_tree_start_ordering(tree):
    grid = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    from_a = trust_curve(tree, grid, "A")
    from_b = trust_curve(tree, grid, "B")
    for (p1, ra), (p2, rb) in zip(from_a, from_b):
        assert p1 == p2
        assert ra.policy.q > rb.policy.q


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 0.9])
def test_tree_degree_trusts_bracket_the_uniform_trusts(tree, p):
    # the searcher who counts exits trusts the degree-2 pointer more, and
    # the degree-3 pointer less, than the uniform searcher from either start
    q_a = optimize_uniform(tree, p, "A").policy.q
    q_b = optimize_uniform(tree, p, "B").policy.q
    counting = optimize_counting(tree, p, "A").policy.q_by_degree
    assert counting[3] < q_b < q_a < counting[2]


def test_curve_c4_depends_on_start(c4):
    res_a = optimize_uniform(c4, 0.75, "A")
    res_c = optimize_uniform(c4, 0.75, "C")
    assert abs(res_a.policy.q - res_c.policy.q) > 1e-3


def test_curve_star_matches_closed_form():
    net = star_network(3, 1.0, [1.0, 1.0])
    grid = [0.3, 0.5, 0.7, 0.9]
    rows = trust_curve(net, grid, "I", mode="counting")
    for p, res in rows:
        assert res.policy.q_by_degree[3] == pytest.approx(
            star_optimal_trust(3, p), abs=1e-4
        )


def test_curve_validates_grid(tree):
    with pytest.raises(ValidationError):
        trust_curve(tree, [0.5, 0.4], "A")
    with pytest.raises(ValidationError):
        trust_curve(tree, [0.0, 0.5], "A")
    with pytest.raises(ValidationError):
        trust_curve(tree, [0.3, 0.6], "A", mode="bogus")


def test_optimal_value_nonincreasing_in_reliability():
    grid = [0.55, 0.66, 0.77, 0.88, 0.99]
    for name in ("triangle", "spike", "tree", "c3", "c4"):
        rows = trust_curve(fx.fixture(name), grid, "A")
        values = [res.value for _, res in rows]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-7


def test_counting_policy_type(spike):
    res = optimize_counting(spike, 0.75, "X")
    assert isinstance(res.policy, ByDegree)
    assert isinstance(optimize_uniform(spike, 0.75, "X").policy, Uniform)
