"""Trust optimization: scalar, coordinate descent, and reliability curves."""

import math

import pytest

from satnav import (
    ByDegree,
    CapExceeded,
    Uniform,
    ValidationError,
    build_network,
    enumerate_direction_space,
    expected_time,
    optimize_counting,
    optimize_uniform,
    star_optimal_trust,
    tree_solve_counting,
    trust_curve,
)
from conftest import star_network
from satnav import fixtures as fx
from satnav.network import classify
from satnav.optimize import EPS, _grid, _grid_winner, _search
from satnav.solver import TrustLine


def trust_lines(p):
    """(name, start, line) for every fixture and non-home start, under
    Uniform and under the top branch degree's ByDegree coordinate."""
    for name in sorted(fx.FIXTURES):
        net = fx.fixture(name)
        space = enumerate_direction_space(net, p=p)
        degrees = sorted({net.degree(v) for v in classify(net).branch_nodes})
        coordinate = lambda q, k=degrees[-1], others=dict.fromkeys(degrees, 0.7): (
            ByDegree({**others, k: q}))
        for start in net.nodes:
            if start != net.home:
                for policy_at in (Uniform, coordinate):
                    yield name, start, TrustLine(net, space, start, policy_at)


def test_trust_line_derivatives_match_central_differences():
    h = 1e-5
    for name, start, line in trust_lines(0.75):
        for q in (0.3, 0.6):
            value, slope, curvature = line.derivatives(q)
            below, at, above = line.values([q - h, q, q + h])
            assert value == pytest.approx(at, rel=1e-13), (name, start, q)
            assert slope == pytest.approx(
                (above - below) / (2 * h), rel=1e-6), (name, start, q)
            assert curvature == pytest.approx(
                (above - 2 * at + below) / h**2, rel=1e-3), (name, start, q)


def test_trust_line_values_match_expected_time():
    grid = _grid(EPS, 1 - EPS, 101)
    for name, start, line in trust_lines(0.75):
        if name == "line7":  # its clamp trusts defeat the dense solve
            continue
        for q, value in zip(grid, line.values(grid)):
            exact = expected_time(line.net, 0.75, line.policy_at(q), start,
                                  space=line.space)
            assert value == pytest.approx(exact, rel=1e-13), (name, start, q)


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
