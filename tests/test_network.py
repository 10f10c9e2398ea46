"""Network model: validation, shortest paths, classification, bridges."""

import math

import pytest
from hypothesis import given, settings

from satnav import (
    ValidationError,
    build_network,
    classify,
    find_bridges_and_cuts,
    network_to_text,
    parse_network_text,
    shortest_paths,
)
from satnav.network import blocks
from conftest import small_networks, star_network


def test_triangle_builds(triangle):
    assert len(triangle.nodes) == 3
    assert len(triangle.arcs) == 3
    assert triangle.home == "C"


def test_single_arc_has_no_branch_nodes():
    net = build_network("H", [("IH", "I", "H", 5)])
    assert classify(net).branch_nodes == frozenset()
    assert shortest_paths(net).distance["I"] == 5


def test_zero_length_arc_rejected():
    with pytest.raises(ValidationError, match="IH"):
        build_network("H", [("IH", "I", "H", 0)])


def test_negative_length_rejected():
    with pytest.raises(ValidationError):
        build_network("H", [("IH", "I", "H", -2)])


@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
def test_non_finite_length_rejected(length):
    with pytest.raises(ValidationError, match="finite and positive"):
        build_network("H", [("IH", "I", "H", length)])


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        build_network("H", [("HH", "H", "H", 1), ("IH", "I", "H", 1)])


def test_duplicate_arc_id_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        build_network("H", [("e", "I", "H", 1), ("e", "I", "H", 2)])


def test_disconnected_rejected():
    with pytest.raises(ValidationError, match="disconnected"):
        build_network("H", [("a", "A", "H", 1), ("b", "X", "Y", 1)])


def test_isolated_home_rejected():
    with pytest.raises(ValidationError, match="home"):
        build_network("Z", [("a", "A", "H", 1)])


def test_parallel_arcs_allowed(spike):
    assert spike.degree("X") == 3
    assert spike.degree("A") == 2


def test_cut_home_warns():
    with pytest.warns(UserWarning, match="cut node"):
        build_network("H", [("a", "A", "H", 1), ("b", "H", "B", 1)])


def test_triangle_shortest_paths(triangle):
    spd = shortest_paths(triangle)
    assert spd.distance["A"] == pytest.approx(2)
    assert spd.distance["B"] == pytest.approx(1)
    assert spd.distance["C"] == 0
    assert spd.correct_arcs["A"] == {"AB"}
    assert spd.correct_arcs["B"] == {"BC"}


def test_c4_antipodal_tie(c4):
    spd = shortest_paths(c4)
    assert spd.correct_arcs["C"] == {"AC", "CB"}
    assert spd.correct_arcs["A"] == {"HA"}


def test_tree_classification(tree):
    cls = classify(tree)
    assert cls.branch_nodes == {"A", "B"}
    assert cls.leaf_nodes == {"1", "2"}
    assert cls.degree["A"] == 2
    assert cls.degree["B"] == 3


def test_star_classification():
    net = star_network(4, 1, [1, 2, 3])
    cls = classify(net)
    assert cls.branch_nodes == {"I"}
    assert cls.degree["I"] == 4


def test_spike_bridges(spike):
    bridges, cuts = find_bridges_and_cuts(spike)
    assert bridges == {"XH"}
    assert cuts == {"X"}


def test_tree_all_arcs_are_bridges(tree):
    bridges, cuts = find_bridges_and_cuts(tree)
    assert bridges == {a.arc_id for a in tree.arcs}
    assert cuts == {"A", "B"}


def test_c4_has_no_bridges(c4):
    bridges, cuts = find_bridges_and_cuts(c4)
    assert bridges == frozenset()
    assert cuts == frozenset()


@given(small_networks())
@settings(max_examples=60, deadline=None)
def test_distance_triangle_inequality(net):
    spd = shortest_paths(net)
    for a in net.arcs:
        assert abs(spd.distance[a.u] - spd.distance[a.v]) <= a.length + 1e-9


def _brute_force_distance(net, start):
    """Min path length over every simple path from start to home."""
    best = math.inf
    stack = [(start, 0.0, {start})]
    while stack:
        v, acc, seen = stack.pop()
        if acc >= best:
            continue
        if v == net.home:
            best = acc
            continue
        for a in net.incident(v):
            w = a.other(v)
            if w not in seen:
                stack.append((w, acc + a.length, seen | {w}))
    return best


@given(small_networks())
@settings(max_examples=40, deadline=None)
def test_correct_arcs_match_brute_force(net):
    spd = shortest_paths(net)
    for v in classify(net).branch_nodes:
        dist_v = _brute_force_distance(net, v)
        assert spd.distance[v] == pytest.approx(dist_v, abs=1e-9)
        brute = {
            a.arc_id
            for a in net.incident(v)
            if abs(a.length + _brute_force_distance(net, a.other(v)) - dist_v)
            <= 1e-9
        }
        assert spd.correct_arcs[v] == brute


def _connected_without(net, arc_id):
    nodes = set(net.nodes)
    start = next(iter(nodes))
    reached = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for a in net.incident(v):
            if a.arc_id == arc_id:
                continue
            w = a.other(v)
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached == nodes


@given(small_networks())
@settings(max_examples=40, deadline=None)
def test_bridges_are_exactly_disconnecting_arcs(net):
    bridges, _ = find_bridges_and_cuts(net)
    for a in net.arcs:
        assert (a.arc_id in bridges) == (not _connected_without(net, a.arc_id))


def _spans(arcs):
    """Whether `arcs` connect all of their end nodes."""
    nodes = {v for a in arcs for v in (a.u, a.v)}
    reached, frontier = set(), list(nodes)[:1]
    while frontier:
        v = frontier.pop()
        if v not in reached:
            reached.add(v)
            frontier += [a.v if a.u == v else a.u for a in arcs if v in (a.u, a.v)]
    return reached == nodes


@given(small_networks())
@settings(max_examples=40, deadline=None)
def test_blocks_are_two_connected_and_meet_at_the_cut_nodes(net):
    parts = blocks(net)
    assert sorted(a.arc_id for b in parts for a in b) == \
        sorted(a.arc_id for a in net.arcs)
    for block in parts:  # no single node disconnects a block
        ends = {v for a in block for v in (a.u, a.v)}
        assert all(_spans([a for a in block if v not in (a.u, a.v)])
                   for v in ends if len(block) > 1 and len(ends) > 2)
    _, cuts = find_bridges_and_cuts(net)
    for v in net.nodes:
        rest = [a for a in net.arcs if v not in (a.u, a.v)]
        kept = {w for a in rest for w in (a.u, a.v)}
        disconnects = kept != set(net.nodes) - {v} or not _spans(rest)
        assert (v in cuts) == disconnects
    assert blocks(net) is parts  # kept on the network


def test_text_round_trip(spike):
    text = network_to_text(spike)
    again = parse_network_text(text)
    assert again.home == spike.home
    assert sorted((a.arc_id, a.u, a.v, a.length) for a in again.arcs) == sorted(
        (a.arc_id, a.u, a.v, a.length) for a in spike.arcs
    )


def test_text_format_comments_and_blanks():
    net = parse_network_text(
        "# demo network\n\nhome H\narc e1 A H 2.5\n# tail comment\n"
    )
    assert net.home == "H"
    assert net.arc("e1").length == 2.5


def test_json_format():
    net = parse_network_text(
        '{"home": "H", "arcs": [{"id": "e1", "u": "A", "v": "H", '
        '"length": 2.5}]}'
    )
    assert net.home == "H"
    assert net.arc("e1").length == 2.5


@pytest.mark.parametrize(
    "text",
    [
        "arc e1 A H 1\n",                      # missing home
        "home H\nhome H\narc e A H 1\n",       # duplicate home
        "home H\narc e A H one\n",             # bad length
        "home H\nedge e A H 1\n",              # unknown directive
        "home H\narc e A H\n",                 # missing field
        '{"arcs": []}',                        # JSON missing home
        '{"home": "H", "arcs": [{"id": "e"}]}',  # JSON missing arc fields
        "home H\narc e A H nan\n",             # non-finite lengths
        "home H\narc e A H inf\n",
        '{"home": "H", "arcs": [{"id": "e", "u": "A", "v": "H", "length": NaN}]}',
        '{"home": "H", "arcs": [{"id": "e", "u": "A", "v": "H", '
        '"length": Infinity}]}',
    ],
)
def test_bad_descriptions_rejected(text):
    with pytest.raises(ValidationError):
        parse_network_text(text)


def test_retargeted_keeps_structure(tree):
    moved = tree.retargeted("B")
    assert moved.home == "B"
    assert classify(moved).branch_nodes == {"A"}
    assert tree.retargeted("H") is tree


def test_retargeted_unknown_node(tree):
    with pytest.raises(ValidationError):
        tree.retargeted("nope")
