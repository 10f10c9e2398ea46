"""Direction-vector space: per-node distributions, enumeration, sampling.

A direction is a row of pointer slots; these tests read the slots back as
the arc ids they point along."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from satnav import (
    CapExceeded,
    classify,
    enumerate_direction_space,
    sample_pointer_slots,
    shortest_paths,
)
from satnav import fixtures as fx
from satnav import pointers
from satnav.pointers import pointer_table
from conftest import small_networks


def pointer_distribution(net, spd, v, p):
    """Row `v` of the pointer table, keyed by the arc id of each slot."""
    row = pointer_table(net, spd, p)[net.nodes.index(v)]
    return {a.arc_id: mu for a, mu in zip(net.incident(v), row.tolist())}


def space_pointers(net, space):
    """The pointer arc per branch node of every direction of `space`."""
    branch = sorted(classify(net).branch_nodes)
    return [{v: net.incident(v)[s].arc_id for v, s in zip(branch, row)}
            for row in space.slots.tolist()]


def test_triangle_node_distribution(triangle):
    spd = shortest_paths(triangle)
    dist = pointer_distribution(triangle, spd, "A", 0.75)
    assert dist == {"AB": 0.75, "AC": 0.25}


def test_c4_antipodal_ignores_p(c4):
    spd = shortest_paths(c4)
    for p in (0.1, 0.5, 0.99):
        dist = pointer_distribution(c4, spd, "C", p)
        assert dist == {"AC": 0.5, "CB": 0.5}


def test_degree_three_split(spike):
    spd = shortest_paths(spike)
    dist = pointer_distribution(spike, spd, "X", 0.75)
    assert dist["XH"] == pytest.approx(0.75)
    assert dist["AX1"] == pytest.approx(0.125)
    assert dist["AX2"] == pytest.approx(0.125)


def test_triangle_enumeration_weights(triangle):
    p = 0.75
    space = enumerate_direction_space(triangle, p=p)
    assert len(space.entries) == 4
    weights = sorted(space.weights.tolist())
    assert weights == pytest.approx(
        sorted([p * p, p * (1 - p), (1 - p) * p, (1 - p) ** 2])
    )
    all_correct = [w for pointer, w in zip(space_pointers(triangle, space),
                                           space.weights.tolist())
                   if pointer == {"A": "AB", "B": "BC"}]
    assert all_correct == [pytest.approx(p * p)]


def test_spike_has_six_vectors(spike):
    assert len(enumerate_direction_space(spike, p=0.75).entries) == 6


def test_tree_has_six_vectors(tree):
    space = enumerate_direction_space(tree, p=0.75)
    assert space.slots.shape == (6, 2)
    for pointer in space_pointers(tree, space):
        assert set(pointer) == {"A", "B"}


def test_enumeration_order_is_product_of_sorted_arc_ids(spike):
    space = enumerate_direction_space(spike, p=0.6)
    branch = sorted(classify(spike).branch_nodes)
    arc_ids = [sorted(a.arc_id for a in spike.incident(v)) for v in branch]
    want = [dict(zip(branch, combo)) for combo in itertools.product(*arc_ids)]
    assert space_pointers(spike, space) == want


def test_cap_exceeded(triangle):
    with pytest.raises(CapExceeded):
        enumerate_direction_space(triangle, p=0.5, cap=3)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_weights_sum_to_one_on_fixtures(name, p):
    space = enumerate_direction_space(fx.fixture(name), p=p)
    assert abs(sum(space.weights.tolist()) - 1.0) < 1e-12


@given(small_networks(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_weights_sum_to_one_generated(net, p):
    space = enumerate_direction_space(net, p=p)
    assert abs(sum(space.weights.tolist()) - 1.0) < 1e-12


def test_all_correct_weight_is_product(tree):
    p = 0.6
    spd = shortest_paths(tree)
    space = enumerate_direction_space(tree, p=p)
    correct = {v: next(iter(arcs)) for v, arcs in spd.correct_arcs.items()}
    weight = [w for pointer, w in zip(space_pointers(tree, space),
                                      space.weights.tolist())
              if pointer == correct]
    # both branch nodes have a unique correct arc, so the product is p * p
    assert weight == [pytest.approx(p * p, abs=1e-15)]
    expected = math.prod(
        pointer_distribution(tree, spd, v, p)[a] for v, a in correct.items()
    )
    assert weight == [pytest.approx(expected)]


def drawn_pointers(net, ptr):
    """The pointer arc per branch node of every drawn row of slots."""
    branch = sorted(classify(net).branch_nodes)
    column = {v: net.nodes.index(v) for v in branch}
    return [{v: net.incident(v)[row[column[v]]].arc_id for v in branch}
            for row in ptr.tolist()]


def test_sampling_p_one_always_correct(triangle):
    spd = shortest_paths(triangle)
    rng = np.random.default_rng(1)
    ptr = sample_pointer_slots(triangle, spd, 1.0, 50, rng)
    assert ptr.shape == (50, len(triangle.nodes))
    assert (ptr[:, triangle.nodes.index("C")] == 0).all()  # home: no pointer
    for pointer in drawn_pointers(triangle, ptr):
        assert pointer == {"A": "AB", "B": "BC"}


def test_sampling_p_zero_always_wrong(triangle):
    spd = shortest_paths(triangle)
    rng = np.random.default_rng(2)
    ptr = sample_pointer_slots(triangle, spd, 0.0, 50, rng)
    for pointer in drawn_pointers(triangle, ptr):
        assert pointer == {"A": "AC", "B": "AB"}


def test_sampling_matches_enumeration(spike):
    p = 0.65
    n = 100_000
    spd = shortest_paths(spike)
    space = enumerate_direction_space(spike, p=p)
    keys = [tuple(sorted(pointer.items()))
            for pointer in space_pointers(spike, space)]
    expected = space.weights * n
    counts = dict.fromkeys(keys, 0)
    rng = np.random.default_rng(20240817)
    for pointer in drawn_pointers(spike,
                                  sample_pointer_slots(spike, spd, p, n, rng)):
        counts[tuple(sorted(pointer.items()))] += 1
    observed = np.array([counts[k] for k in keys])
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 1e-3


@pytest.mark.parametrize("name", ["spike", "tree", "c4"])
def test_sampled_slots_do_not_depend_on_the_chunk(monkeypatch, name):
    # a node's uniforms drawn a chunk at a time are one draw of all of them;
    # test_sampled_slots_are_narrow_and_unchanged pins the default chunk
    # over more draws than it holds
    net = fx.fixture(name)
    spd = shortest_paths(net)
    want = sample_pointer_slots(net, spd, 0.65, 1000, np.random.default_rng(5))
    for chunk in (1, 3):
        monkeypatch.setattr(pointers, "WALK_CHUNK", chunk)
        got = sample_pointer_slots(net, spd, 0.65, 1000,
                                   np.random.default_rng(5))
        assert (got == want).all(), chunk


def test_sampled_slots_are_narrow_and_unchanged(spike):
    # the draw of test_sampling_matches_enumeration, slot for slot
    spd = shortest_paths(spike)
    rng = np.random.default_rng(20240817)
    ptr = sample_pointer_slots(spike, spd, 0.65, 100_000, rng)
    assert ptr.dtype == np.uint8
    assert ptr[:8].tolist() == [[0, 0, 2], [0, 0, 2], [0, 0, 0], [0, 0, 2],
                                [1, 0, 2], [1, 0, 0], [1, 0, 2], [1, 0, 2]]
    digest = hashlib.sha256(ptr.astype(np.int64).tobytes()).hexdigest()
    assert digest == ("e9500c2d0b0760d329b4ad8ecfa4acad"
                      "dba1f0435b345aea12cca0214a1913a2")
