"""Shared test networks, generators and the exact-rational oracle."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from satnav import build_network
from satnav import fixtures as fx
from satnav.network import classify, shortest_paths


@pytest.fixture
def triangle():
    return fx.triangle()


@pytest.fixture
def spike():
    return fx.spike()


@pytest.fixture
def tree():
    return fx.tree()


@pytest.fixture
def line5():
    return fx.line(5)


@pytest.fixture
def line7():
    return fx.line(7)


@pytest.fixture
def c3():
    return fx.cycle(3)


@pytest.fixture
def c4():
    return fx.cycle(4)


def star_network(n, c, rays):
    """Star with the home leaf at distance c and n-1 other rays."""
    arcs = [("h", "I", "H", c)]
    arcs += [(f"r{i}", "I", f"L{i}", r) for i, r in enumerate(rays)]
    return build_network("H", arcs)


def line_network(lengths, home=None):
    """Line 0-1-...-len(lengths) with the given arc lengths."""
    arcs = [(f"a{i}", str(i), str(i + 1), w) for i, w in enumerate(lengths)]
    return build_network(str(len(lengths)) if home is None else home, arcs)


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


# a chain of three triangles a{k-1}-x{k}-a{k}, home a0; a1 and a2 have degree 4
CACTUS3 = [("t1a", "a0", "x1", 1), ("t1b", "x1", "a1", 2), ("t1c", "a0", "a1", 3),
           ("t2a", "a1", "x2", 2), ("t2b", "x2", "a2", 1), ("t2c", "a1", "a2", 1),
           ("t3a", "a2", "x3", 3), ("t3b", "x3", "a3", 1), ("t3c", "a2", "a3", 2)]


def cactus_arcs(triangles, seed):
    """A chain of triangles a{k-1}-x{k}-a{k}, home a0, each arc length drawn
    from 1..3 by random.Random(seed): 2**(3 * triangles - 1) directions."""
    rng = random.Random(seed)
    return [(f"t{k}{side}", u, v, rng.randint(1, 3))
            for k in range(1, triangles + 1)
            for side, u, v in (("a", f"a{k - 1}", f"x{k}"), ("b", f"x{k}", f"a{k}"),
                               ("c", f"a{k - 1}", f"a{k}"))]


def quiet_network(home, arcs):
    """build_network without the cut-home warning (generators hit it a lot)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_network(home, arcs)


@st.composite
def small_networks(draw, max_nodes=7, max_extra_arcs=3):
    """Random connected multigraph: a spanning tree plus a few extra arcs."""
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    length = st.floats(min_value=0.5, max_value=3.0)
    arcs = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        arcs.append((f"t{i}", str(i), str(parent), draw(length)))
    n_extra = draw(st.integers(min_value=0, max_value=max_extra_arcs))
    for j in range(n_extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        arcs.append((f"x{j}", str(u), str(v), draw(length)))
    home = str(draw(st.integers(min_value=0, max_value=n - 1)))
    return quiet_network(home, arcs)


@st.composite
def small_trees(draw, max_nodes=7):
    """Random tree with random arc lengths."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    length = st.floats(min_value=0.5, max_value=3.0)
    arcs = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        arcs.append((f"t{i}", str(i), str(parent), draw(length)))
    home = str(draw(st.integers(min_value=0, max_value=n - 1)))
    return quiet_network(home, arcs)


def rational_expected_profile(net, p, policy):
    """Expected time to home from every non-home node, averaged over every
    direction, in exact rationals; every node must reach home.

    The step chances are built from the exact trusts, q on the pointer and
    (1 - q)/(deg - 1) on each other arc. Rationals of a float I - P would
    inherit its rounding: the rounded 1 - q already leaks a near trap's
    escape mass.
    """
    p = Fraction(p)
    correct = shortest_paths(net).correct_arcs
    branch = sorted(classify(net).branch_nodes, key=net.nodes.index)
    nonhome = [v for v in net.nodes if v != net.home]
    col = {v: k for k, v in enumerate(nonhome)}
    mus = []
    for v in branch:
        good = [a.arc_id in correct[v] for a in net.incident(v)]
        deg, n_good = len(good), sum(good)
        mus.append([Fraction(1, deg) if n_good == deg else
                    p / n_good if g else (1 - p) / (deg - n_good) for g in good])
    total = [Fraction(0)] * len(nonhome)
    for slots in itertools.product(*(range(len(mu)) for mu in mus)):
        weight = Fraction(1)
        for mu, s in zip(mus, slots):
            weight *= mu[s]
        if weight == 0:
            continue
        pointer = dict(zip(branch, slots))
        # rows of [I - P | expected step length], solved by Gauss-Jordan
        rows = []
        for v in nonhome:
            row = [Fraction(0)] * (len(nonhome) + 1)
            row[col[v]] += 1
            arcs = net.incident(v)
            q = Fraction(policy.trust_at(len(arcs))) if v in pointer else None
            for s, a in enumerate(arcs):
                step = (Fraction(1) if q is None else q if s == pointer[v]
                        else (1 - q) / (len(arcs) - 1))
                row[-1] += step * Fraction(a.length)
                if a.other(v) != net.home:
                    row[col[a.other(v)]] -= step
            rows.append(row)
        for c in range(len(rows)):
            pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(len(rows)):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        total = [t + weight * row[-1] for t, row in zip(total, rows)]
    return dict(zip(nonhome, total))
