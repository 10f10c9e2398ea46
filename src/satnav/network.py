"""Multigraph network model: validation, shortest paths, node/arc classification.

A network is an undirected multigraph with positive arc lengths and a
distinguished home node. Parallel arcs are allowed (and needed: the
circle-with-spike fixture has two arcs between the same pair of nodes);
self-loops are rejected. Networks and all derived data are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ValidationError

# Absolute tolerance for "this arc lies on a shortest path" membership.
# Arc lengths are user inputs of modest magnitude, so absolute is fine.
DISTANCE_TOL = 1e-9


@dataclass(frozen=True)
class Arc:
    """One undirected arc. `u`/`v` order carries no meaning."""

    arc_id: str
    u: str
    v: str
    length: float

    def other(self, node: str) -> str:
        """The endpoint opposite `node`."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node!r} is not an endpoint of arc {self.arc_id!r}")


class Network:
    """Validated, immutable multigraph with a home node.

    Raises ValidationError on self-loops, lengths that are not finite and
    positive, duplicate arc ids, disconnected graphs, or a home node with no
    incident arc.
    A home that is a cut node is legal but unusual, so it draws a warning.
    """

    def __init__(self, arcs: Iterable[Arc], home: str, _warn_cut_home: bool = True):
        arcs = tuple(arcs)
        seen_ids = set()
        for a in arcs:
            if not (math.isfinite(a.length) and a.length > 0):
                raise ValidationError(
                    f"arc {a.arc_id!r} has length {a.length}; lengths must be "
                    "finite and positive"
                )
            if a.u == a.v:
                raise ValidationError(f"arc {a.arc_id!r} is a self-loop at {a.u!r}")
            if a.arc_id in seen_ids:
                raise ValidationError(f"duplicate arc id {a.arc_id!r}")
            seen_ids.add(a.arc_id)

        incident: dict[str, list[Arc]] = {}
        for a in arcs:
            incident.setdefault(a.u, []).append(a)
            incident.setdefault(a.v, []).append(a)
        if home not in incident:
            raise ValidationError(f"home node {home!r} has no incident arc")

        self.arcs: tuple[Arc, ...] = arcs
        self.home: str = home
        self.nodes: tuple[str, ...] = tuple(sorted(incident))
        self._incident: dict[str, tuple[Arc, ...]] = {
            v: tuple(lst) for v, lst in incident.items()
        }
        self._arc_by_id: dict[str, Arc] = {a.arc_id: a for a in arcs}
        # arrays built on first use by satnav.pointers.compile_network
        self._compiled = None
        self._blocks = None  # filled on first use by blocks()

        # connectivity
        reached = {home}
        stack = [home]
        while stack:
            v = stack.pop()
            for a in self._incident[v]:
                w = a.other(v)
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(self.nodes):
            missing = sorted(set(self.nodes) - reached)
            raise ValidationError(f"network is disconnected: {missing} unreachable")

        if _warn_cut_home:
            _, cuts = find_bridges_and_cuts(self)
            if home in cuts:
                warnings.warn(
                    f"home node {home!r} is a cut node; expected times from the "
                    "far side decompose through it",
                    stacklevel=3,
                )

    def incident(self, v: str) -> tuple[Arc, ...]:
        return self._incident[v]

    def degree(self, v: str) -> int:
        """Node degree, counting parallel arcs separately."""
        return len(self._incident[v])

    def arc(self, arc_id: str) -> Arc:
        return self._arc_by_id[arc_id]

    def retargeted(self, new_home: str) -> "Network":
        """Same multigraph with the home moved to `new_home`.

        Used for travel times between arbitrary node pairs: the journey to
        an intermediate target is the journey on the network that has that
        target as its home.
        """
        if new_home not in self._incident:
            raise ValidationError(f"unknown node {new_home!r}")
        if new_home == self.home:
            return self
        return Network(self.arcs, new_home, _warn_cut_home=False)

    def __repr__(self) -> str:
        return (
            f"Network({len(self.nodes)} nodes, {len(self.arcs)} arcs, "
            f"home={self.home!r})"
        )


@dataclass(frozen=True)
class NodeClassification:
    """Branch nodes (degree >= 2, home excluded), leaf nodes, and degrees."""

    branch_nodes: frozenset[str]
    leaf_nodes: frozenset[str]
    degree: Mapping[str, int]


@dataclass(frozen=True)
class ShortestPathData:
    """Distances to home and, per branch node, the incident arcs that lie
    on a shortest path to home (several when shortest paths tie)."""

    distance: Mapping[str, float]
    correct_arcs: Mapping[str, frozenset[str]]


def build_network(home: str, arcs: Iterable[tuple]) -> Network:
    """Build a validated Network from (arc_id, u, v, length) tuples."""
    return Network(
        (Arc(str(i), str(u), str(v), float(length)) for i, u, v, length in arcs),
        str(home),
    )


def classify(net: Network) -> NodeClassification:
    degree = {v: net.degree(v) for v in net.nodes}
    branch = frozenset(
        v for v in net.nodes if v != net.home and degree[v] >= 2
    )
    leaf = frozenset(v for v in net.nodes if v != net.home and degree[v] == 1)
    return NodeClassification(branch, leaf, degree)


def shortest_paths(net: Network) -> ShortestPathData:
    """Dijkstra toward home plus the correct-arc sets at branch nodes."""
    dist = {v: float("inf") for v in net.nodes}
    dist[net.home] = 0.0
    heap = [(0.0, net.home)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] + DISTANCE_TOL:
            continue
        for a in net.incident(v):
            w = a.other(v)
            nd = d + a.length
            if nd < dist[w] - DISTANCE_TOL:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))

    correct: dict[str, frozenset[str]] = {}
    for v in classify(net).branch_nodes:
        good = frozenset(
            a.arc_id
            for a in net.incident(v)
            if abs(a.length + dist[a.other(v)] - dist[v]) <= DISTANCE_TOL
        )
        assert good, f"branch node {v!r} has no arc toward home"
        correct[v] = good
    return ShortestPathData(dist, correct)


def blocks(net: Network) -> tuple[tuple[Arc, ...], ...]:
    """The blocks (2-connected components) of `net`, each as its arcs; found
    by one depth-first search on first use and kept on the network.

    Parallel arcs share a block: the search skips only the specific arc it
    entered on, so a twin arc shows up as a back arc (Hopcroft and Tarjan,
    Communications of the ACM 16(6), 1973).
    """
    if net._blocks is not None:
        return net._blocks
    root = net.nodes[0]  # a network is connected
    disc = {root: 0}
    low = {root: 0}
    found: list[tuple[Arc, ...]] = []
    arcs: list[Arc] = []  # arcs met and not yet in a block, in DFS order
    # stack entries: (node, entering arc, its place in arcs, incident arcs)
    stack = [(root, None, 0, iter(net.incident(root)))]
    while stack:
        v, in_arc, mark, it = stack[-1]
        for a in it:
            if a is in_arc:
                continue
            w = a.other(v)
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, a, len(arcs), iter(net.incident(w))))
                arcs.append(a)
                break
            if disc[w] < disc[v]:  # a back arc, met first from its lower end
                arcs.append(a)
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:  # parent cuts v's subtree off
                    found.append(tuple(arcs[mark:]))
                    del arcs[mark:]
    net._blocks = tuple(found)
    return net._blocks


def find_bridges_and_cuts(net: Network) -> tuple[frozenset[str], frozenset[str]]:
    """Bridge arcs, the blocks of one arc, and cut (articulation) nodes, the
    nodes of more than one block. Parallel arcs are never bridges."""
    seen: set[str] = set()
    cuts: set[str] = set()
    for block in blocks(net):
        nodes = {a.u for a in block} | {a.v for a in block}
        cuts |= seen & nodes
        seen |= nodes
    return (frozenset(b[0].arc_id for b in blocks(net) if len(b) == 1),
            frozenset(cuts))


# ---------------------------------------------------------------------------
# network description files
#
# Two equivalent formats are accepted (the README states the exact grammar):
#
#   line-oriented text            structured JSON object
#   --------------------------    ------------------------------------------
#   home H                        {"home": "H",
#   arc e1 A X 1                   "arcs": [{"id": "e1", "u": "A",
#   arc e2 A X 2                             "v": "X", "length": 1}, ...]}
#
# Blank lines and lines starting with '#' are ignored in the text format.
# ---------------------------------------------------------------------------


def parse_network_text(text: str) -> Network:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_network_json(text)
    home = None
    arcs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "home":
            if len(fields) != 2:
                raise ValidationError(f"line {lineno}: expected 'home <node>'")
            if home is not None:
                raise ValidationError(f"line {lineno}: duplicate home line")
            home = fields[1]
        elif fields[0] == "arc":
            if len(fields) != 5:
                raise ValidationError(
                    f"line {lineno}: expected 'arc <id> <u> <v> <length>'"
                )
            _, arc_id, u, v, length = fields
            try:
                length_val = float(length)
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: bad arc length {length!r}"
                ) from None
            arcs.append(Arc(arc_id, u, v, length_val))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {fields[0]!r}")
    if home is None:
        raise ValidationError("missing 'home <node>' line")
    return Network(arcs, home)


def _parse_network_json(text: str) -> Network:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise ValidationError(f"bad JSON network description: {exc}") from None
    if not isinstance(obj, dict) or "home" not in obj or "arcs" not in obj:
        raise ValidationError("JSON network needs 'home' and 'arcs' fields")
    if not isinstance(obj["arcs"], list):
        raise ValidationError("JSON network 'arcs' must be a list of arcs")
    arcs = []
    for i, entry in enumerate(obj["arcs"]):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"arcs[{i}]: expected an object with fields id, u, v, length"
            )
        for key in ("id", "u", "v", "length"):
            if key not in entry:
                raise ValidationError(f"arcs[{i}]: missing field {key!r}")
        try:
            length = float(entry["length"])
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"arcs[{i}]: bad arc length {entry['length']!r}"
            ) from None
        arcs.append(
            Arc(str(entry["id"]), str(entry["u"]), str(entry["v"]), length)
        )
    return Network(arcs, str(obj["home"]))


def parse_network_file(path) -> Network:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"network file {path} is not UTF-8 text ({exc})"
        ) from None
    return parse_network_text(text)


def network_to_text(net: Network) -> str:
    """Canonical line-oriented description; parses back to an equal network."""
    lines = [f"home {net.home}"]
    lines += [f"arc {a.arc_id} {a.u} {a.v} {a.length:g}" for a in net.arcs]
    return "\n".join(lines) + "\n"
