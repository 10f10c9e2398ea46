"""Direction vectors, their probability measure, and the compiled arrays
that enumeration, the exact solver and the walker share.

A direction vector is a row of pointer slots, one column per branch node
in `CompiledNetwork.branch` order; slot s of a node is its s-th incident
arc in the order the network lists them.

At every branch node a pointer suggests one incident arc. With probability
p (the reliability) the pointer picks uniformly among the arcs on a
shortest path to home; otherwise it picks uniformly among the remaining
arcs. Pointers at different nodes are independent, and a drawn assignment
is held fixed for the whole journey: expected times condition on the
assignment and average afterwards, never re-randomizing per visit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, check_probability
from .network import Network, ShortestPathData, classify, shortest_paths

ENUMERATION_CAP = 10**6
# walks per chunk of the Monte Carlo walker's pointer draws and of each of
# its steps, so that their temporaries have this length whatever the number
# of walks. On a 2-core x86 box, 10**6 walks on a cactus of 6 triangles
# took a median of 1.02, 0.99, 0.97 and 1.08 s at 2**12, 2**13, 2**14 and
# 2**16 (8 runs each), at a peak RSS of 70.6, 70.6, 70.5 and 73.1 MB
WALK_CHUNK = 2**14


class CompiledNetwork:
    """A network as arrays; `compile_network` builds it once per network.

    Slot s of node i leads to `dest[i, s]` over `alen[i, s]`. `branch`
    lists the pointer sites in index order, `branch_degree` their degrees.
    Table rows from `row_start[i]` belong to node i: one per pointer slot
    at a branch node, one elsewhere. Per row, `row_dest` and `row_len` are
    its node's `dest` and `alen`, `row_used` marks the slots in use,
    `row_pointer` the row's pointer (a leaf's one arc, at trust 1) and
    `row_spread` is max(degree - 1, 1): the arrays of `chances`, the step
    law. `col` numbers the non-home nodes, the unknowns of the hitting-time
    systems; home gets the spare column after them.
    """

    def __init__(self, net: Network):
        self.nodes = net.nodes
        self.index = {v: i for i, v in enumerate(net.nodes)}
        self.home = self.index[net.home]
        self.arc_ids = [[a.arc_id for a in net.incident(v)] for v in net.nodes]
        self.degree = [len(ids) for ids in self.arc_ids]
        self.dest = np.zeros((len(net.nodes), max(self.degree)), dtype=np.int64)
        self.alen = np.zeros(self.dest.shape)
        for i, v in enumerate(net.nodes):
            for s, a in enumerate(net.incident(v)):
                self.dest[i, s] = self.index[a.other(v)]
                self.alen[i, s] = a.length
        self.branch = sorted(self.index[v] for v in classify(net).branch_nodes)
        self.branch_degree = np.array(self.degree)[self.branch]
        n_rows = [d if i in self.branch else 1 for i, d in enumerate(self.degree)]
        start = self.row_start = np.cumsum([0] + n_rows[:-1])
        node = self.row_node = np.repeat(np.arange(len(net.nodes)), n_rows)
        self.row_dest, self.row_len = self.dest[node], self.alen[node]
        slot = np.arange(self.dest.shape[1])
        degree = np.array(self.degree)[node, None]
        self.row_used = slot < degree
        self.row_pointer = slot == (np.arange(len(node)) - start[node])[:, None]
        self.row_spread = np.maximum(degree - 1, 1)
        self.nonhome = np.delete(np.arange(len(net.nodes)), self.home)
        self.col = np.full(len(net.nodes), len(self.nonhome))
        self.col[self.nonhome] = np.arange(len(self.nonhome))
        self.last_steps = None  # (policy, StepTable) of the latest policy

    def chances(self, trust, rows=slice(None)) -> np.ndarray:
        """The step law: chances[..., r, s] to leave the node of table row
        `rows[r]` through slot s when that row's trust is trust[..., r]: the
        trust on the row's pointer, (1 - trust)/spread on each other slot in
        use, 0 on a slot the node does not have."""
        t = np.asarray(trust, dtype=float)[..., None]
        return np.where(self.row_pointer[rows], t,
                        self.row_used[rows] * ((1.0 - t) / self.row_spread[rows]))


def lost_nodes(reach: np.ndarray, home: int) -> np.ndarray:
    """lost[..., v]: from node v the walk can enter a node from which node
    `home` cannot be reached, when reach[..., v, w] says whether v can step
    to w; batched over the leading axes."""
    n = reach.shape[-1]
    # 0/1 in float32, whose products run in BLAS where bool's do not; clipped
    # to 1 after each product, every sum stays exact while n < 2**24
    paths = (reach | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(n.bit_length()):
        paths = np.minimum(paths @ paths, 1.0)
    reach = paths > 0.0  # then reach[..., v, w]: w reachable from v
    return (reach & ~reach[..., None, :, home]).any(axis=-1)


def compile_network(net: Network) -> CompiledNetwork:
    """The arrays of `net`, compiled on first use and kept on it."""
    if net._compiled is None:
        net._compiled = CompiledNetwork(net)
    return net._compiled


@dataclass(frozen=True, eq=False)
class WeightedDirectionSpace:
    """All direction vectors of `form` with their probabilities under
    reliability p: row k of `slots` is direction k, `weights[k]` its
    probability."""

    form: CompiledNetwork
    slots: np.ndarray
    weights: np.ndarray
    reliability: float

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def entries(self) -> WeightedDirectionSpace:
        """The space itself; perfbench counts directions by its length."""
        return self


def pointer_table(net: Network, spd: ShortestPathData, p: float) -> np.ndarray:
    """mu[node, slot]: the pointer distribution at every branch node.

    Correct arcs share p, the rest share 1-p. When every incident arc is
    correct (tied shortest paths), the split is uniform and p plays no role.
    """
    check_probability("reliability p", p)
    form = compile_network(net)
    mu = np.zeros(form.alen.shape)
    for i in form.branch:
        good = [a in spd.correct_arcs[form.nodes[i]] for a in form.arc_ids[i]]
        deg, n_good = len(good), sum(good)
        mu[i, :deg] = [1.0 / deg if n_good == deg else
                       p / n_good if g else (1.0 - p) / (deg - n_good)
                       for g in good]
    return mu


def enumerate_direction_space(
    net: Network,
    p: float = 0.5,
    cap: int = ENUMERATION_CAP,
) -> WeightedDirectionSpace:
    """All direction vectors with product weights; weights sum to 1.

    Directions run over sorted branch nodes and, at each, sorted arc ids,
    the last node varying fastest. Raises CapExceeded when the product of
    branch degrees exceeds `cap`; callers should fall back to simulation.
    """
    mu = pointer_table(net, shortest_paths(net), p)
    form = compile_network(net)
    degrees = form.branch_degree.tolist()
    size = math.prod(degrees)
    if size > cap:
        raise CapExceeded(
            f"{size} direction vectors exceed the enumeration cap {cap}"
        )
    dtype = np.min_scalar_type(max(degrees, default=1))
    picks = np.indices(degrees, dtype=dtype).reshape(len(degrees), size)
    slots = np.empty((size, len(degrees)), dtype=dtype)
    weights = np.ones(size)
    for j, i in enumerate(form.branch):
        by_arc_id = sorted(range(form.degree[i]), key=form.arc_ids[i].__getitem__)
        slots[:, j] = np.array(by_arc_id, dtype=dtype)[picks[j]]
        weights *= mu[i, slots[:, j]]
    return WeightedDirectionSpace(form, slots, weights, p)


def sample_pointer_slots(net: Network, spd: ShortestPathData, p: float,
                         n: int, rng: np.random.Generator) -> np.ndarray:
    """`n` independent direction vectors as the pointer slot per (draw,
    node), zero off the branch nodes; branch nodes draw in sorted order.

    A uniform u picks the number of cumulative pointer probabilities at or
    below it; the last one is left out, as if it were 1.0, since u < 1.
    A node's uniforms are drawn WALK_CHUNK at a time, the stream of one
    draw of `n`, so the slots do not depend on the chunk and the draws need
    no array of `n` uniforms. Slots come in the smallest unsigned dtype that
    holds every table row number, so that `row_start` can be added to them
    in place.
    """
    mu = pointer_table(net, spd, p)
    form = compile_network(net)
    ptr = np.zeros((n, len(form.nodes)),
                   dtype=np.min_scalar_type(len(form.row_node) - 1))
    for i in form.branch:
        cum = np.cumsum(mu[i, :form.degree[i] - 1])
        for lo in range(0, n, WALK_CHUNK):
            u = rng.random(min(WALK_CHUNK, n - lo))
            slot = ptr[lo:lo + len(u), i]
            for c in cum:
                slot += u >= c
    return ptr


class StepTable:
    """`probs[r, s]`: the chance to leave through slot s from the node of
    table row r, under that row's pointer slot: `CompiledNetwork.chances` at
    the row's `trust`, the policy's at a branch node and 1 elsewhere. `sharp`
    marks the branch positions of trust 0 or 1, where a step is ruled out."""

    def __init__(self, form: CompiledNetwork, policy):
        self.form = form
        trust = np.ones(len(form.nodes))
        # in branch order, so that a missing degree raises at the first one
        trust[form.branch] = list(map(policy.trust_at, form.branch_degree.tolist()))
        self.sharp = np.isin(trust[form.branch], (0.0, 1.0))
        self.trust = trust[form.row_node]
        self.probs = form.chances(self.trust)

    @cached_property
    def cum(self) -> np.ndarray:
        """The walker's cumulative `probs`: 1.0 from each row's last slot on."""
        cum = np.cumsum(self.probs, axis=1)
        last = self.form.row_used.sum(axis=1, keepdims=True) - 1
        cum[np.arange(cum.shape[1]) >= last] = 1.0
        return cum

    @cached_property
    def system(self) -> tuple[np.ndarray, np.ndarray]:
        """Per table row, its row of I - P over the non-home nodes and the
        expected length of one step; an identity row of length 0 per
        non-home node follows the table."""
        return assemble(self.form, self.probs)

    def table_rows(self, slots) -> tuple[np.ndarray, np.ndarray]:
        """Per direction (row of `slots`): the row of `system` for each
        non-home node, and the mask of finite expected times. A node of
        infinite time gets its identity row; no finite node steps to it.
        Without a sharp node every node is finite; otherwise `lost_nodes`
        runs on one batch of the patterns of the sharp nodes' pointers."""
        form = self.form
        rid = np.tile(form.row_start[form.nonhome], (len(slots), 1))
        rid[:, form.col[form.branch]] += slots
        if not self.sharp.any():
            return rid, np.ones(rid.shape, dtype=bool)
        _, first, inverse = np.unique(slots[:, self.sharp], axis=0,
                                      return_index=True, return_inverse=True)
        rows = rid[first]  # one direction of each pattern
        pattern, k, s = np.nonzero(self.probs[rows] > 0.0)
        reach = np.zeros((len(rows),) + (len(form.nodes),) * 2, dtype=bool)
        reach[pattern, form.nonhome[k], form.row_dest[rows][pattern, k, s]] = True
        finite = ~lost_nodes(reach, form.home)[:, form.nonhome][inverse]
        rid[~finite] = len(self.probs) + np.nonzero(~finite)[1]
        return rid, finite


def assemble(form: CompiledNetwork, probs: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of I - P over the non-home nodes and the expected one-step
    lengths, for step chances `probs` per table row (slots add in order, as
    arcs would); then I with lengths 0, the rows of the nodes of infinite
    time.

    A step to a leaf (a non-home node of degree 1) comes straight back, so
    it is folded into its row: its chance P adds 2 x length x P to the step
    length instead of entering the leaf's column, and the row's diagonal is
    the sum of its other slots' chances rather than 1 - P, the pivot of GTH
    elimination, which never subtracts. Rows without a leaf slot keep the
    diagonal 1.
    """
    every = np.arange(len(probs))
    rows = np.zeros((len(every), len(form.nonhome) + 1))
    rhs = np.zeros(len(every))
    dest, diag = form.row_dest, form.col[form.row_node]
    leaf = form.row_used & (np.array(form.degree)[dest] == 1) & (dest != form.home)
    folded = leaf.any(axis=1)
    rows[every, diag] = np.where(folded, 0.0, 1.0)
    for s in range(probs.shape[1]):
        fold = leaf[:, s]
        rhs += np.where(fold, 2.0, 1.0) * probs[:, s] * form.row_len[:, s]
        step = np.where(fold, 0.0, probs[:, s])
        rows[every, form.col[dest[:, s]]] -= step
        rows[every, diag] += np.where(folded, step, 0.0)
    return (np.vstack([rows[:, :-1], np.eye(len(form.nonhome))]),
            np.concatenate([rhs, np.zeros(len(form.nonhome))]))


def step_table(net: Network, policy) -> StepTable:
    """The step table of `policy` (anything with `trust_at(degree)`) on
    `net`, kept for the next call; a missing branch degree raises here."""
    form = compile_network(net)
    last = form.last_steps
    if last is not None and (last[0] is policy or last[0] == policy):
        return last[1]
    table = StepTable(form, policy)
    form.last_steps = (policy, table)
    return table
