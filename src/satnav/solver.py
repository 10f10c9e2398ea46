"""Exact expected hitting times for fixed pointers, and their average.

For one direction vector the walk is a Markov chain on the nodes with home
absorbing. `CompiledNetwork.chances` states its step law once, for the
LAPACK path, `TrustLine` and the walker: at a branch node the pointer arc
is taken with the trust probability, every other incident arc uniformly
otherwise; a leaf reflects. Expected hitting times solve a dense linear
system per direction vector, gathered from the step table's rows of I - P,
one stacked solve per block of directions, and are then averaged with the
direction-space weights.

A network of more than one block is solved one block of its block-cut tree
(`Network.blocks`) at a time, leaf-up from home: each part that hangs off a
cut node enters its parent block's system only as leaf stubs whose length
is half the part's mean excursion time, and a step to a leaf is folded into
its neighbour's row without a subtraction. So the directions of different
blocks are never multiplied together, and the enumeration cap bounds each
block's core alone. A network of one block is solved whole.

Nodes from which the induced chain cannot reach home -- or that can wander
into a region that cannot -- have infinite expected time. `lost_nodes`
finds them, for `TrustLine` too; before a solve it runs once per pattern of
the pointers at the nodes of trust 0 or 1, and not at all without such a
node. They get identity rows, so cycling pointer configurations are exact
infinities rather than solver blow-ups. A solve that fails in LAPACK or
returns a negative or NaN time raises SingularSystem instead of answering.

The optimizer's trust search runs on a second engine, `TrustLine`, along a
segment between two trust policies. It reads only the reliability and solves
no linear system: it eliminates the nodes one at a time by sums that never
subtract (GTH elimination), shares the work of every pointer prefix across
the directions that extend it, and carries every trust of a search, or the
first and second derivatives at one trust, through one pass. It stays
accurate near trusts 0 and 1, where LU loses a near trap's escape mass.

A vectorized Monte Carlo walker, `simulate`, provides an independent check
on all of the exact machinery; its docstring states its draws and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import SingularSystem, ValidationError, check_probability
from .network import Arc, Network, shortest_paths
from .pointers import (
    ENUMERATION_CAP,
    WALK_CHUNK,
    StepTable,
    WeightedDirectionSpace,
    compile_network,
    enumerate_direction_space,
    lost_nodes,
    pointer_table,
    sample_pointer_slots,
    step_table,
)

BLOCK = 1024  # directions per stacked solve in expected_profile
# the most final states (directions x trusts x Taylor coefficients) that a
# TrustLine eliminates at once; more run in halves of the states, so that
# the search's peak memory stays near the exact path's at any number of
# directions. On a 2-core x86 box, optimize_uniform on a 3x3 grid (2,592
# directions) took 0.029-0.030 s at 2**13, 0.032-0.040 s at 2**12 and
# 0.032-0.036 s at 2**14, at a peak RSS of 34.3, 34.0 and 34.9 MB; 2**16
# was slower still and took 8 MB more
STATE_BUDGET = 2**13


@dataclass(frozen=True)
class Uniform:
    """One trust probability at every branch node."""

    q: float

    def __post_init__(self):
        check_probability("trust q", self.q)

    def trust_at(self, degree: int) -> float:
        return self.q


@dataclass(frozen=True)
class ByDegree:
    """Trust indexed by the degree of the current node (counting agent)."""

    q_by_degree: Mapping[int, float]

    def __post_init__(self):
        # own copy, so later edits to the caller's dict cannot skip the checks
        object.__setattr__(self, "q_by_degree", dict(self.q_by_degree))
        for k, q in self.q_by_degree.items():
            check_probability(f"trust q_{k}", q)

    def trust_at(self, degree: int) -> float:
        try:
            return self.q_by_degree[degree]
        except KeyError:
            raise ValidationError(
                f"policy defines no trust for degree {degree}"
            ) from None


TrustPolicy = Union[Uniform, ByDegree]


@dataclass(frozen=True, eq=False)
class TimeProfile:
    """Expected time to home from every node, in `nodes` order; +inf where
    home is not reached almost surely."""

    nodes: tuple[str, ...]
    times: np.ndarray

    @cached_property
    def time(self) -> dict[str, float]:
        return dict(zip(self.nodes, self.times.T.tolist()))


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    censored: int
    n_walks: int
    seed: int


def _solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One stacked `np.linalg.solve` of rows @ x = rhs, for every stacked
    hitting-time solve. SingularSystem when LAPACK fails, or when a solved
    time is negative or NaN: near trust 0 or 1 the LU can lose the escape
    mass of a near trap."""
    try:
        solved = np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"hitting-time system singular in a block of "
                             f"{len(rows)} directions: {exc}") from None
    if not (solved >= 0.0).all():
        raise SingularSystem(f"hitting-time system gave a negative or NaN "
                             f"time in a block of {len(rows)} directions")
    return solved


def hitting_times_for_direction(
    net: Network, slots: np.ndarray, policy: TrustPolicy
) -> TimeProfile:
    """Solve T(v) = sum_a P(a) (len(a) + T(other end)), T(home) = 0.

    `slots` is one direction, a row of integer pointer slots in [0, degree)
    with one column per branch node, or a 2-D block of such rows, solved as
    one stack with one row of `times` per direction; other input raises
    ValidationError. Nodes whose walk may never reach home get +inf.
    """
    form = compile_network(net)
    slots = np.asarray(slots)
    block = np.atleast_2d(slots)
    if (slots.ndim not in (1, 2) or slots.shape[-1] != len(form.branch)
            or not np.issubdtype(slots.dtype, np.integer)
            or ((block < 0) | (block >= form.branch_degree)).any()):
        raise ValidationError(
            f"pointer slots of shape {slots.shape} and dtype {slots.dtype} are "
            f"not rows of {len(form.branch)} integers in [0, degree)")
    steps = step_table(net, policy)
    rid, finite = steps.table_rows(block)
    rows, rhs = steps.system
    times = np.zeros((len(block), len(form.nodes)))
    times[:, form.nonhome] = np.where(finite, _solve(rows[rid], rhs[rid]),
                                      math.inf)
    return TimeProfile(form.nodes, times.reshape(slots.shape[:-1] + (-1,)))


def profile_residual(
    net: Network, slots: np.ndarray, policy: TrustPolicy, profile: TimeProfile
) -> float:
    """Max one-step recurrence violation over the finite entries of the
    hitting times of `slots` (a row or a block), read from the step
    probabilities and the arcs rather than the solved systems; NaN when an
    entry is NaN, so that a NaN fails any bound."""
    form = compile_network(net)
    block, times = np.atleast_2d(slots), np.atleast_2d(profile.times)
    rid = np.tile(form.row_start, (len(block), 1))
    rid[:, form.branch] += block
    probs = step_table(net, policy).probs[rid]  # [direction, node, slot]
    # an arc never taken adds nothing, even towards an infinite time
    ahead = np.where(probs > 0.0, times[:, form.dest], 0.0)
    expect = (probs * (form.alen + ahead)).sum(axis=2)
    t, e = times[:, form.nonhome], expect[:, form.nonhome]
    kept = t != math.inf
    return float(np.max(np.abs(t[kept] - e[kept]), initial=0.0))


def expected_profile(
    net: Network,
    p: float,
    policy: TrustPolicy,
    cap: int = ENUMERATION_CAP,
    space: WeightedDirectionSpace | None = None,
) -> dict[str, float]:
    """Weight-averaged expected time to home from every node.

    Directions of weight zero are skipped, so reliability 0 or 1 stays
    finite whenever every pointer configuration that actually occurs leads
    home. A node is +inf as soon as one positive-weight direction strands it.
    A given `space` must be the one enumerated for `net` at reliability `p`.

    Without `space`, a network of more than one block is solved one block
    at a time (see `_profile_by_blocks`), and `cap` bounds the directions of
    each block's core; a network of one block is solved whole.
    """
    step_table(net, policy)
    if space is None:
        profile = _profile_by_blocks(net, p, policy, cap)
        if profile is not None:
            return profile
        space = enumerate_direction_space(net, p=p, cap=cap)
    elif space.form is not compile_network(net) or space.reliability != p:
        raise ValidationError("space= was enumerated for another network or "
                              "reliability")
    return _weighted_profile(net, space, policy)


def _weighted_profile(net: Network, space: WeightedDirectionSpace,
                      policy: TrustPolicy) -> dict[str, float]:
    """The weighted sum of the hitting times of every direction of `space`,
    BLOCK directions to a stacked solve."""
    kept = np.flatnonzero(space.weights)
    total = np.zeros(len(net.nodes))
    for ids in np.split(kept, range(BLOCK, len(kept), BLOCK)):
        times = hitting_times_for_direction(net, space.slots[ids], policy).times
        # rows add to the total one after another, in direction order
        total = np.vstack([total, space.weights[ids, None] * times]).sum(axis=0)
    return dict(zip(net.nodes, total.tolist()))


def _profile_by_blocks(net: Network, p: float, policy: TrustPolicy,
                       cap: int) -> dict[str, float] | None:
    """`expected_profile` solved one block of the block-cut tree at a time,
    leaf-up from home; None for a network of one block, when an excursion
    into a part hanging off a cut node has infinite mean time, or when a
    block's core would give a node another pointer law.

    A block's core is its arcs, homed at its attachment, plus one leaf stub
    per arc j from a block node v into a part hanging off v, of length
    R_j / 2, where R_j = length_j + T(w_j -> v) is the mean time of an
    excursion through j and back, read off the core of w_j's block, solved
    before. Every path home leaves the block through its attachment, so
    pointer correctness toward it is correctness toward home; a stub is
    never correct and keeps v's degree, so v's pointer law and trust are
    unchanged. Given the pointers, the time out of the block is A + sum_j
    N_j R_j, where A and the visit counts N_j depend only on the block's
    pointers and R_j only on the hanging part's, which are drawn
    independently, so averaging R_j first is exact. A node's time to home is
    its core time plus its attachment's time to home.
    """
    if len(net.blocks) == 1:
        return None
    correct = shortest_paths(net).correct_arcs
    # no stub may share a name with a node
    stub = "\0"
    while any(v.startswith(stub) for v in net.nodes):
        stub += "\0"
    core_time = {}  # node -> expected time to its block's attachment
    for arcs, attach in net.blocks:  # leaf-up
        core_arcs, own = list(arcs), set(arcs)
        inner = dict.fromkeys(v for a in arcs for v in (a.u, a.v) if v != attach)
        for v in inner:
            for a in net.incident(v):
                if a not in own:  # into a part hanging off v
                    excursion = a.length + core_time[a.other(v)]
                    if excursion == math.inf:
                        return None
                    core_arcs.append(Arc(a.arc_id, v, stub + a.arc_id,
                                         excursion / 2))
        core = Network(core_arcs, attach)
        # a distance tie that rounds apart between the core and the network
        core_correct = shortest_paths(core).correct_arcs
        if any(core_correct[v] != correct[v] for v in core_correct):
            return None
        space = enumerate_direction_space(core, p=p, cap=cap)
        times = _weighted_profile(core, space, policy)
        core_time.update((v, times[v]) for v in inner)
    total = {net.home: 0.0}
    for arcs, attach in reversed(net.blocks):  # home-down
        for a in arcs:
            for v in (a.u, a.v):
                if v != attach:
                    total[v] = core_time[v] + total[attach]
    return {v: total[v] for v in net.nodes}


def expected_time(
    net: Network,
    p: float,
    policy: TrustPolicy,
    start: str,
    cap: int = ENUMERATION_CAP,
    space: WeightedDirectionSpace | None = None,
) -> float:
    """Expected time to reach home from `start`, averaged over pointers."""
    if start not in net.nodes:
        raise ValidationError(f"unknown start node {start!r}")
    return expected_profile(net, p, policy, cap=cap, space=space)[start]


def expected_time_between(
    net: Network,
    p: float,
    policy: TrustPolicy,
    start: str,
    to: str,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Expected time to first reach `to` from `start`.

    The journey is solved on the network re-homed at `to`: the target is
    absorbing and pointer correctness means "on a shortest path to the
    target". This is what makes crossing times on a line telescope and
    reproduces the left/right asymmetry of travel between interior nodes.
    """
    if start not in net.nodes:
        raise ValidationError(f"unknown start node {start!r}")
    if start == to:
        return 0.0
    return expected_time(net.retargeted(to), p, policy, start, cap=cap)


class TrustLine:
    """Expected time from `start`, averaged over the directions at reliability
    `p`, along the segment from trust policy `low` at q = 0 to `high` at
    q = 1: a row's trust t is its trust under `low` plus q times its change
    to `high`, and `CompiledNetwork.chances` gives its step chances at t.
    It reads only the reliability of the directions and solves no system.

    The non-home nodes are eliminated one at a time: leaves first, then
    branch nodes by ascending degree, the start last. A state holds, for
    every remaining node, one candidate row per pointer slot of positive
    chance: its entries toward the remaining nodes, an exit-to-home entry
    and its expected step length. Eliminating node i splits each state into
    one per slot s of i, of pointer chance mu_i(s), and adds
    (entry into i / S) x the pivot row to every other row, where S sums the
    pivot row's entries to everything but i; S is a sum, so no step
    subtracts (Grassmann, Taksar and Heyman, Operations Research 33(5),
    1985). Every direction extending a prefix of pointers shares that
    prefix's work. At the start T = length / S; the expected time averages
    T over the slots of the last node eliminated, then of the one before,
    and so on, so that the contributions of mirror-image directions cancel
    exactly.

    The arrays are laid out x[coefficient, row, entry, state, trust]:
    truncated Taylor coefficients in q lead, and the states and trusts form
    one contiguous batch on the innermost axes, so that every numpy call of
    the elimination runs over long runs rather than over a row's few
    entries. `values` runs order 0 at all its trusts at once, `derivatives`
    order 2 at one trust; each (state, trust) is worked by the same
    operations in the same order whatever else is in its batch, so a value
    does not depend on STATE_BUDGET, nor on the other trusts of its call
    while none gives a step a chance of 0 (trust 0 or 1 on a coordinate
    line), which splits nodes for the whole call. States are worked in
    pieces of at most STATE_BUDGET final values, which keeps peak memory
    nearly flat in the number of directions.

    A branch node with a step chance of 0 (a trust of 0 or 1) is split
    before anything is eliminated, so that each state knows, by
    `lost_nodes`, which nodes cannot reach home. Those nodes count as home
    for the others, as the identity rows of the exact path do: a node the
    chain cannot enter at that trust adds nothing to the one-sided
    derivatives at a trust of 0 or 1. A start that cannot reach home gives
    +inf.
    """

    def __init__(self, net: Network, p: float, start: str,
                 low: TrustPolicy, high: TrustPolicy):
        if start not in net.nodes:
            raise ValidationError(f"unknown start node {start!r}")
        self.net, self.start = net, start
        form = self.form = compile_network(net)
        origin = form.index[start]
        branch = set(form.branch)
        order = [] if origin == form.home else sorted(
            (i for i in form.nonhome if i != origin),
            key=lambda i: form.degree[i] if i in branch else 0) + [origin]
        mu = pointer_table(net, shortest_paths(net), p)
        # a pointer slot of chance 0 never occurs, so it gets no row
        slots = [np.flatnonzero(mu[i, :form.degree[i]]) if i in branch
                 else np.zeros(1, dtype=int) for i in order]
        self.mus = [mu[i, s] if i in branch else np.ones(1)
                    for i, s in zip(order, slots)]
        self.sizes = [len(s) for s in slots]
        self.first = np.cumsum([0] + self.sizes)  # each node's first row
        self.rows = rows = np.concatenate([form.row_start[i] + s
                                           for i, s in zip(order, slots)]
                                          or [np.zeros(0, dtype=int)])
        self.row_node = np.repeat(np.arange(len(order)), self.sizes)
        col = np.full(len(form.nodes), len(order))  # home: the exit column
        col[order] = np.arange(len(order))
        self.dcol, self.alen = col[form.row_dest[rows]], form.row_len[rows]
        low, high = (StepTable(form, policy).trust[rows] for policy in (low, high))
        self.slope = form.chances(high, rows) - form.chances(low, rows)
        self.trust, self.change = low, high - low

    def _table(self, probs: np.ndarray) -> np.ndarray:
        """Rows of entries toward each node in elimination order, the exit
        and the step length, from step chances `probs[..., row, slot]`."""
        table = np.zeros(probs.shape[:-1] + (len(self.sizes) + 2,))
        every = np.arange(probs.shape[-2])
        for s in range(probs.shape[-1]):
            table[..., every, self.dcol[:, s]] += probs[..., s]
        table[..., -1] = (probs * self.alen).sum(axis=-1)
        return table

    def _lost(self, probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """lost[trust, state, node]: home is not reached almost surely from
        the node when state k steps by table rows `rows[k]` at `probs`."""
        n = len(self.sizes)
        trust, state, row, slot = np.nonzero(probs[:, rows] > 0.0)
        reach = np.zeros((len(probs), len(rows), n + 1, n + 1), dtype=bool)
        picked = rows[state, row]
        reach[trust, state, self.row_node[picked], self.dcol[picked, slot]] = True
        return lost_nodes(reach, n)[..., :n]

    def _expected(self, trusts, order: int) -> np.ndarray:
        """Taylor coefficients in q up to `order` of the expected time from
        the start at each of `trusts`, shape (order + 1, len(trusts))."""
        q = np.asarray(trusts, dtype=float)[:, None]
        if not ((q >= 0.0) & (q <= 1.0)).all():  # NaN fails both
            raise ValidationError(f"trusts {trusts} leave the segment's [0, 1]")
        if not self.sizes:  # the start is home
            return np.zeros((order + 1, len(trusts)))
        probs = self.form.chances(self.trust + q * self.change, self.rows)
        zero = ((probs == 0.0) & self.form.row_used[self.rows]).any(axis=(0, 2))
        sharp = sorted(set(self.row_node[zero].tolist()))
        counts = [self.sizes[i] for i in sharp]
        states = math.prod(counts)
        # the last split node's pick varies slowest, as _average's slots do
        picks = dict(zip(sharp, np.indices(counts[::-1]).reshape(
            len(sharp), states)[::-1]))
        # rows[state, row]: the state's pick at a split node, else every slot
        parts = [self.first[i] + (picks[i][:, None] if i in picks
                                  else np.arange(d)[None])
                 for i, d in enumerate(self.sizes)]
        rows = np.hstack([np.broadcast_to(r, (states, r.shape[1])) for r in parts])
        # x[coefficient, trust, state, row, entry]
        x = np.zeros((order + 1, len(trusts)) + rows.shape
                     + (len(self.sizes) + 2,))
        x[0] = self._table(probs)[:, rows]
        if order:
            x[1] = self._table(self.slope)[rows]
        if sharp:
            lost = self._lost(probs, rows)
            # nodes that cannot reach home: entries into them go home, and
            # their own rows go home at no cost
            into = lost[:, :, None, :]
            x[..., -2] += np.where(into, x[..., :-2], 0.0).sum(axis=-1)
            x[..., :-2] = np.where(into, 0.0, x[..., :-2])
            gone = np.take_along_axis(lost, self.row_node[rows][None], axis=-1)
            x[:, gone] = 0.0
            x[0, ..., -2][gone] = 1.0
        mus = [np.ones(1) if i in picks else mu for i, mu in enumerate(self.mus)]
        # batch-last: x[coefficient, row, entry, state, trust]
        x = _average(np.ascontiguousarray(x.transpose(0, 3, 4, 2, 1)), mus)
        if sharp:
            x = np.where(lost[..., -1].T, math.inf, x)
        # then over the split nodes' picks, the last split node first
        for i in reversed(sharp):
            x = _mean(x.reshape((len(x), self.sizes[i], -1, x.shape[-1])),
                      self.mus[i])
        return x[:, 0]

    def values(self, trusts) -> np.ndarray:
        """Expected time from the start at each trust."""
        return self._expected(list(trusts), 0)[0]

    def derivatives(self, q: float) -> tuple[float, float, float]:
        """Expected time from the start at trust q with its first and second
        derivative in q; one-sided at q = 0 or 1."""
        value, slope, half_curvature = self._expected([q], 2)[:, 0].tolist()
        return value, slope, 2.0 * half_curvature


def _average(x: np.ndarray, mus: list[np.ndarray]) -> np.ndarray:
    """Eliminate the node whose rows lead x[coefficient, row, entry, state,
    trust], then each later one; node k has one row per pointer chance in
    mus[k]. Returns T at the start, [coefficient, state, trust], averaged
    over the slots of the last node eliminated, then of the one before, and
    so on. States and trusts form one contiguous batch on the innermost
    axes, so that every numpy call runs over long runs: a split writes its
    child states slot-major, [..., slot, state, trust], and no sum runs
    along the batch, so no value depends on the batch it ran in. While the
    states of x would end in more than STATE_BUDGET values of T, each half
    of them runs in turn."""
    states = x.shape[3]
    if states > 1 and (len(x) * states * x.shape[4] * math.prod(
            map(len, mus)) > STATE_BUDGET):
        return np.concatenate([_average(x[..., :states // 2, :], mus),
                               _average(x[..., states // 2:, :], mus)], axis=1)
    mu = mus[0]
    pivot, rest = x[:, :len(mu)], x[:, len(mu):]
    exits = pivot[:, :, 1]
    for e in range(2, pivot.shape[2] - 1):  # in entry order
        exits = exits + pivot[:, :, e]
    if len(mus) == 1:  # the start
        return _mean(_div(pivot[:, :, -1], exits), mu)
    # x[coefficient, row, entry, slot, state, trust]
    x = _mul(_div(rest[:, :, 0, None], exits[:, None])[:, :, None],
             pivot[:, None, :, 1:].swapaxes(2, 3))
    x += rest[:, :, 1:, None]
    t = _average(x.reshape(x.shape[:3] + (-1, x.shape[-1])), mus[1:])
    return _mean(t.reshape((len(t), len(mu), states, -1)), mu)


def _mean(t: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum_j mu[j] t[:, j], added in slot order."""
    total = t[:, 0] * mu[0]
    for j in range(1, len(mu)):
        total += t[:, j] * mu[j]
    return total


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of truncated Taylor series, coefficients on axis 0."""
    if len(a) == 1:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k in range(len(a)):
        np.multiply(a[0], b[k], out=out[k])
        for i in range(1, k + 1):
            out[k] += a[i] * b[k - i]
    return out


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient of truncated Taylor series, coefficients on axis 0."""
    if len(a) == 1:
        return a / b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.divide(a[0], b[0], out=out[0])
    for k in range(1, len(a)):
        low = out[0] * b[k]
        for i in range(1, k):
            low += out[i] * b[k - i]
        np.divide(a[k] - low, b[0], out=out[k])
    return out


def simulate(
    net: Network,
    p: float,
    policy: TrustPolicy,
    start: str,
    n_walks: int,
    max_time: float | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Monte Carlo estimate of expected_time.

    Each walk draws one direction vector, then walks by the step
    distribution until home or until the accumulated time reaches
    `max_time` (default 1e4 x distance(start); it must be finite and
    positive), even on a step that arrives home. Censored walks are
    excluded from the mean and counted, never silently truncated; fewer
    than two finished walks give a std_error of NaN. `seed` must be
    non-negative, and `n_walks` times the number of nodes at most
    2**31 - 1, so that every walk's place fits one int32 index.

    Pointers and steps are drawn in chunks of WALK_CHUNK walks, the stream
    of one draw over all of them: one uniform per pointer and one per live
    walk per step, whatever the chunk. The pointers are kept as one table
    row per (walk, node), and each live walk as one int32 flat (walk, node)
    index into them plus its time; a step moves the survivors to the front
    of the same arrays, and its finish times go to the back of the time
    array. So with a table of at most 256 rows the walker holds n_nodes +
    12 bytes per walk in every phase up to the statistics, finish times
    included, plus 8 for each walk that finishes in the step being run. The
    statistics copy the finish times back into finish order beside the time
    array: at most 16 bytes per walk.
    """
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
    if n_walks * len(net.nodes) > np.iinfo(np.int32).max:
        raise ValidationError(
            f"n_walks={n_walks} walks x {len(net.nodes)} nodes exceed the "
            f"walker's {np.iinfo(np.int32).max} (walk, node) entries")
    if seed < 0:
        raise ValidationError(f"seed={seed} must be non-negative")
    steps = step_table(net, policy)
    if start not in net.nodes:
        raise ValidationError(f"unknown start node {start!r}")

    spd = shortest_paths(net)
    if max_time is None:
        max_time = 1e4 * max(spd.distance[start], 1.0)
    if not (math.isfinite(max_time) and max_time > 0):
        raise ValidationError(f"max_time={max_time} must be finite and positive")
    rng = np.random.default_rng(seed)

    form = compile_network(net)
    # the table row of every (walk, node) under the walk's drawn pointers,
    # walk after walk: walk w at node i reads rows[w * n_nodes + i]
    n_nodes, width = len(form.nodes), steps.cum.shape[1]
    rows = sample_pointer_slots(net, spd, p, n_walks, rng)
    rows += form.row_start.astype(rows.dtype)
    rows = rows.ravel()
    # entry row * width + s: how far slot s of that row's node moves the
    # flat (walk, node) index, whether it arrives home, and its length
    delta = (form.row_dest - form.row_node[:, None]).astype(np.int32).ravel()
    home_at = (form.row_dest == form.home).ravel()
    row_len = form.row_len.ravel()
    longest = float(row_len.max())
    thresholds = steps.cum.T[:-1]

    # times[:live]: the live walks' times; times[n_walks - done:]: the
    # finish times in reverse finish order, with a gap for the censored
    # walks between them. A start at home finishes every walk at 0
    times = np.zeros(n_walks)
    live = 0 if form.index[start] == form.home else n_walks
    done = n_walks - live
    # at[j]: live walk j's flat (walk, node) index into rows
    at = np.arange(form.index[start], live * n_nodes, n_nodes, dtype=np.int32)
    censored = 0
    reach = 0.0  # no walk's time is above it: one longest arc per step
    while live:
        reach += longest
        censor = reach >= max_time
        kept = 0
        ended = []  # the step's finish times, chunk by chunk
        # chunks draw consecutive uniforms, the stream of one draw per step;
        # survivors move to the front, never past the chunk being read
        for lo in range(0, live, WALK_CHUNK):
            hi = min(lo + WALK_CHUNK, live)
            u = rng.random(hi - lo)
            row = rows[at[lo:hi]].astype(np.intp)
            # the slot is the number of cumulative step chances at or below
            # u; the last column of a row is 1.0, and u < 1, so it is never
            # compared
            k = row * width
            for threshold in thresholds:
                k += u >= threshold[row]
            t = times[lo:hi] + row_len[k]
            home = home_at[k]
            keep = ~home
            if censor:  # a walk at or past the horizon is censored, home or not
                over = t >= max_time
                censored += int(np.count_nonzero(over))
                home &= ~over
                keep &= ~over
            if np.count_nonzero(home):
                ended.append(t[home])
            moved = at[lo:hi] + delta[k]
            n_keep = np.count_nonzero(keep)
            times[kept:kept + n_keep] = t[keep]
            at[kept:kept + n_keep] = moved[keep]
            kept += n_keep
        live = kept
        # all read now: behind the survivors, before the earlier finishers
        for piece in ended:
            times[n_walks - done - len(piece):n_walks - done] = piece[::-1]
            done += len(piece)
    del rows, at  # the statistics need only the finish times

    # back into finish order, so that mean and std sum in that order
    finished = times[n_walks - done:][::-1].copy()
    del times
    if done == 0:
        return SimulationResult(math.nan, math.nan, censored, n_walks, seed)
    mean = float(finished.mean())
    # one finish time shows no spread
    se = float(finished.std(ddof=1) / math.sqrt(done)) if done > 1 else math.nan
    return SimulationResult(mean, se, censored, n_walks, seed)
