"""Exact expected hitting times for fixed pointers, and their average.

For one direction vector the walk is a Markov chain on the nodes with home
absorbing: at a branch node the pointer arc is taken with the trust
probability, every other incident arc uniformly otherwise; a leaf reflects.
Expected hitting times solve a dense linear system per direction vector,
gathered from the step table's rows of I - P, one stacked solve per block
of directions, and are then averaged with the direction-space weights.

Nodes from which the induced chain cannot reach home -- or that can wander
into a region that cannot -- have infinite expected time. They are found by
reachability analysis before solving and get identity rows, so cycling
pointer configurations are exact infinities rather than solver blow-ups.
A solve that fails in LAPACK or returns a negative or NaN time raises
SingularSystem instead of answering.

Along one trust coordinate every system is affine in the trust, so a
`TrustLine` gathers intercept and slope once per block of directions for
all the trusts of an optimizer's search, and gives the exact first and
second derivatives of the expected time from the same matrices.

A vectorized Monte Carlo walker provides an independent check on all of the
exact machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Union

import numpy as np

from .errors import SingularSystem, ValidationError, check_probability
from .network import Network, shortest_paths
from .pointers import (
    ENUMERATION_CAP,
    StepTable,
    WeightedDirectionSpace,
    assemble,
    compile_network,
    enumerate_direction_space,
    sample_pointer_slots,
    step_table,
)

BLOCK = 1024  # directions per stacked solve in expected_profile
# directions per gathered block of a TrustLine; it keeps intercept, slope
# and one trust's system per block, so it is smaller than BLOCK to hold
# the search's peak memory near the exact path's
TRUST_BLOCK = 256


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


def _solve(rows: np.ndarray, rhs: np.ndarray, times: bool = True) -> np.ndarray:
    """One stacked `np.linalg.solve` of rows @ x = rhs, for every stacked
    hitting-time solve. SingularSystem when LAPACK fails, or when solved
    `times` (not derivatives) hold a negative or NaN entry: near trust 0 or
    1 the LU can lose the escape mass of a near trap."""
    try:
        solved = np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"hitting-time system singular in a block of "
                             f"{len(rows)} directions: {exc}") from None
    if times and not (solved >= 0.0).all():
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
    """
    step_table(net, policy)
    if space is None:
        space = enumerate_direction_space(net, p=p, cap=cap)
    elif space.form is not compile_network(net) or space.reliability != p:
        raise ValidationError("space= was enumerated for another network or "
                              "reliability")
    kept = np.flatnonzero(space.weights)
    total = np.zeros(len(net.nodes))
    for ids in np.split(kept, range(BLOCK, len(kept), BLOCK)):
        times = hitting_times_for_direction(net, space.slots[ids], policy).times
        # rows add to the total one after another, in direction order
        total = np.vstack([total, space.weights[ids, None] * times]).sum(axis=0)
    return dict(zip(net.nodes, total.tolist()))


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
    """The hitting-time systems of every direction of `space` along one
    trust coordinate, `policy_at(q)`: every branch row under `Uniform`, the
    rows of one degree under `ByDegree`; expected times are read at `start`.

    Each table row's row of I - P and one-step length are intercept + q *
    slope. The intercept is the system at q = 0; the slope is assembled
    from the step chances at q = 1 minus those at q = 0, which is exactly
    +1 on the pointer slot and -1/(deg-1) on each other slot of the
    coordinate's rows, and 0 on every other row. Trusts strictly inside
    (0, 1) share one zero pattern, so one gather of intercept and slope per
    block of directions serves them all; a trust of 0 or 1 is solved with
    its own pattern of identity rows.

    A(q) T = b(q) gives A T' = b1 - A1 T and A T'' = -2 A1 T' on the same
    matrix, where A1 and b1 are the slopes.
    """

    def __init__(self, net: Network, space: WeightedDirectionSpace, start: str,
                 policy_at: Callable[[float], TrustPolicy]):
        if start not in net.nodes:
            raise ValidationError(f"unknown start node {start!r}")
        self.form = form = compile_network(net)
        self.net, self.space, self.start = net, space, start
        self.policy_at = policy_at
        self.col = form.col[form.index[start]]  # past the last column at home
        low, high = StepTable(form, policy_at(0.0)), StepTable(form, policy_at(1.0))
        self.intercept = low.system
        self.slope = assemble(form, high.probs - low.probs, 0.0)
        self.interior = StepTable(form, policy_at(0.5))

    def _blocks(self, pattern: StepTable) -> Iterator[tuple]:
        """Per block of positive-weight directions: weights, finite mask,
        and the gathered intercept and slope matrices and lengths."""
        (a0, b0), (a1, b1) = self.intercept, self.slope
        kept = np.flatnonzero(self.space.weights)
        for ids in np.split(kept, range(TRUST_BLOCK, len(kept), TRUST_BLOCK)):
            rid, finite = pattern.table_rows(self.space.slots[ids])
            yield (self.space.weights[ids], finite,
                   a0[rid], a1[rid], b0[rid], b1[rid])

    def _at_start(self, weights, finite, *solved) -> list[float]:
        """Weighted sums of the start's entry of each solved block; +inf
        where a direction strands the start."""
        if self.col == finite.shape[1]:
            return [0.0] * len(solved)
        keep = finite[:, self.col]
        return [float(weights @ np.where(keep, x[:, self.col], math.inf))
                for x in solved]

    def values(self, trusts) -> np.ndarray:
        """Expected time from the start at each trust strictly inside
        (0, 1): one stacked solve per trust and block."""
        total = np.zeros(len(trusts))
        for weights, finite, a0, a1, b0, b1 in self._blocks(self.interior):
            for j, q in enumerate(trusts):
                total[j] += self._at_start(
                    weights, finite, _solve(a0 + q * a1, b0 + q * b1))[0]
        return total

    def derivatives(self, q: float) -> tuple[float, float, float]:
        """Expected time from the start at trust q with its first and second
        derivative in q; at q = 0 or 1, the one-sided derivatives of the
        system with that trust's own pattern of identity rows."""
        pattern = (self.interior if 0.0 < q < 1.0
                   else StepTable(self.form, self.policy_at(q)))
        total = np.zeros(3)
        for weights, finite, a0, a1, b0, b1 in self._blocks(pattern):
            a = a0 + q * a1
            t = _solve(a, b0 + q * b1)
            t1 = _solve(a, b1 - (a1 @ t[..., None])[..., 0], times=False)
            t2 = _solve(a, -2.0 * (a1 @ t1[..., None])[..., 0], times=False)
            total += self._at_start(weights, finite, t, t1, t2)
        return tuple(total.tolist())


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
    positive). Censored walks are excluded from the mean and counted,
    never silently truncated. `seed` must be non-negative.
    """
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
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
    rows = (sample_pointer_slots(net, spd, p, n_walks, rng)
            + form.row_start.astype(np.min_scalar_type(len(form.row_node) - 1))
            ).ravel()
    # entry row * width + s: where slot s of that row's node leads, and its length
    row_dest = form.dest[form.row_node].astype(np.int32).ravel()
    row_len = form.alen[form.row_node].ravel()

    pos = np.full(n_walks, form.index[start], dtype=np.int32)
    times = np.zeros(n_walks)
    at = np.arange(0, n_walks * n_nodes, n_nodes)
    hit_times: list[np.ndarray] = []
    censored = 0

    active = pos != form.home
    pos, times, at = pos[active], times[active], at[active]
    if n_walks - len(pos) > 0:
        hit_times.append(np.zeros(n_walks - len(pos)))

    while len(pos) > 0:
        u = rng.random(len(pos))
        row = rows[at + pos].astype(np.intp)
        # the slot is the number of cumulative step chances below u; the
        # last column of a row is 1.0, and u < 1, so it is never compared
        k = row * width
        for threshold in steps.cum.T[:-1]:
            k += u > threshold[row]
        times += row_len[k]
        pos = row_dest[k]
        done = pos == form.home
        if done.any():
            hit_times.append(times[done])
        keep = ~done
        over = keep & (times >= max_time)
        censored += int(over.sum())
        keep &= ~over
        pos, times, at = pos[keep], times[keep], at[keep]

    finished = np.concatenate(hit_times) if hit_times else np.array([])
    if len(finished) == 0:
        return SimulationResult(math.nan, math.nan, censored, n_walks, seed)
    mean = float(finished.mean())
    if len(finished) > 1:
        se = float(finished.std(ddof=1) / math.sqrt(len(finished)))
    else:
        se = 0.0
    return SimulationResult(mean, se, censored, n_walks, seed)
