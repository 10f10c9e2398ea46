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

A vectorized Monte Carlo walker provides an independent check on all of the
exact machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import SingularSystem, ValidationError, check_probability
from .network import Network, shortest_paths
from .pointers import (
    ENUMERATION_CAP,
    WeightedDirectionSpace,
    compile_network,
    enumerate_direction_space,
    sample_pointer_slots,
    step_table,
)

BLOCK = 1024  # directions per stacked solve in expected_profile


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
    rows, rhs, finite = step_table(net, policy).gather(block)
    try:
        solved = np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"hitting-time system singular in a block of "
                             f"{len(block)} directions: {exc}") from None
    times = np.zeros((len(block), len(form.nodes)))
    times[:, form.nonhome] = np.where(finite, solved, math.inf)
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
