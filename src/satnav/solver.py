"""Exact expected hitting times for fixed pointers, and their average.

For one direction vector the walk is a Markov chain on the nodes with home
absorbing: at a branch node the pointer arc is taken with the trust
probability, every other incident arc uniformly otherwise; a leaf reflects.
Expected hitting times solve a dense linear system per direction vector,
gathered from the step table's rows of I - P, and are then averaged with
the direction-space weights.

Nodes from which the induced chain cannot reach home -- or that can wander
into a region that cannot -- have infinite expected time. They are found by
reachability analysis before solving, so cycling pointer configurations are
exact infinities rather than solver blow-ups.

A vectorized Monte Carlo walker provides an independent check on all of the
exact machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import SingularSystem, ValidationError
from .network import Network, shortest_paths
from .pointers import (
    ENUMERATION_CAP,
    DirectionVector,
    WeightedDirectionSpace,
    compile_network,
    enumerate_direction_space,
    sample_pointer_slots,
    step_table,
)


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name}={value} outside [0, 1]")
    return float(value)


@dataclass(frozen=True)
class Uniform:
    """One trust probability at every branch node."""

    q: float

    def __post_init__(self):
        _check_probability("trust q", self.q)

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
            _check_probability(f"trust q_{k}", q)

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
        return dict(zip(self.nodes, self.times.tolist()))


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    censored: int
    n_walks: int
    seed: int


def step_distribution(
    net: Network, d: DirectionVector, policy: TrustPolicy, v: str
) -> dict[str, float]:
    """Arc probabilities for one step from `v` (which must not be home)."""
    if v == net.home:
        raise ValidationError("no step is taken from the home node")
    form = compile_network(net)
    steps = step_table(net, policy)
    i = form.index[v]
    ptr = form.arc_ids[i].index(d.pointer[v]) if i in form.branch else 0
    probs = steps.probs[form.row_start[i] + ptr]
    return dict(zip(form.arc_ids[i], probs.tolist()))


def hitting_times_for_direction(
    net: Network, d: DirectionVector | np.ndarray, policy: TrustPolicy
) -> TimeProfile:
    """Solve T(v) = sum_a P(a) (len(a) + T(other end)), T(home) = 0.

    `d` is a DirectionVector or one row of a direction space's pointer
    slots. Nodes whose walk has positive probability of never reaching home
    get +inf; the linear system is restricted to the rest.
    """
    form = compile_network(net)
    steps = step_table(net, policy)
    slots = form.slots_of(d) if isinstance(d, DirectionVector) else d
    rows, rhs = steps.system
    rid, solved, finite = steps.row_ids(slots), form.nonhome, steps.finite(slots)
    times = np.zeros(len(form.nodes))
    if finite is not None:
        times[solved[~finite]] = math.inf
        rows, solved, rid = rows[:, finite], solved[finite], rid[finite]
    if len(rid):
        try:
            times[solved] = np.linalg.solve(rows[rid], rhs[rid])
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                "hitting-time system singular for pointers "
                f"{form.pointers_at(slots)}: {exc}"
            ) from None
    return TimeProfile(form.nodes, times)


def profile_residual(
    net: Network, d: DirectionVector, policy: TrustPolicy, profile: TimeProfile
) -> float:
    """Max one-step recurrence violation over the finite entries."""
    worst = 0.0
    for v, t in profile.time.items():
        if v == net.home or math.isinf(t):
            continue
        expect = 0.0
        for a, prob in step_distribution(net, d, policy, v).items():
            arc = net.arc(a)
            expect += prob * (arc.length + profile.time[arc.other(v)])
        worst = max(worst, abs(t - expect))
    return worst


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
    """
    step_table(net, policy)
    if space is None:
        space = enumerate_direction_space(net, p=p, cap=cap)
    total = np.zeros(len(net.nodes))
    for slots, weight in zip(space.slots, space.weights.tolist()):
        if weight == 0.0:
            continue
        total += weight * hitting_times_for_direction(net, slots, policy).times
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
    distribution until home or until the accumulated time exceeds
    `max_time` (default 1e4 x distance(start)). Censored walks are
    excluded from the mean and counted, never silently truncated.
    """
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
    steps = step_table(net, policy)
    if start not in net.nodes:
        raise ValidationError(f"unknown start node {start!r}")

    spd = shortest_paths(net)
    if max_time is None:
        max_time = 1e4 * max(spd.distance[start], 1.0)
    if max_time <= 0:
        raise ValidationError("max_time must be positive")
    rng = np.random.default_rng(seed)

    form = compile_network(net)
    # one pointer slot per (walk, node); only branch columns are consulted
    ptr = sample_pointer_slots(net, spd, p, n_walks, rng)

    pos = np.full(n_walks, form.index[start], dtype=np.int64)
    times = np.zeros(n_walks)
    walk_id = np.arange(n_walks)
    hit_times: list[np.ndarray] = []
    censored = 0

    active = pos != form.home
    pos, times, walk_id = pos[active], times[active], walk_id[active]
    if n_walks - len(pos) > 0:
        hit_times.append(np.zeros(n_walks - len(pos)))

    while len(pos) > 0:
        cum = steps.cum[pos, ptr[walk_id, pos]]
        slot = (rng.random((len(pos), 1)) > cum).sum(axis=1)
        times = times + form.alen[pos, slot]
        pos = form.dest[pos, slot]
        done = pos == form.home
        if done.any():
            hit_times.append(times[done])
        keep = ~done
        over = keep & (times >= max_time)
        censored += int(over.sum())
        keep &= ~over
        pos, times, walk_id = pos[keep], times[keep], walk_id[keep]

    finished = np.concatenate(hit_times) if hit_times else np.array([])
    if len(finished) == 0:
        return SimulationResult(math.nan, math.nan, censored, n_walks, seed)
    mean = float(finished.mean())
    if len(finished) > 1:
        se = float(finished.std(ddof=1) / math.sqrt(len(finished)))
    else:
        se = 0.0
    return SimulationResult(mean, se, censored, n_walks, seed)
