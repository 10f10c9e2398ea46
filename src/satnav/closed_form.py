"""Exact formulas for stars, bridge nodes, trees, and line graphs.

These agree with the slow method (solve-and-average) to rounding error but
cost nothing. The star/bridge multiplier M is the common engine: a searcher
at a degree-n node next to its target either crosses the final arc or pays
a round trip down one of the other arcs, and optimizing the trust there is
independent of what the round trips cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (NotATree, ValidationError, check_open_probability,
                     check_probability)
from .network import Network, classify
from .solver import ByDegree

# relative window around the removable singularity p = (n-1)/n where the
# closed form for the optimal trust cancels catastrophically
_SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class StarSpec:
    """Star with home on a ray of length c and n-1 other rays."""

    n: int
    c: float
    ray_lengths: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"star degree n={self.n} must be >= 2")
        if len(self.ray_lengths) != self.n - 1:
            raise ValidationError(
                f"star of degree {self.n} needs {self.n - 1} ray lengths, "
                f"got {len(self.ray_lengths)}"
            )
        if self.c <= 0 or any(r <= 0 for r in self.ray_lengths):
            raise ValidationError("all star arc lengths must be positive")

    @property
    def alpha(self) -> float:
        return sum(self.ray_lengths)


@dataclass(frozen=True)
class BridgeSpec:
    """Degree-n node whose home-side arc (length c) is a bridge; the other
    arcs have expected round-trip times beta_i back to the node."""

    n: int
    c: float
    return_times: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"bridge degree n={self.n} must be >= 2")
        if len(self.return_times) != self.n - 1:
            raise ValidationError(
                f"bridge node of degree {self.n} needs {self.n - 1} return "
                f"times, got {len(self.return_times)}"
            )
        if self.c <= 0 or any(b <= 0 for b in self.return_times):
            raise ValidationError("bridge lengths and return times must be positive")

    @property
    def beta(self) -> float:
        return sum(self.return_times)


@dataclass(frozen=True)
class LineCoefficients:
    """Geometric factor z and the ray-independent optimal trust on a line."""

    z: float
    optimal_q: float


def star_optimal_trust(n: int, p: float) -> float:
    """Trust minimizing the time from a degree-n star center to home.

    Independent of the ray lengths. The denominator vanishes at
    p = (n-1)/n, where the limit is exactly 1/2.
    """
    if n < 2:
        raise ValidationError(f"star degree n={n} must be >= 2")
    check_open_probability("reliability p", p)
    denom = 1.0 - n * (1.0 - p)
    if abs(denom) < _SINGULAR_TOL:
        return 0.5
    return (p - math.sqrt(n - 1) * math.sqrt(p * (1.0 - p))) / denom


def bridge_M(n: int, p: float, q: float) -> float:
    """Round-trip multiplier: expected time to home from a degree-n node
    across a bridge arc is c + M * (sum of return times)."""
    if n < 2:
        raise ValidationError(f"bridge degree n={n} must be >= 2")
    check_probability("reliability p", p)
    check_open_probability("trust q", q)
    return (p - 2.0 * q + q * q + n * q - n * p * q) / (q * (1.0 - q) * (n - 1))


def star_time(s: StarSpec, p: float, q: float) -> float:
    """Expected time from the star center to home under trust q; bridge_M
    checks p and q."""
    return s.c + 2.0 * bridge_M(s.n, p, q) * s.alpha


def bridge_time(b: BridgeSpec, p: float, q: float) -> float:
    """Expected time to home across the bridge arc: c + M * beta; bridge_M
    checks p and q."""
    return b.c + bridge_M(b.n, p, q) * b.beta


def line_z(p: float, q: float) -> float:
    """Geometric factor for crossing a line; equals bridge_M at n = 2.

    At the optimal trust it simplifies to 2 sqrt(p (1 - p)).
    """
    check_probability("reliability p", p)
    check_open_probability("trust q", q)
    return (q * q - 2.0 * p * q + p) / (q * (1.0 - q))


def line_coefficients(p: float) -> LineCoefficients:
    """z and the optimal trust for a line at reliability p."""
    q = star_optimal_trust(2, p)
    return LineCoefficients(line_z(p, q), q)


def line_increments(lengths: Sequence[float], count: int, p: float,
                    q: float) -> list[float]:
    """Expected times from node j to node j+1 on the half-line 0-1-2-...,
    for every j < count, in one pass of the recursion
    S(0) = a_0, S(j) = a_j + (a_{j-1} + S(j-1)) z: wandering left of j
    costs a round trip whose far side is the previous increment.

    lengths[i] is the arc between nodes i and i+1. Each length is checked
    as the pass reaches it, and must be finite and positive; the
    reliability and the trust are checked once the first length has passed.
    """
    a = [float(x) for x in lengths[:count]]
    out: list[float] = []
    for m, x in enumerate(a):
        if not (math.isfinite(x) and x > 0):
            raise ValidationError(
                f"arc {m} has length {x}; lengths must be finite and positive"
            )
        if m == 0:
            check_probability("reliability p", p)
            z = line_z(p, q)
            out.append(x)
        else:
            out.append(x + (a[m - 1] + out[-1]) * z)
    if len(a) < count:
        raise ValidationError(
            f"increment from node {len(a)} needs {len(a) + 1} arc lengths, "
            f"got {len(lengths)}"
        )
    return out


def line_increment(lengths: Sequence[float], j: int, p: float,
                   q: float) -> float:
    """Expected time from node j to node j+1 on the half-line 0-1-2-...;
    see `line_increments`."""
    if j < 0:
        raise ValidationError(f"node index j={j} must be >= 0")
    if len(lengths) < j + 1:
        raise ValidationError(
            f"increment from node {j} needs {j + 1} arc lengths, "
            f"got {len(lengths)}"
        )
    return line_increments(lengths, j + 1, p, q)[j]


def line_cross_time(lengths: Sequence[float], j: int, p: float,
                    q: float) -> float:
    """Expected time from node 0 to node j: the increments summed in order,
    so the telescoping identity with line_increment is exact by
    construction."""
    if j < 0:
        raise ValidationError(f"node index j={j} must be >= 0")
    return sum(line_increments(lengths, j, p, q))


def unit_line_cross_time(j: int, p: float) -> float:
    """Optimal expected time from node 0 to node j on a unit line.

    Uses the closed form at the optimal trust, where z = 2 sqrt(p (1-p)).
    p = 1/2 gives the random walk and exactly j**2; near p = 1/2 the closed
    form cancels badly, so the geometric sums are evaluated directly there.
    """
    if j < 0:
        raise ValidationError(f"node index j={j} must be >= 0")
    return _unit_line_cross_times(p, range(j, j + 1))[0]


def _unit_line_cross_times(p: float, js: range) -> list[float]:
    """`unit_line_cross_time` for every node j in `js`; near p = 1/2 one
    pass of the running sums serves them all."""
    check_probability("reliability p", p)
    if p == 0.5:
        return [float(j * j) for j in js]
    z = 2.0 * math.sqrt(p * (1.0 - p))
    if abs(1.0 - z) >= 1e-6:
        return [(j - j * z * z + 2.0 * z * (z ** j - 1.0)) / (1.0 - z) ** 2
                for j in js]
    times = []
    total = 0.0
    zpow_sum = 0.0  # z + z^2 + ... + z^m
    zpow = 1.0
    for m in range(js.stop):
        if m in js:
            times.append(total)
        total += 1.0 + 2.0 * zpow_sum
        zpow *= z
        zpow_sum += zpow
    return times


def tree_solve_counting(
    net: Network, p: float
) -> tuple[ByDegree, dict[str, float]]:
    """Optimal degree-indexed trusts and expected times to home on a tree.

    The optimal trust at a degree-k node is the star value for degree k.
    Expected times accumulate one increment per arc on the unique path to
    home, each increment computed leaf-upward from the round trips into the
    node's subtree.
    """
    check_open_probability("reliability p", p)
    if len(net.arcs) != len(net.nodes) - 1:
        raise NotATree(
            f"{len(net.nodes)} nodes need exactly {len(net.nodes) - 1} arcs "
            f"in a tree, got {len(net.arcs)}"
        )

    branch_degrees = sorted({net.degree(v) for v in classify(net).branch_nodes})
    policy = ByDegree({k: star_optimal_trust(k, p) for k in branch_degrees})

    # every block is one arc; leaf-up, increment S(v) is the expected time
    # from v to its attachment, and back[v] sums the round trips below v
    increment: dict[str, float] = {}
    back = dict.fromkeys(net.nodes, 0.0)
    for (arc,), attach in net.blocks:
        v = arc.other(attach)
        s = arc.length
        if net.degree(v) > 1:
            m = bridge_M(net.degree(v), p, policy.trust_at(net.degree(v)))
            s += m * back[v]
        increment[v] = s
        back[attach] += arc.length + s

    profile: dict[str, float] = {net.home: 0.0}
    for (arc,), attach in reversed(net.blocks):  # home-down
        v = arc.other(attach)
        profile[v] = profile[attach] + increment[v]
    return policy, profile
