"""Trust optimization: scalar for one trust everywhere, coordinate descent
for degree-indexed trusts, and optimal-trust-vs-reliability curves.

Expected time is smooth in the trust but not proven unimodal on arbitrary
networks, so every trust search scores a coarse grid first and refines only
inside the winning bracket. Both run on a `TrustLine`, a subtraction-free
elimination shared across pointer prefixes that makes no LAPACK call: one
pass scores every grid trust, and one pass carrying Taylor coefficients
gives the exact first and second derivatives for a
safeguarded Newton iteration on dE/dq = 0. The reported value is one
`expected_time` at the chosen trust. Uniform-mode searches stay inside
[eps, 1-eps]: expected time diverges at both trust endpoints when a branch
node sits next to home, so the clamp never hides an optimum.
Degree-indexed coordinates may legitimately sit at exactly 0 or 1 (a
degree-2 node whose two arcs both lead the same way wants trust 1), so
counting-mode searches score the exact endpoints on the same `TrustLine`
and keep one that wins the grid while the derivative there points outward;
an endpoint that strands the walk has infinite expected time and loses
automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from .closed_form import star_optimal_trust
from .errors import NonConvergence, ValidationError
from .network import Network, classify
from .pointers import ENUMERATION_CAP, enumerate_direction_space
from .solver import ByDegree, TrustLine, TrustPolicy, Uniform, expected_time

EPS = 1e-4
COORDINATE_TOL = 1e-6  # coordinate descent stops once no trust moves more
MAX_SWEEPS = 100
NEWTON_TOL = 1e-10  # a trust search stops once its bracket is this narrow
MAX_NEWTON = 100
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Diagnostics:
    grid_points: int
    iterations: int  # Newton steps
    residual: float  # width of the final bracket of the refinement


@dataclass(frozen=True)
class OptimizationResult:
    policy: TrustPolicy
    value: float
    start: str
    diagnostics: Diagnostics


def _grid(lo: float, hi: float, points: int) -> list[float]:
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points - 1)] + [hi]


def _grid_winner(grid: list[float], values: Sequence[float]) -> int:
    """Index of the smallest value; ties within 1e-12 resolve toward the
    smaller argument, so results are deterministic."""
    best = min(range(len(grid)), key=lambda i: (values[i], grid[i]))
    return next(i for i in range(best + 1)
                if values[i] <= values[best] + _TIE_TOL)


def _newton(line: TrustLine, a: float, b: float, x: float
            ) -> tuple[float, float, int]:
    """Root of dE/dq in [a, b] by Newton steps from x, safeguarded by
    bisection; returns (trust, final bracket width, steps).

    Each step moves the bracket end on x's side of the root up to x. A step
    that leaves the bracket, meets non-positive curvature or fails to halve
    the previous step bisects instead. Once a Newton step is shorter than
    half the tolerance, the next point lies that far beyond the estimate,
    so that the bracket closes around the root. A grid endpoint where the
    derivative points outward closes the bracket at once.
    """
    last = b - a
    for steps in range(1, MAX_NEWTON + 1):
        _, slope, curvature = line.derivatives(x)
        if slope == 0.0:
            return x, 0.0, steps
        if slope < 0.0:
            a = x
        else:
            b = x
        step = -slope / curvature if curvature > 0.0 else math.nan
        if b - a <= NEWTON_TOL:
            return (x + step if a <= x + step <= b else (a + b) / 2,
                    b - a, steps)
        if abs(step) < NEWTON_TOL / 2:
            step = math.copysign(NEWTON_TOL / 2, -slope)
        elif not (a < x + step < b and abs(step) <= last / 2):
            step = (a + b) / 2 - x
        x, last = x + step, abs(step)
    raise NonConvergence(
        f"trust search did not close its bracket within {MAX_NEWTON} steps")


def _search(line: TrustLine, lo: float, hi: float, points: int
            ) -> tuple[float, Diagnostics]:
    """The trust in [lo, hi] of least expected time on `line`: a grid of
    `points` trusts, then `_newton` inside the winner's bracket. Trusts 0
    and 1 are scored in a pass of their own: a zero step chance makes the
    line split nodes before eliminating, which the interior trusts need
    not pay for."""
    grid = _grid(lo, hi, points)
    inner = iter(line.values([q for q in grid if 0.0 < q < 1.0]))
    values = [next(inner) if 0.0 < q < 1.0 else line.values([q])[0]
              for q in grid]
    best = _grid_winner(grid, values)
    if values[best] == math.inf:  # every trust strands the walk
        return grid[best], Diagnostics(points, 0, hi - lo)
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, points - 1)]
    q, width, steps = _newton(line, a, b, grid[best])
    return q, Diagnostics(points, steps, width)


def optimize_uniform(
    net: Network,
    p: float,
    start: str,
    cap: int = ENUMERATION_CAP,
    warm: float | None = None,
) -> OptimizationResult:
    """Minimize expected time to home over a single trust in [eps, 1-eps].

    With `warm`, a 13-point grid within 0.06 of it is searched first; the
    full 101-point grid runs when that window's optimum is not interior.
    """
    space = enumerate_direction_space(net, p=p, cap=cap)
    line = TrustLine(net, p, start, Uniform(0.0), Uniform(1.0))
    found = None
    if warm is not None:
        wlo, whi = max(EPS, warm - 0.06), min(1.0 - EPS, warm + 0.06)
        q, diag = _search(line, wlo, whi, 13)
        if wlo + (whi - wlo) * 0.1 < q < whi - (whi - wlo) * 0.1:
            found = q, diag
    if found is None:
        found = _search(line, EPS, 1.0 - EPS, 101)
    q, diag = found
    return OptimizationResult(
        Uniform(q), expected_time(net, p, Uniform(q), start, space=space),
        start, diag)


def optimize_counting(
    net: Network,
    p: float,
    start: str,
    cap: int = ENUMERATION_CAP,
    warm: dict[int, float] | None = None,
) -> OptimizationResult:
    """Cyclic coordinate descent over the degree-indexed trust vector.

    Starts from the star-optimal trust for each degree, which is already
    exact on trees. Coordinates range over all of [0, 1]; an endpoint is
    kept when it wins the grid and the derivative there points outward,
    which reachability makes safe (a stranding endpoint scores +inf).
    """
    degrees = sorted({net.degree(v) for v in classify(net).branch_nodes})
    if not degrees:
        raise ValidationError("network has no branch node to optimize")
    if len(degrees) > 4:
        raise ValidationError(
            f"{len(degrees)} distinct branch degrees exceed the desk-scale "
            "limit of 4"
        )
    space = enumerate_direction_space(net, p=p, cap=cap)
    trusts = {k: star_optimal_trust(k, p) for k in degrees}
    if warm is not None:
        trusts.update({k: warm[k] for k in degrees if k in warm})
    for _ in range(MAX_SWEEPS):
        largest_move = 0.0
        for k in degrees:
            line = TrustLine(net, p, start, ByDegree({**trusts, k: 0.0}),
                             ByDegree({**trusts, k: 1.0}))
            q, diag = _search(line, 0.0, 1.0, 101)
            largest_move = max(largest_move, abs(q - trusts[k]))
            trusts[k] = q
        if largest_move < COORDINATE_TOL:
            policy = ByDegree(dict(trusts))
            value = expected_time(net, p, policy, start, space=space)
            return OptimizationResult(policy, value, start, diag)
    raise NonConvergence(
        f"coordinate descent did not settle within {MAX_SWEEPS} sweeps"
    )


def trust_curve(
    net: Network,
    p_grid: Sequence[float],
    start: str,
    mode: Literal["uniform", "counting"] = "uniform",
    cap: int = ENUMERATION_CAP,
) -> list[tuple[float, OptimizationResult]]:
    """One optimization per reliability, warm-started from the previous."""
    p_grid = list(p_grid)
    if any(not 0.0 < p < 1.0 for p in p_grid):
        raise ValidationError("reliability grid must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValidationError("reliability grid must be strictly increasing")
    if mode not in ("uniform", "counting"):
        raise ValidationError(f"unknown optimization mode {mode!r}")

    rows: list[tuple[float, OptimizationResult]] = []
    warm_uniform: float | None = None
    warm_counting: dict[int, float] | None = None
    for p in p_grid:
        if mode == "uniform":
            res = optimize_uniform(net, p, start, cap=cap, warm=warm_uniform)
            warm_uniform = res.policy.q
        else:
            res = optimize_counting(net, p, start, cap=cap, warm=warm_counting)
            warm_counting = dict(res.policy.q_by_degree)
        rows.append((p, res))
    return rows
