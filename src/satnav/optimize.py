"""Trust optimization: scalar for one trust everywhere, coordinate descent
for degree-indexed trusts, and optimal-trust-vs-reliability curves.

Expected time is smooth in the trust but not proven unimodal on arbitrary
networks, so every scalar search runs a coarse grid first and golden-section
refinement only inside the winning bracket. Uniform-mode searches stay
inside [eps, 1-eps]: expected time diverges at both trust endpoints when a
branch node sits next to home, so the clamp never hides an optimum.
Degree-indexed coordinates may legitimately sit at exactly 0 or 1 (a
degree-2 node whose two arcs both lead the same way wants trust 1), so
counting-mode searches include the exact endpoints and keep them when they
win; an endpoint that strands the walk has infinite expected time and loses
automatically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .closed_form import star_optimal_trust
from .errors import NonConvergence, ValidationError
from .network import Network, classify
from .pointers import ENUMERATION_CAP, enumerate_direction_space
from .solver import ByDegree, TrustPolicy, Uniform, expected_time

EPS = 1e-4
COORDINATE_TOL = 1e-6  # coordinate descent stops once no trust moves more
MAX_SWEEPS = 100
_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Diagnostics:
    grid_points: int
    iterations: int
    residual: float  # width of the final golden-section bracket


@dataclass(frozen=True)
class OptimizationResult:
    policy: TrustPolicy
    value: float
    start: str
    diagnostics: Diagnostics


def golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float, int]:
    """Minimize a unimodal f on [lo, hi]; returns (x, f(x), iterations)."""
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd), iterations


def minimize_scalar_grid(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid_points: int = 101,
    tol: float = 1e-10,
) -> tuple[float, float, Diagnostics]:
    """Coarse grid, then golden section inside the winning bracket.

    Grid ties within 1e-12 resolve toward the smaller argument so results
    are deterministic. If a grid endpoint wins outright it is returned
    exactly (the bracket refinement cannot beat it).
    """
    if grid_points < 3:
        raise ValidationError("grid needs at least 3 points")
    step = (hi - lo) / (grid_points - 1)
    grid = [lo + i * step for i in range(grid_points - 1)] + [hi]
    values = [f(x) for x in grid]
    best = min(range(grid_points), key=lambda i: (values[i], grid[i]))
    for i in range(best):
        if values[i] <= values[best] + _TIE_TOL:
            best = i
            break
    blo = grid[max(best - 1, 0)]
    bhi = grid[min(best + 1, grid_points - 1)]
    x, fx, iterations = golden_section(f, blo, bhi, tol)
    # Near a smooth minimum the golden bracket is limited by function-value
    # noise; one guarded parabolic vertex fit recovers several digits. The
    # acceptance allowance is a few ulps: at the noise floor the vertex can
    # be closer to the minimizer without a smaller function value.
    h = (hi - lo) * 1e-5
    if x - h > lo and x + h < hi:
        f_minus, f_plus = f(x - h), f(x + h)
        curvature = f_plus - 2.0 * fx + f_minus
        if curvature > 0.0:
            vertex = x + h * (f_minus - f_plus) / (2.0 * curvature)
            if abs(vertex - x) <= h:
                f_vertex = f(vertex)
                if f_vertex <= fx + 64.0 * sys.float_info.epsilon * max(
                    1.0, abs(fx)
                ):
                    x, fx = vertex, f_vertex
    if values[best] <= fx:
        x, fx = grid[best], values[best]
    return x, fx, Diagnostics(grid_points, iterations, bhi - blo)


def _refine_near(
    f: Callable[[float], float],
    center: float,
    lo: float,
    hi: float,
) -> tuple[float, float, Diagnostics] | None:
    """Warm-started local search within 0.06 of `center`; None when that
    window does not bracket a minimum and the caller should fall back to
    the full grid."""
    wlo = max(lo, center - 0.06)
    whi = min(hi, center + 0.06)
    x, fx, diag = minimize_scalar_grid(f, wlo, whi, grid_points=13)
    interior = wlo + (whi - wlo) * 0.1 < x < whi - (whi - wlo) * 0.1
    return (x, fx, diag) if interior else None


def optimize_uniform(
    net: Network,
    p: float,
    start: str,
    cap: int = ENUMERATION_CAP,
    warm: float | None = None,
) -> OptimizationResult:
    """Minimize expected time to home over a single trust in [eps, 1-eps]."""
    space = enumerate_direction_space(net, p=p, cap=cap)

    def f(q: float) -> float:
        return expected_time(net, p, Uniform(q), start, space=space)

    found = None
    if warm is not None:
        found = _refine_near(f, warm, EPS, 1.0 - EPS)
    if found is None:
        found = minimize_scalar_grid(f, EPS, 1.0 - EPS)
    q, value, diag = found
    return OptimizationResult(Uniform(q), value, start, diag)


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
    kept only when it beats the refined interior, which reachability makes
    safe (a stranding endpoint scores +inf).
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

    def f_coord(k: int, q: float) -> float:
        policy = ByDegree({**trusts, k: q})
        return expected_time(net, p, policy, start, space=space)

    for _ in range(MAX_SWEEPS):
        largest_move = 0.0
        for k in degrees:
            q, _, diag = minimize_scalar_grid(lambda q: f_coord(k, q), 0.0, 1.0)
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
