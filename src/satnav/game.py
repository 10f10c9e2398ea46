"""Two-player first-to-home game on the line 0-1-2 with home at node 2.

Both players carry the same pointer at node 1 (drawn once per play, correct
with probability p) and trust it with their own probabilities q (player I)
and r (player II). The payoff is the probability that player I reaches home
first; simultaneous arrival is settled by a fair coin. In the symmetric game
both start at node 1; in the asymmetric game player I starts at node 1 and
player II at node 0, so their positions alternate and a tie is impossible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegeneratePolicy, OutOfRange, ValidationError
from .optimize import minimize_scalar_grid


class Regime(enum.Enum):
    SYMMETRIC_START = "symmetric-start"
    ASYM_HIGH_P = "asym-high-p"
    ASYM_MID_P = "asym-mid-p"
    ASYM_RANDOM_WALK = "asym-random-walk"


@dataclass(frozen=True)
class GamePayoff:
    p: float
    q: float
    r: float
    v: float  # probability player I wins


@dataclass(frozen=True)
class GameSolution:
    regime: Regime
    q_star: float
    r_star: float
    value: float


@dataclass(frozen=True)
class ResponseCurves:
    p: float
    mode: str
    opponent_q: tuple[float, ...]
    best_r: tuple[float, ...]  # II's reply to each q
    opponent_r: tuple[float, ...]
    best_q: tuple[float, ...]  # I's reply to each r


@dataclass(frozen=True)
class GameSimulation:
    win_probability: float
    std_error: float
    n_plays: int
    seed: int


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name}={value} outside [0, 1]")
    return float(value)


def symmetric_payoff(p: float, q: float, r: float) -> float:
    """P(player I wins) when both start at node 1.

    Conditional on a correct pointer the failure mode is both players
    stepping away together; conditional on a wrong one it is both obeying
    together. (q, r) = (0, 0) leaves the correct-pointer play unending and
    (1, 1) the wrong-pointer play, so those pairs have no value unless the
    offending component has zero weight.
    """
    _check_prob("reliability p", p)
    _check_prob("trust q", q)
    _check_prob("trust r", r)
    v = 0.0
    if p > 0.0:
        denom = 2.0 * (q + r - q * r)
        if denom == 0.0:
            raise DegeneratePolicy(
                "q = r = 0: with a correct pointer neither player ever steps home"
            )
        v += p * (2.0 * q - q * r) / denom
    if p < 1.0:
        denom = 2.0 * (1.0 - q * r)
        if denom == 0.0:
            raise DegeneratePolicy(
                "q = r = 1: with a wrong pointer both players oscillate forever"
            )
        v += (1.0 - p) * (1.0 - q + r - q * r) / denom
    return v


def asymmetric_payoff(p: float, q: float, r: float) -> float:
    """P(player I wins) when I starts at node 1 and II at node 0.

    Equivalent to alternating coin tosses: per visit to node 1 a player
    steps home with probability q (or r) if the pointer is correct, else
    1 - q (or 1 - r), player I tossing first.
    """
    _check_prob("reliability p", p)
    _check_prob("trust q", q)
    _check_prob("trust r", r)
    v = 0.0
    if p > 0.0:
        denom = q + r - q * r
        if denom == 0.0:
            raise DegeneratePolicy(
                "q = r = 0: with a correct pointer neither player ever steps home"
            )
        v += p * q / denom
    if p < 1.0:
        denom = 1.0 - q * r
        if denom == 0.0:
            raise DegeneratePolicy(
                "q = r = 1: with a wrong pointer both players oscillate forever"
            )
        v += (1.0 - p) * (1.0 - q) / denom
    return v


def evaluate_payoff(p: float, q: float, r: float,
                    mode: str = "symmetric") -> GamePayoff:
    """Payoff record for one trust pair."""
    return GamePayoff(p, q, r, _payoff_fn(mode)(p, q, r))


def symmetric_equilibrium(p: float) -> GameSolution:
    """Both players trust alike; the value is 1/2 by symmetry.

    The closed form has a removable singularity at p = 1/2 with limit 1/2
    (both players walk randomly).
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"reliability p={p} must lie strictly in (0, 1)")
    if abs(2.0 * p - 1.0) < 1e-12:
        q = 0.5
    else:
        q = (-1.0 + p + math.sqrt(1.0 - 3.0 * p + 3.0 * p * p)) / (2.0 * p - 1.0)
    return GameSolution(Regime.SYMMETRIC_START, q, q, 0.5)


def asymmetric_q_mid(p: float) -> float:
    """Player I's interior optimal trust for 1/2 < p < 4/5."""
    return (1.0 + p - 3.0 * math.sqrt(p * (1.0 - p))) / (2.0 * p - 1.0)


def asymmetric_equilibrium(p: float) -> GameSolution:
    """Equilibrium when I starts at node 1, II at node 0.

    Player II randomizes (r = 1/2) in every regime. Player I commits fully
    for p >= 4/5 (value p), plays the interior trust for 1/2 < p < 4/5
    (value 4/3 (1 - sqrt(p(1-p)))), and at p = 1/2 walks randomly too
    (value 2/3). The two upper formulas agree at p = 4/5.
    """
    if not 0.5 <= p <= 1.0:
        raise OutOfRange(
            f"asymmetric equilibrium is defined for 1/2 <= p <= 1, got {p}"
        )
    if p == 0.5:
        return GameSolution(Regime.ASYM_RANDOM_WALK, 0.5, 0.5, 2.0 / 3.0)
    if p >= 0.8:
        return GameSolution(Regime.ASYM_HIGH_P, 1.0, 0.5, p)
    value = (4.0 / 3.0) * (1.0 - math.sqrt(p * (1.0 - p)))
    return GameSolution(Regime.ASYM_MID_P, asymmetric_q_mid(p), 0.5, value)


def best_response(
    p: float, mode: str, player: str, opponent: float, tol: float = 1e-6
) -> float:
    """One player's payoff-optimal trust against a fixed opponent trust.

    `player` is "I" (maximizes the payoff over q) or "II" (minimizes it
    over r). The opponent trust must be interior so every response in
    [0, 1] has a well-defined payoff.
    """
    payoff = _payoff_fn(mode)
    if not 0.0 < opponent < 1.0:
        raise ValidationError("opponent trust must be interior to (0, 1)")
    if player == "I":
        f = lambda q: -payoff(p, q, opponent)
    elif player == "II":
        f = lambda r: payoff(p, opponent, r)
    else:
        raise ValidationError(f"unknown player {player!r}")
    x, _, _ = minimize_scalar_grid(f, 0.0, 1.0, grid_points=101, tol=tol)
    return x


def _payoff_fn(mode: str):
    if mode == "symmetric":
        return symmetric_payoff
    if mode == "asymmetric":
        return asymmetric_payoff
    raise ValidationError(f"unknown game mode {mode!r}")


def best_response_curves(
    p: float, mode: str, grid: Iterable[float], tol: float = 1e-6
) -> ResponseCurves:
    """Both reply curves over an interior grid of opponent trusts."""
    pts = tuple(float(g) for g in grid)
    if any(not 0.0 < g < 1.0 for g in pts):
        raise ValidationError("response grid must lie strictly in (0, 1)")
    best_r = tuple(best_response(p, mode, "II", g, tol) for g in pts)
    best_q = tuple(best_response(p, mode, "I", g, tol) for g in pts)
    return ResponseCurves(p, mode, pts, best_r, pts, best_q)


def simulate_game(
    p: float,
    q: float,
    r: float,
    mode: str,
    n_plays: int,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> GameSimulation:
    """Play the game move by move and estimate P(player I wins).

    The shared pointer is drawn once per play. Symmetric plays move both
    players each time step and settle simultaneous arrivals with a fair
    coin; asymmetric plays alternate I-then-II, where a tie is structurally
    impossible (the simulator asserts it).
    """
    payoff = _payoff_fn(mode)  # validates mode; also raises on degenerate q, r
    payoff(p, q, r)
    if n_plays < 1:
        raise ValidationError("n_plays must be >= 1")
    rng = np.random.default_rng(seed)
    correct = rng.random(n_plays) < p
    a = np.where(correct, q, 1.0 - q)  # P(I steps home per visit to node 1)
    b = np.where(correct, r, 1.0 - r)

    wins = np.zeros(n_plays)
    active = np.ones(n_plays, dtype=bool)
    for _ in range(max_rounds):
        if not active.any():
            break
        if mode == "symmetric":
            i_home = active & (rng.random(n_plays) < a)
            ii_home = active & (rng.random(n_plays) < b)
            tie = i_home & ii_home
            wins[tie] = rng.random(int(tie.sum())) < 0.5
            wins[i_home & ~ii_home] = 1.0
            active &= ~(i_home | ii_home)
        else:
            i_home = active & (rng.random(n_plays) < a)
            wins[i_home] = 1.0
            still = active & ~i_home
            ii_home = still & (rng.random(n_plays) < b)
            assert not (i_home & ii_home).any(), "tie in the asymmetric game"
            active &= ~(i_home | ii_home)
    unresolved = int(active.sum())
    if unresolved:
        raise DegeneratePolicy(
            f"{unresolved} plays unresolved after {max_rounds} rounds"
        )
    mean = float(wins.mean())
    se = math.sqrt(max(mean * (1.0 - mean), 0.0) / n_plays)
    return GameSimulation(mean, se, n_plays, seed)
