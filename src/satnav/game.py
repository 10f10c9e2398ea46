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

from .errors import (DegeneratePolicy, OutOfRange, ValidationError,
                     check_open_probability, check_probability)

MAX_ROUNDS = 10_000  # time steps before simulate_game gives up on a play


class Regime(enum.Enum):
    SYMMETRIC_START = "symmetric-start"
    ASYM_HIGH_P = "asym-high-p"
    ASYM_MID_P = "asym-mid-p"
    ASYM_RANDOM_WALK = "asym-random-walk"


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
    opponent: tuple[float, ...]  # the grid of opponent trusts
    best_r: tuple[float, ...]  # II's reply to each opponent trust q
    best_q: tuple[float, ...]  # I's reply to each opponent trust r


@dataclass(frozen=True)
class GameSimulation:
    win_probability: float
    std_error: float
    n_plays: int
    seed: int


# Each payoff is p N1/D1 + (1 - p) N2/D2, the races under a correct and a
# wrong pointer. Per mode, ((N1, D1), (N2, D2)) as the coefficients
# (c0, c1, c2, c3) of bilinear forms, which `_form` sums in that order.
_FORMS = {
    "symmetric": (((0.0, 2.0, 0.0, -1.0), (0.0, 2.0, 2.0, -2.0)),
                  ((1.0, -1.0, 1.0, -1.0), (2.0, 0.0, 0.0, -2.0))),
    "asymmetric": (((0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1.0, -1.0)),
                   ((1.0, -1.0, 0.0, 0.0), (1.0, 0.0, 0.0, -1.0))),
}
_ENDLESS = ("q = r = 0: with a correct pointer neither player ever steps home",
            "q = r = 1: with a wrong pointer both players oscillate forever")


def _forms(mode: str):
    try:
        return _FORMS[mode]
    except KeyError:
        raise ValidationError(f"unknown game mode {mode!r}") from None


def _form(c, q: float, r: float) -> float:
    return c[0] + c[1] * q + c[2] * r + c[3] * (q * r)


def _payoff(mode: str, p: float, q: float, r: float) -> float:
    """P(player I wins). (q, r) = (0, 0) leaves the correct-pointer race
    unending and (1, 1) the wrong-pointer race, so those pairs have no
    value unless that race has weight 0."""
    races = _forms(mode)
    check_probability("reliability p", p)
    check_probability("trust q", q)
    check_probability("trust r", r)
    v = 0.0
    for weight, (n, d), endless in zip((p, 1.0 - p), races, _ENDLESS):
        if weight > 0.0:
            denom = _form(d, q, r)
            if denom == 0.0:
                raise DegeneratePolicy(endless)
            v += weight * _form(n, q, r) / denom
    return v


def symmetric_payoff(p: float, q: float, r: float) -> float:
    """P(player I wins) when both start at node 1.

    Conditional on a correct pointer the failure mode is both players
    stepping away together; conditional on a wrong one it is both obeying
    together.
    """
    return _payoff("symmetric", p, q, r)


def asymmetric_payoff(p: float, q: float, r: float) -> float:
    """P(player I wins) when I starts at node 1 and II at node 0.

    Equivalent to alternating coin tosses: per visit to node 1 a player
    steps home with probability q (or r) if the pointer is correct, else
    1 - q (or 1 - r), player I tossing first.
    """
    return _payoff("asymmetric", p, q, r)


def symmetric_equilibrium(p: float) -> GameSolution:
    """Both players trust alike; the value is 1/2 by symmetry.

    The closed form has a removable singularity at p = 1/2 with limit 1/2
    (both players walk randomly).
    """
    check_open_probability("reliability p", p)
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


def best_response(p: float, mode: str, player: str, opponent: float) -> float:
    """One player's payoff-optimal trust against a fixed opponent trust.

    `player` is "I" (maximizes the payoff over q) or "II" (minimizes it
    over r). With the opponent's trust o fixed, every form of `_FORMS` is
    a + b x in the responder's own trust x: a = c0 + c1 o, b = c2 + c3 o
    for II (x = r), with c1 and c2 swapped for I. The opponent trust must
    be interior, so every D is positive on [0, 1] and race i,
    (a_i + b_i x)/(c_i + d_i x), has derivative K_i / (c_i + d_i x)^2 with
    K_i = b_i c_i - a_i d_i. With k_i the weighted K_i, the payoff's
    derivative vanishes at most once, only when k1 k2 < 0: where
    c2 + d2 x = t (c1 + d1 x), t = sqrt(-k2 / k1). The answer is the best
    of 0, 1 and that root; a tie goes to the smaller trust.
    """
    races = _forms(mode)
    if player not in ("I", "II"):
        raise ValidationError(f"unknown player {player!r}")
    if not 0.0 < opponent < 1.0:
        raise ValidationError("opponent trust must be interior to (0, 1)")
    check_probability("reliability p", p)
    if player == "I":
        own, other = 1, 2
        f = lambda q: -_payoff(mode, p, q, opponent)
    else:
        own, other = 2, 1
        f = lambda r: _payoff(mode, p, opponent, r)
    (a1, b1), (c1, d1), (a2, b2), (c2, d2) = (
        (c[0] + c[other] * opponent, c[own] + c[3] * opponent)
        for race in races for c in race)
    k1 = p * (b1 * c1 - a1 * d1)
    k2 = (1.0 - p) * (b2 * c2 - a2 * d2)
    candidates = [0.0, 1.0]
    if k1 * k2 < 0.0:
        t = math.sqrt(-k2 / k1)
        if d2 != t * d1:
            root = (t * c1 - c2) / (d2 - t * d1)
            if 0.0 < root < 1.0:
                candidates.insert(1, root)
    return min(candidates, key=f)


def best_response_curves(p: float, mode: str,
                         grid: Iterable[float]) -> ResponseCurves:
    """Both reply curves over an interior grid of opponent trusts."""
    pts = tuple(float(g) for g in grid)
    if any(not 0.0 < g < 1.0 for g in pts):
        raise ValidationError("response grid must lie strictly in (0, 1)")
    best_r = tuple(best_response(p, mode, "II", g) for g in pts)
    best_q = tuple(best_response(p, mode, "I", g) for g in pts)
    return ResponseCurves(p, mode, pts, best_r, best_q)


def simulate_game(
    p: float,
    q: float,
    r: float,
    mode: str,
    n_plays: int,
    seed: int = 0,
) -> GameSimulation:
    """Play the game move by move and estimate P(player I wins).

    The shared pointer is drawn once per play. Symmetric plays move both
    players each time step and settle simultaneous arrivals with a fair
    coin; asymmetric plays alternate I-then-II, where a tie is structurally
    impossible (the simulator asserts it). `seed` must be non-negative.
    """
    _payoff(mode, p, q, r)  # validates mode and trusts; raises on endless play
    if n_plays < 1:
        raise ValidationError("n_plays must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed={seed} must be non-negative")
    rng = np.random.default_rng(seed)
    correct = rng.random(n_plays) < p
    a = np.where(correct, q, 1.0 - q)  # P(I steps home per visit to node 1)
    b = np.where(correct, r, 1.0 - r)

    wins = np.zeros(n_plays)
    active = np.ones(n_plays, dtype=bool)
    for _ in range(MAX_ROUNDS):
        if not active.any():
            break
        i_home = active & (rng.random(n_plays) < a)
        if mode == "symmetric":
            ii_home = active & (rng.random(n_plays) < b)
            tie = i_home & ii_home
            wins[tie] = rng.random(int(tie.sum())) < 0.5
            wins[i_home & ~ii_home] = 1.0
        else:
            wins[i_home] = 1.0
            still = active & ~i_home
            ii_home = still & (rng.random(n_plays) < b)
            assert not (i_home & ii_home).any(), "tie in the asymmetric game"
        active &= ~(i_home | ii_home)
    unresolved = int(active.sum())
    if unresolved:
        raise DegeneratePolicy(
            f"{unresolved} plays unresolved after {MAX_ROUNDS} rounds"
        )
    mean = float(wins.mean())
    se = math.sqrt(max(mean * (1.0 - mean), 0.0) / n_plays)
    return GameSimulation(mean, se, n_plays, seed)
