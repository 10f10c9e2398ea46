"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Every workload is a closed loop: one caller in one process, the next
operation starting when the previous one returns. The seed draws every arc
length from 1..3, so shortest-path ties still occur, and it is the seed the
CLI workload hands to `simulate`. The program under test only ever receives
the generated networks.

The satnav modules are looked up at call time (`solver.expected_time`, not
`expected_time`), so a traced run sees the wrappers the tracer installs.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from satnav import cli, errors, network, optimize, pointers, solver

# Pins hold at this seed only; every other seed is checked against simulation.
PINNED_SEED = 0
PIN_REL = 1e-9
# The minimum over the trust is flat, so the optimal trust moves far more
# than the optimal value when the last digits of the solves change.
PIN_Q_ABS = 1e-6
SIM_WALKS = 100_000
SIM_SIGMAS = 5.0

EXACT_TRUSTS = ((0.6, 0.5), (0.75, 0.55), (0.9, 0.7))
OPT_P = 0.75
CLAMP_P, CLAMP_Q = 0.75, 1.0 - 1e-4

PINS = {
    "exact_grid3x4": {
        "p0.6_q0.5": 43.13726823758856,
        "p0.75_q0.55": 32.106068580990296,
        "p0.9_q0.7": 18.38403380136994,
    },
    "optimize_grid3x3": {"q": 0.6574357180657067, "value": 24.058232961048297},
    "cli_cactus6": {"time": 63.9900092995},
}


def _check_size(name: str, home: str, arcs, expected: int) -> None:
    """Raise unless the direction space, the product of the degrees of the
    branch nodes (degree >= 2, not home), has `expected` members."""
    degree: dict[str, int] = {}
    for _, u, v, _ in arcs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    size = math.prod(d for node, d in degree.items() if node != home and d >= 2)
    if size != expected:
        raise RuntimeError(f"{name}: {size} directions, expected {expected}")


def grid_network(rows: int, cols: int, seed: int, expected_size: int):
    """Grid with home at corner r0c0; returns (network, far corner)."""
    rng = random.Random(seed)
    arcs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                arcs.append((f"h{i}_{j}", f"r{i}c{j}", f"r{i}c{j + 1}",
                             rng.randint(1, 3)))
            if i + 1 < rows:
                arcs.append((f"v{i}_{j}", f"r{i}c{j}", f"r{i + 1}c{j}",
                             rng.randint(1, 3)))
    _check_size(f"grid {rows}x{cols}", "r0c0", arcs, expected_size)
    return network.build_network("r0c0", arcs), f"r{rows - 1}c{cols - 1}"


def cactus_text(triangles: int, seed: int, expected_size: int):
    """Chain of triangles a{k-1}-x{k}-a{k} joined at the cut nodes a1..a{n-1}.

    Home is a0, which lies on the first triangle only and so is not a cut
    node; the start is a{n}, the far end of the chain. Returns (start, text)
    in the network file format.
    """
    rng = random.Random(seed)
    arcs = []
    for k in range(1, triangles + 1):
        a, x, b = f"a{k - 1}", f"x{k}", f"a{k}"
        for arc_id, u, v in ((f"t{k}a", a, x), (f"t{k}b", x, b), (f"t{k}c", a, b)):
            arcs.append((arc_id, u, v, rng.randint(1, 3)))
    _check_size(f"cactus of {triangles} triangles", "a0", arcs, expected_size)
    lines = ["home a0"] + [f"arc {i} {u} {v} {length}" for i, u, v, length in arcs]
    return f"a{triangles}", "\n".join(lines) + "\n"


def _pin_error(workload: str, key: str, got: float, seed: int) -> str | None:
    if seed != PINNED_SEED:
        return None
    want = PINS[workload][key]
    if key == "q":
        ok = abs(got - want) <= PIN_Q_ABS
    else:
        ok = abs(got - want) <= PIN_REL * abs(want)
    return None if ok else f"{key}={got!r} differs from pinned {want!r}"


def _sim_error(exact: float, mean: float, se: float, censored: int) -> str | None:
    if censored:
        return f"{censored} simulated walks censored"
    if not math.isfinite(exact) or abs(exact - mean) > SIM_SIGMAS * se:
        return f"exact {exact!r} vs simulated {mean!r} +- {se!r}"
    return None


@dataclass(frozen=True)
class Op:
    """One timed operation; `run` returns what `check` judges."""

    label: str
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    # label, result -> failure message or None; runs outside the timed region
    check: Callable[[str, object], str | None]
    # tracer boundaries the operations pass through; the rest read 0
    uses: frozenset[str]
    # bytes of output files one operation wrote, from its result
    output_bytes: Callable[[object], int] = lambda result: 0


def exact_grid3x4(seed: int, workdir: Path) -> Workload:
    net, start = grid_network(3, 4, seed, 93_312)

    def op(p: float, q: float):
        def run():
            space = pointers.enumerate_direction_space(net, p=p)
            return solver.expected_time(net, p, solver.Uniform(q), start,
                                        space=space)
        return Op(f"p{p}_q{q}", run)

    trusts = {f"p{p}_q{q}": (p, q) for p, q in EXACT_TRUSTS}

    def check(label, value):
        p, q = trusts[label]
        sim = solver.simulate(net, p, solver.Uniform(q), start, SIM_WALKS,
                              seed=seed)
        return (_pin_error("exact_grid3x4", label, value, seed)
                or _sim_error(value, sim.mean, sim.std_error, sim.censored))

    return Workload(
        tuple(op(p, q) for p, q in EXACT_TRUSTS),
        check,
        frozenset({"pointers.enumerate", "network.shortest_paths",
                   "network.classify", "solver.expected_time",
                   "solver.expected_profile", "solver.direction",
                   "solver.lapack"}),
    )


def optimize_grid3x3(seed: int, workdir: Path) -> Workload:
    net, start = grid_network(3, 3, seed, 2_592)

    def run():
        res = optimize.optimize_uniform(net, OPT_P, start)
        return res.policy.q, res.value

    def check(label, result):
        q, value = result
        err = (_pin_error("optimize_grid3x3", "q", q, seed)
               or _pin_error("optimize_grid3x3", "value", value, seed))
        if err:
            return err
        # the optimum must not lose to its neighbours on the trust axis
        for nq in (q - 0.01, q + 0.01):
            near = solver.expected_time(net, OPT_P, solver.Uniform(nq), start)
            if near < value:
                return f"q={nq!r} gives {near!r} < optimum {value!r}"
        sim = solver.simulate(net, OPT_P, solver.Uniform(q), start, SIM_WALKS,
                              seed=seed)
        return _sim_error(value, sim.mean, sim.std_error, sim.censored)

    return Workload(
        (Op("optimize", run),),
        check,
        frozenset({"optimize.optimize_uniform", "optimize.evaluate",
                   "pointers.enumerate", "network.shortest_paths",
                   "network.classify", "solver.expected_profile",
                   "solver.direction", "solver.lapack"}),
    )


def cli_cactus6(seed: int, workdir: Path) -> Workload:
    start, text = cactus_text(6, seed, 131_072)
    net_file = workdir / "cactus6.txt"
    out_file = workdir / "cactus6.csv"
    net_file.write_text(text, encoding="utf-8")
    # relative paths keep the echoed command, and so the output size, the
    # same in every checkout
    argv = ["solve", "--net", os.path.relpath(net_file), "--p", "0.75", "--q2", "0.7",
            "--q4", "0.5", "--start", start, "--simulate", "1000000",
            "--seed", str(seed), "--out", os.path.relpath(out_file)]

    def run():
        code = cli.main(argv)
        return code, out_file.read_bytes() if code == 0 else b""

    def check(label, result):
        code, output = result
        if code != 0:
            return f"satnav exited {code}"
        rows = [r for r in csv.reader(output.decode("utf-8").splitlines())
                if r and not r[0].startswith("#")]
        row = dict(zip(rows[0], rows[1]))
        exact = float(row["time"])
        return (_pin_error("cli_cactus6", "time", exact, seed)
                or _sim_error(exact, float(row["sim_mean"]),
                              float(row["sim_se"]), int(row["sim_censored"])))

    return Workload(
        (Op("solve", run),),
        check,
        frozenset({"cli.main", "network.parse", "solver.expected_time_between",
                   "solver.expected_time", "solver.expected_profile",
                   "pointers.enumerate", "network.shortest_paths",
                   "network.classify", "solver.direction", "solver.lapack",
                   "solver.simulate"}),
        output_bytes=lambda result: len(result[1]),
    )


WORKLOADS = {
    "exact_grid3x4": exact_grid3x4,
    "optimize_grid3x3": optimize_grid3x3,
    "cli_cactus6": cli_cactus6,
}


def clamp_singular(seed: int) -> int:
    """1 when grid 3x4 at the trust clamp has no finite exact answer.

    Dense LU cannot represent the escape mass of some pointer traps at
    q = 1 - 1e-4, so the solve raises SingularSystem today.
    """
    net, start = grid_network(3, 4, seed, 93_312)
    try:
        value = solver.expected_time(net, CLAMP_P, solver.Uniform(CLAMP_Q), start)
    except errors.SingularSystem:
        return 1
    return 0 if math.isfinite(value) else 1
