"""Command-line front end.

Subcommands: solve, optimize, line, game, fixtures. Every CSV output starts
with comment lines (prefixed '#') recording the command line, the seed, and
the package version, so identical invocations reproduce identical bytes.

Exit codes: 0 success, 2 input error, 3 enumeration cap exceeded (retry
with --simulate), 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__, closed_form, fixtures, game, optimize
from .errors import (
    CapExceeded,
    DegeneratePolicy,
    NonConvergence,
    OutOfRange,
    SingularSystem,
    ValidationError,
)
from .network import Network, network_to_text, parse_network_file
from .pointers import ENUMERATION_CAP
from .solver import (
    ByDegree,
    TrustPolicy,
    Uniform,
    expected_time_between,
    simulate,
)

_DEGREE_FLAGS = range(2, 9)

# The most points a --curve grid, and rows `line --max-j`, may hold. Both
# are built point by point, so without this bound a tiny step or a huge
# --max-j would run until memory runs out.
MAX_GRID_POINTS = 100_000


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _fmt_policy(policy: TrustPolicy) -> str:
    if isinstance(policy, Uniform):
        return f"q={_fmt(policy.q)}"
    return ";".join(
        f"q{k}={_fmt(v)}" for k, v in sorted(policy.q_by_degree.items())
    )


@contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_comments(fh, argv, seed):
    fh.write(f"# command: satnav {' '.join(argv)}\n")
    fh.write(f"# seed: {seed}\n")
    fh.write(f"# version: {__version__}\n")


def _emit(fh, argv, seed, header, rows):
    _write_comments(fh, argv, seed)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])


def _load_network(args) -> Network:
    if getattr(args, "fixture", None):
        return fixtures.fixture(args.fixture)
    if getattr(args, "net", None):
        path = Path(args.net)
        if not path.exists():
            raise ValidationError(f"network file not found: {path}")
        return parse_network_file(path)
    raise ValidationError("provide a network with --net PATH or --fixture NAME")


def _policy_from_args(args) -> TrustPolicy:
    by_degree = {
        k: getattr(args, f"q{k}")
        for k in _DEGREE_FLAGS
        if getattr(args, f"q{k}", None) is not None
    }
    if args.q is not None and by_degree:
        raise ValidationError("give either --q or --q2/--q3/..., not both")
    if args.q is not None:
        return Uniform(args.q)
    if by_degree:
        return ByDegree(by_degree)
    raise ValidationError("no trust given: use --q or --q2/--q3/...")


def count(text: str) -> int:
    """The argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValidationError(
            f"bad grid {text!r}: expected lo:hi:step"
        ) from None
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValidationError(
            f"bad grid {text!r}: lo, hi and step must be finite"
        )
    if step <= 0 or hi < lo:
        raise ValidationError(f"bad grid {text!r}: need lo <= hi and step > 0")
    if (hi - lo) / step > MAX_GRID_POINTS:
        raise ValidationError(
            f"bad grid {text!r}: more than {MAX_GRID_POINTS} points"
        )
    grid = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12:
            break
        grid.append(min(x, hi))
        k += 1
    return grid


def cmd_solve(args, argv) -> int:
    net = _load_network(args)
    policy = _policy_from_args(args)
    to = args.to if args.to is not None else net.home
    try:
        exact = expected_time_between(net, args.p, policy, args.start, to,
                                      cap=args.cap)
    except CapExceeded:
        if not args.simulate:
            raise
        exact = ""  # over the cap only the Monte Carlo columns are filled
    header = ["start", "to", "p", "policy", "time"]
    row = [args.start, to, args.p, _fmt_policy(policy), exact]
    if args.simulate:
        sim = simulate(net.retargeted(to), args.p, policy, args.start,
                       args.simulate, max_time=args.max_time, seed=args.seed)
        header += ["sim_mean", "sim_se", "sim_censored"]
        row += [sim.mean, sim.std_error, sim.censored]
    with _out_stream(args.out) as fh:
        _emit(fh, argv, args.seed, header, [row])
    return 0


def cmd_optimize(args, argv) -> int:
    if args.star is not None:
        if args.curve is None and args.p is None:
            raise ValidationError("give --p or --curve")
        rows = []
        for p in _parse_grid(args.curve) if args.curve else [args.p]:
            q = closed_form.star_optimal_trust(args.star, p)
            star = closed_form.StarSpec(args.star, 1.0,
                                        (1.0,) * (args.star - 1))
            rows.append([p, f"q={_fmt(q)}", closed_form.star_time(star, p, q)])
        with _out_stream(args.out) as fh:
            _emit(fh, argv, args.seed, ["p", "policy", "value"], rows)
        return 0

    net = _load_network(args)
    if args.start is None:
        raise ValidationError("--start is required with --net/--fixture")
    if args.curve:
        curve = optimize.trust_curve(net, _parse_grid(args.curve), args.start,
                                     mode=args.mode, cap=args.cap)
        rows = [[p, _fmt_policy(r.policy), r.value] for p, r in curve]
    else:
        if args.p is None:
            raise ValidationError("give --p or --curve")
        if args.mode == "uniform":
            res = optimize.optimize_uniform(net, args.p, args.start,
                                            cap=args.cap)
        else:
            res = optimize.optimize_counting(net, args.p, args.start,
                                             cap=args.cap)
        rows = [[args.p, _fmt_policy(res.policy), res.value]]
    with _out_stream(args.out) as fh:
        _emit(fh, argv, args.seed, ["p", "policy", "value"], rows)
    return 0


def cmd_line(args, argv) -> int:
    if args.p is None:
        raise ValidationError("--p is required")
    if args.max_j > MAX_GRID_POINTS:
        raise ValidationError(
            f"--max-j {args.max_j} exceeds the limit of {MAX_GRID_POINTS} rows"
        )
    if args.lengths:
        try:
            lengths = [float(part) for part in args.lengths.split(",")]
        except ValueError:
            raise ValidationError(
                f"bad --lengths {args.lengths!r}: expected comma-separated reals"
            ) from None
        if len(lengths) < args.max_j:
            raise ValidationError(
                f"--max-j {args.max_j} needs at least {args.max_j} arc lengths"
            )
    elif args.q is not None:
        lengths = [1.0] * (args.max_j + 1)
    else:
        lengths = None  # unit arcs at the optimal trust: the closed form
    if lengths is None:
        times = closed_form._unit_line_cross_times(args.p,
                                                   range(args.max_j + 2))
        rows = [[j, times[j], times[j + 1] - times[j]]
                for j in range(1, args.max_j + 1)]
    else:
        q = args.q if args.q is not None else closed_form.star_optimal_trust(
            2, args.p)
        # increments 0..max_j, as far as the lengths reach; crossing time j
        # sums the first j of them in order
        incs = closed_form.line_increments(
            lengths, min(args.max_j + 1, len(lengths)), args.p, q)
        rows = []
        cross = 0
        for j in range(1, args.max_j + 1):
            cross += incs[j - 1]
            rows.append([j, cross, incs[j] if j < len(incs) else ""])
    with _out_stream(args.out) as fh:
        _emit(fh, argv, args.seed, ["j", "cross_time", "increment"], rows)
    return 0


def cmd_game(args, argv) -> int:
    if args.responses:
        if args.p is None:
            raise ValidationError("--responses needs a single --p")
        n = args.responses
        if n > MAX_GRID_POINTS:
            raise ValidationError(f"--responses {n} exceeds the limit of "
                                  f"{MAX_GRID_POINTS} points")
        grid = [(i + 1) / (n + 1) for i in range(n)]
        curves = game.best_response_curves(args.p, args.mode, grid)
        rows = [[args.mode, args.p, "q", g, r]
                for g, r in zip(curves.opponent, curves.best_r)]
        rows += [[args.mode, args.p, "r", g, q]
                 for g, q in zip(curves.opponent, curves.best_q)]
        header = ["mode", "p", "variable", "opponent_trust", "best_response"]
    else:
        p_values = _parse_grid(args.curve) if args.curve else [args.p]
        if not p_values or p_values[0] is None:
            raise ValidationError("give --p or --curve")
        rows = []
        for p in p_values:
            if args.mode == "symmetric":
                sol = game.symmetric_equilibrium(p)
            else:
                sol = game.asymmetric_equilibrium(p)
            rows.append([p, sol.regime.value, sol.q_star, sol.r_star,
                         sol.value])
        header = ["p", "regime", "q_star", "r_star", "value"]
    with _out_stream(args.out) as fh:
        _emit(fh, argv, args.seed, header, rows)
    return 0


def cmd_fixtures(args, argv) -> int:
    if args.name:
        net = fixtures.fixture(args.name)
        with _out_stream(args.out) as fh:
            _write_comments(fh, argv, args.seed)
            fh.write(network_to_text(net))
        return 0
    if args.write:
        outdir = Path(args.write)
        outdir.mkdir(parents=True, exist_ok=True)
        for name in sorted(fixtures.FIXTURES):
            path = outdir / f"{name}.txt"
            path.write_text(network_to_text(fixtures.fixture(name)),
                            encoding="utf-8")
            print(path)
        return 0
    rows = []
    for name in sorted(fixtures.FIXTURES):
        net = fixtures.fixture(name)
        rows.append([name, len(net.nodes), len(net.arcs), net.home])
    with _out_stream(args.out) as fh:
        _emit(fh, argv, args.seed, ["name", "nodes", "arcs", "home"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satnav",
        description="Expected travel times and optimal trust on networks "
                    "with unreliable route pointers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)

    def add_net(sp):
        sp.add_argument("--net", help="network description file")
        sp.add_argument("--fixture", help="built-in network name")

    sp = sub.add_parser("solve", help="exact expected travel time")
    add_net(sp)
    sp.add_argument("--p", type=float, required=True, help="reliability")
    sp.add_argument("--q", type=float, help="uniform trust")
    for k in _DEGREE_FLAGS:
        sp.add_argument(f"--q{k}", type=float, help=f"trust at degree-{k} nodes")
    sp.add_argument("--start", required=True)
    sp.add_argument("--to", help="target node (default: home)")
    sp.add_argument("--simulate", type=count, metavar="N_WALKS",
                    help="append a Monte Carlo estimate")
    sp.add_argument("--max-time", type=float, help="censoring horizon")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("optimize", help="optimal trust probabilities")
    add_net(sp)
    sp.add_argument("--star", type=int, metavar="N",
                    help="closed-form star of degree N instead of a network")
    sp.add_argument("--p", type=float)
    sp.add_argument("--curve", metavar="LO:HI:STEP",
                    help="sweep reliabilities instead of a single --p")
    sp.add_argument("--start")
    sp.add_argument("--mode", choices=["uniform", "counting"],
                    default="uniform")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    add_common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("line", help="crossing times along a line")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--max-j", type=count, default=6)
    sp.add_argument("--q", type=float,
                    help="trust (default: the optimal trust for --p)")
    sp.add_argument("--lengths", help="comma-separated arc lengths "
                                      "(default: unit arcs)")
    add_common(sp)
    sp.set_defaults(func=cmd_line)

    sp = sub.add_parser("game", help="first-to-home game on the 3-node line")
    sp.add_argument("--mode", choices=["symmetric", "asymmetric"],
                    required=True)
    sp.add_argument("--p", type=float)
    sp.add_argument("--curve", metavar="LO:HI:STEP")
    sp.add_argument("--responses", type=count, metavar="N",
                    help="emit best-response curves on an N-point grid")
    add_common(sp)
    sp.set_defaults(func=cmd_game)

    sp = sub.add_parser("fixtures", help="built-in example networks")
    sp.add_argument("--name", help="print one fixture as a network file")
    sp.add_argument("--write", metavar="DIR",
                    help="write every fixture to DIR as .txt files")
    add_common(sp)
    sp.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (ValidationError, OutOfRange, DegeneratePolicy, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.func is cmd_solve:
            print("hint: rerun with --simulate N for a Monte Carlo estimate",
                  file=sys.stderr)
        return 3
    except (SingularSystem, NonConvergence, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
