"""CLI: commands, CSV contract, exit codes, reproducibility."""

import csv
import subprocess
import sys

import pytest

from satnav import (
    Uniform,
    build_network,
    expected_time,
    fixtures,
    network_to_text,
    optimize_uniform,
    parse_network_text,
    simulate,
    star_optimal_trust,
    symmetric_equilibrium,
)
from satnav.cli import main
from satnav.solver import TrustLine
from conftest import cactus_arcs


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, data = rows[0], rows[1:]
    return header, data


def test_header_comments(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--seed", "17")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# command: satnav fixtures")
    assert lines[1] == "# seed: 17"
    assert lines[2].startswith("# version: ")


def test_solve_tree_reference(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "tree",
                           "--p", "0.75", "--q", "0.573", "--start", "B")
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["start", "to", "p", "policy", "time"]
    assert data[0][:4] == ["B", "H", "0.75", "q=0.573"]
    assert float(data[0][4]) == pytest.approx(5.283, abs=1e-2)


def test_solve_line_random_walk(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "line7",
                           "--p", "0.5", "--q", "0.5", "--start", "0",
                           "--to", "4")
    assert code == 0
    _, data = parse_csv(out)
    assert float(data[0][4]) == pytest.approx(16.0, abs=1e-9)


def test_solve_network_file(tmp_path, capsys):
    path = tmp_path / "net.txt"
    path.write_text("home H\narc a I H 5\n")
    code, out, _ = run_cli(capsys, "solve", "--net", str(path),
                           "--p", "0.9", "--q", "0.5", "--start", "I")
    assert code == 0
    _, data = parse_csv(out)
    assert float(data[0][4]) == pytest.approx(5.0)


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--net", "/nonexistent.txt",
                           "--p", "0.5", "--q", "0.5", "--start", "A")
    assert code == 2
    assert "not found" in err


def test_solve_without_trust(capsys):
    code, _, err = run_cli(capsys, "solve", "--fixture", "tree",
                           "--p", "0.5", "--start", "B")
    assert code == 2
    assert "trust" in err


def test_solve_cap_exceeded_suggests_simulation(capsys):
    code, _, err = run_cli(capsys, "solve", "--fixture", "tree",
                           "--p", "0.5", "--q", "0.5", "--start", "B",
                           "--cap", "2")
    assert code == 3
    assert "--simulate" in err


def test_optimize_cap_exceeded_gives_no_simulate_hint(capsys):
    # optimize has no --simulate flag to suggest
    code, _, err = run_cli(capsys, "optimize", "--fixture", "tree",
                           "--p", "0.5", "--start", "B", "--cap", "2")
    assert code == 3
    assert "enumeration cap" in err
    assert "--simulate" not in err


@pytest.mark.parametrize("length", ["nan", "inf"])
def test_solve_non_finite_arc_length_exits_two(tmp_path, capsys, length):
    path = tmp_path / "net.txt"
    path.write_text(f"home H\narc a H A {length}\n")
    code, out, err = run_cli(capsys, "solve", "--net", str(path),
                             "--p", "0.5", "--q", "0.5", "--start", "A")
    assert code == 2
    assert "finite and positive" in err
    assert out == ""


@pytest.mark.parametrize("content, message", [
    (b'{"home": "H", "arcs": 5}', "'arcs' must be a list"),
    (b'{"home": "H", "arcs": [{"id": "e", "u": "A", "v": "H", '
     b'"length": "abc"}]}', "bad arc length 'abc'"),
    (b'{"home": "H", "arcs": ["e A H 1"]}', "expected an object"),
    (b"home H\narc e A H 1\xff\n", "not UTF-8 text"),
], ids=["arcs-not-a-list", "length-not-a-number", "arc-not-an-object",
        "not-utf8"])
def test_malformed_network_file_exits_two(tmp_path, capsys, content,
                                          message):
    path = tmp_path / "net.txt"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "solve", "--net", str(path),
                             "--p", "0.5", "--q", "0.5", "--start", "A")
    assert code == 2
    assert message in err
    assert out == ""


# perfbench's seed-0 grid 3x4 (93,312 directions), home at r0c0
GRID3X4 = """home r0c0
arc h0_0 r0c0 r0c1 2
arc v0_0 r0c0 r1c0 2
arc h0_1 r0c1 r0c2 1
arc v0_1 r0c1 r1c1 2
arc h0_2 r0c2 r0c3 3
arc v0_2 r0c2 r1c2 2
arc v0_3 r0c3 r1c3 2
arc h1_0 r1c0 r1c1 2
arc v1_0 r1c0 r2c0 2
arc h1_1 r1c1 r1c2 2
arc v1_1 r1c1 r2c1 3
arc h1_2 r1c2 r1c3 1
arc v1_2 r1c2 r2c2 3
arc v1_3 r1c3 r2c3 1
arc h2_0 r2c0 r2c1 2
arc h2_1 r2c1 r2c2 1
arc h2_2 r2c2 r2c3 1
"""


def test_singular_solve_exits_four(tmp_path, capsys):
    # near trust 1 the 2-connected grid's dense LU loses the escape mass of
    # a near trap; the failed solve must not be printed as an answer
    path = tmp_path / "grid3x4.txt"
    path.write_text(GRID3X4)
    code, out, err = run_cli(capsys, "solve", "--net", str(path), "--p",
                             "0.75", "--q", str(1 - 1e-4), "--start", "r2c3")
    assert code == 4
    assert out == ""
    assert "internal error: hitting-time system singular" in err


def test_line_near_trust_zero_is_exact(capsys):
    # at trust 1e-12 every step of line5 but one goes back toward the leaf;
    # solved one arc at a time, with the leaf folded into its neighbour's
    # row, the time is the exact rational's to the last few bits
    code, out, err = run_cli(capsys, "solve", "--fixture", "line5", "--p", "1",
                             "--q", "1e-12", "--start", "0")
    assert (code, err) == (0, "")
    header, data = parse_csv(out)
    assert dict(zip(header, data[0]))["time"] == "2e+48"  # 12 digits
    assert expected_time(fixtures.line(5), 1.0, Uniform(1e-12), "0") == \
        pytest.approx(1.9999999999960004e48, rel=1e-12)


# 7 nodes, home 5: a line 5-2-0-1-3-4-6 with a second 4-3 arc
SEVEN = """home 5
arc a 1 0 0.5
arc b 2 0 1.7
arc c 3 1 1.7
arc d 4 3 1
arc e 5 2 1
arc f 6 4 0.5
arc g 4 3 2
"""


@pytest.mark.parametrize("net, p, q, start", [
    ("line5", 1, 1e-6, "0"),
    ("line7", 0.5, 1e-6, "0"),
    ("tree", 0.5, 1e-6, "B"),
    ("line5", 1, 1e-12, "0"),
    ("cactus6", 0.75, 0.9999, "a6"),
    ("seven", 0.5, 0.999, "2"),
])
def test_near_edge_solves_match_the_elimination(tmp_path, capsys, net, p, q,
                                                start):
    # the dense LU of the whole network read these wrong with exit 0, or
    # exited 4; solved block by block they match the elimination
    if net in fixtures.FIXTURES:
        network, source = fixtures.fixture(net), ["--fixture", net]
    else:
        text = (SEVEN if net == "seven" else
                network_to_text(build_network("a0", cactus_arcs(6, seed=0))))
        path = tmp_path / f"{net}.txt"
        path.write_text(text)
        network, source = parse_network_text(text), ["--net", str(path)]
    code, out, err = run_cli(capsys, "solve", *source, "--p", str(p),
                             "--q", str(q), "--start", start)
    assert (code, err) == (0, "")
    header, data = parse_csv(out)
    exact = TrustLine(network, p, start, Uniform(q), Uniform(q)).values([0.0])[0]
    assert float(dict(zip(header, data[0]))["time"]) == pytest.approx(
        exact, rel=1e-9)
    assert expected_time(network, p, Uniform(q), start) == pytest.approx(
        exact, rel=1e-12)


def test_fixture_sweep_never_exits_four(capsys):
    # trusts at and next to 0 and 1 on every fixture: inf and exact values
    # alike exit 0
    for name in sorted(fixtures.FIXTURES):
        net = fixtures.fixture(name)
        for start in net.nodes:
            if start == net.home:
                continue
            for p in ("0", "0.5", "1"):
                for q in ("0", "1e-9", "0.5", str(1 - 1e-9), "1"):
                    code, _, err = run_cli(capsys, "solve", "--fixture", name,
                                           "--p", p, "--q", q, "--start", start)
                    assert (code, err) == (0, ""), (name, start, p, q)


def test_cap_counts_the_directions_of_each_block(tmp_path, capsys):
    # 7 triangles have 2**20 directions; each triangle's core has 8
    path = tmp_path / "cactus7.txt"
    path.write_text(network_to_text(build_network("a0", cactus_arcs(7, 0))))
    args = ("solve", "--net", str(path), "--p", "0.75", "--q2", "0.7",
            "--q4", "0.5", "--start", "a7", "--cap")
    code, out, err = run_cli(capsys, *args, "8")
    assert (code, err) == (0, "")
    header, data = parse_csv(out)
    assert dict(zip(header, data[0]))["time"] == "89.4244318686"
    code, out, err = run_cli(capsys, *args, "7")
    assert code == 3 and out == ""
    assert "8 direction vectors exceed the enumeration cap 7" in err


@pytest.mark.parametrize("p", ["0.1", "0.25", "0.5", "0.75", "0.9", "0.99"])
def test_line7_uniform_optimizations_exit_zero(capsys, p):
    # the trust search scores the clamp trusts without a linear solve, so
    # the near traps of the long line cannot make it exit 4
    for start in "0123456":
        code, out, err = run_cli(capsys, "optimize", "--fixture", "line7",
                                 "--p", p, "--start", start)
        assert (code, err) == (0, ""), (p, start)
        header, data = parse_csv(out)
        assert 0.0 < float(dict(zip(header, data[0]))["value"])


def test_solve_over_cap_with_simulation_leaves_time_empty(capsys):
    code, out, err = run_cli(capsys, "solve", "--fixture", "tree",
                             "--p", "0.5", "--q", "0.5", "--start", "B",
                             "--cap", "2", "--simulate", "1000")
    assert code == 0
    assert err == ""
    header, data = parse_csv(out)
    assert header == ["start", "to", "p", "policy", "time", "sim_mean",
                      "sim_se", "sim_censored"]
    assert data[0][4] == ""
    assert float(data[0][5]) > 0
    assert data[0][7] == "0"


def test_solve_counting_policy_flags(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "spike",
                           "--p", "0.75", "--q2", "1.0", "--q3", "0.55051",
                           "--start", "X")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][3] == "q2=1;q3=0.55051"
    assert float(data[0][4]) == pytest.approx(5.056, abs=2e-3)


def test_solve_simulate_columns(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "triangle",
                           "--p", "0.75", "--q", "0.68", "--start", "A",
                           "--simulate", "20000", "--seed", "3")
    assert code == 0
    header, data = parse_csv(out)
    assert header[-3:] == ["sim_mean", "sim_se", "sim_censored"]
    exact = float(data[0][4])
    mean, se = float(data[0][5]), float(data[0][6])
    assert abs(mean - exact) <= 4 * se
    assert data[0][7] == "0"


def test_solve_one_finished_walk_has_no_standard_error(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "line5", "--p", "1",
                           "--q", "0.5", "--start", "0", "--simulate", "1")
    assert code == 0
    assert parse_csv(out)[1] == [["0", "5", "1", "q=0.5", "25", "5", "nan",
                                  "0"]]


def test_solve_walk_home_past_the_horizon_is_censored(capsys):
    # the one walk arrives home at time 2, past --max-time 1.5
    code, out, _ = run_cli(capsys, "solve", "--fixture", "triangle", "--p",
                           "0.75", "--q", "1", "--start", "A", "--simulate",
                           "1", "--max-time", "1.5")
    assert code == 0
    assert parse_csv(out)[1] == [["A", "C", "0.75", "q=1", "inf", "nan", "nan",
                                  "1"]]


def test_solve_blocked_policy_reports_inf_and_censoring(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "triangle",
                           "--p", "0.75", "--q", "1", "--start", "A",
                           "--simulate", "1000", "--seed", "2")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][4] == "inf"
    assert int(data[0][7]) > 0


@pytest.mark.parametrize("max_time", ["nan", "inf"])
def test_solve_non_finite_max_time_exits_two(capsys, max_time):
    # a trapped walk is never censored at a horizon of nan or inf
    code, out, err = run_cli(capsys, "solve", "--fixture", "triangle",
                             "--p", "0.75", "--q", "1", "--start", "A",
                             "--simulate", "100", "--max-time", max_time)
    assert code == 2
    assert "max_time" in err
    assert out == ""


def test_solve_negative_seed_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--fixture", "triangle",
                             "--p", "0.75", "--q", "0.5", "--start", "A",
                             "--simulate", "100", "--seed", "-1")
    assert code == 2
    assert "seed" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("solve", "--fixture", "triangle", "--p", "0.75", "--q", "0.5",
     "--start", "A", "--simulate", "0"),
    ("solve", "--fixture", "tree", "--p", "0.5", "--q", "0.5", "--start", "B",
     "--cap", "2", "--simulate", "0"),
    ("game", "--mode", "symmetric", "--p", "0.6", "--responses", "0"),
    ("line", "--p", "0.75", "--max-j", "-2"),
], ids=["simulate", "simulate-over-cap", "responses", "max-j"])
def test_counts_below_one_exit_two(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert "is not at least 1" in err
    assert "hint" not in err
    assert out == ""


@pytest.mark.parametrize("walks", [10**12, (2**31 - 1) // 3 + 1],
                         ids=["huge", "first-over"])
def test_simulate_over_the_walker_index_exits_two(capsys, walks):
    # walks x 3 nodes must fit an int32; the check comes before any draw
    code, out, err = run_cli(capsys, "solve", "--fixture", "triangle",
                             "--p", "0.75", "--q", "0.5", "--start", "A",
                             "--simulate", str(walks))
    assert code == 2
    assert f"n_walks={walks} walks x 3 nodes exceed" in err
    assert out == ""


@pytest.mark.parametrize("lengths", ["-1,2,3", "nan,2,3", "inf,2"])
def test_line_bad_lengths_exit_two(capsys, lengths):
    code, out, err = run_cli(capsys, "line", "--p", "0.75", "--max-j", "2",
                             f"--lengths={lengths}")
    assert code == 2
    assert "finite and positive" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("--q", "0.9"),
    ("--lengths", "1,2,3"),
    (),
], ids=["trust", "lengths", "unit"])
def test_line_bad_reliability_exits_two(capsys, args):
    code, out, err = run_cli(capsys, "line", "--p", "1.5", "--max-j", "3",
                             *args)
    assert code == 2
    assert "reliability p=1.5" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("game", "--mode", "symmetric", "--curve", "nan:0.6:0.05"),
    ("optimize", "--fixture", "tree", "--start", "A",
     "--curve", "0.5:inf:0.1"),
    ("optimize", "--star", "3", "--curve", "0.5:0.9:nan"),
], ids=["nan-lo", "inf-hi", "nan-step"])
def test_non_finite_grid_exits_two(args):
    # in a subprocess with a timeout, so that a grid that never ends fails
    # the test instead of hanging the suite (such a run grows its list by
    # about 90 MB a second, so the timeout is short)
    proc = subprocess.run([sys.executable, "-m", "satnav", *args],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr
    assert proc.stdout == ""


def test_long_line_runs_in_one_pass():
    # crossing times and increments come from one pass of the recursion;
    # repeating the recursion for every row is cubic and hits the timeout
    proc = subprocess.run([sys.executable, "-m", "satnav", "line", "--p", "0.75",
                           "--q", "0.6", "--max-j", "5000"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    header, data = parse_csv(proc.stdout)
    assert len(data) == 5000
    assert data[-1][0] == "5000" and data[-1][2] != ""


def test_unit_line_near_half_runs_in_one_pass():
    # near p = 1/2 the closed form cancels badly and crossing times are
    # running sums; summing afresh for every row is quadratic in --max-j
    proc = subprocess.run([sys.executable, "-m", "satnav", "line", "--p",
                           "0.5005", "--max-j", "100000"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    header, data = parse_csv(proc.stdout)
    assert len(data) == 100000
    assert data[-1][0] == "100000"


def test_line_with_too_many_rows_exits_two():
    # a subprocess with a timeout: without the row cap this run builds one
    # row per j and does not end
    proc = subprocess.run([sys.executable, "-m", "satnav", "line", "--p", "0.75",
                           "--max-j", "100000000"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "exceeds the limit of 100000 rows" in proc.stderr
    assert proc.stdout == ""


def test_grid_with_too_many_points_exits_two():
    # a subprocess with a timeout, as above: without the point cap this
    # grid's loop would never end
    proc = subprocess.run([sys.executable, "-m", "satnav", "game", "--mode",
                           "symmetric", "--curve", "0.5:0.9:1e-300"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "points" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("count", ["100001", "1000000000"])
def test_too_many_responses_exit_two(count):
    # a subprocess with a timeout, as above: without the point cap a count
    # of 1e9 builds its grid point by point for hours
    proc = subprocess.run([sys.executable, "-m", "satnav", "game", "--mode",
                           "symmetric", "--p", "0.7", "--responses", count],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert f"--responses {count} exceeds the limit of 100000 points" in proc.stderr
    assert proc.stdout == ""


def test_outputs_are_reproducible(capsys):
    args = ("solve", "--fixture", "triangle", "--p", "0.75", "--q", "0.68",
            "--start", "A", "--simulate", "5000", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("extra", [(), ("--simulate", "1000")],
                         ids=["exact", "simulate"])
def test_out_file(tmp_path, capfd, extra):
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(capfd, "solve", "--fixture", "triangle",
                           "--p", "0.75", "--q", "0.68", "--start", "A",
                           "--out", str(out_path), *extra)
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("# command:")


def test_library_writes_nothing_to_stdout(capfd):
    net = fixtures.fixture("spike")
    expected_time(net, 0.75, Uniform(0.55), "X")
    optimize_uniform(net, 0.75, "X")
    simulate(net, 0.75, Uniform(0.55), "X", 1000, seed=1)
    assert capfd.readouterr().out == ""


# Exact stdout, walker draws and all digits, pinned across versions.
GOLDEN_SPIKE = """\
# command: satnav solve --fixture spike --p 0.75 --q2 1.0 --q3 0.55051 \
--start X --simulate 20000 --seed 3
# seed: 3
# version: 0.1.0
start,to,p,policy,time,sim_mean,sim_se,sim_censored
X,H,0.75,q2=1;q3=0.55051,5.05554839633,5.0682,0.0497408398156,0
"""

GOLDEN_TRIANGLE_BLOCKED = """\
# command: satnav solve --fixture triangle --p 0.75 --q 1 --start A \
--simulate 1000 --seed 2
# seed: 2
# version: 0.1.0
start,to,p,policy,time,sim_mean,sim_se,sim_censored
A,C,0.75,q=1,inf,2.31125,0.0163799320692,200
"""


GOLDEN_LINE_UNIT = """\
# command: satnav line --p 0.75 --q 0.6 --max-j 6
# seed: 0
# version: 0.1.0
j,cross_time,increment
1,1,2.75
2,3.75,4.28125
3,8.03125,5.62109375
4,13.65234375,6.79345703125
5,20.4458007813,7.81927490234
6,28.2650756836,8.71686553955
"""

GOLDEN_LINE_LENGTHS = """\
# command: satnav line --p 0.75 --lengths 1,2,3,1 --max-j 3
# seed: 0
# version: 0.1.0
j,cross_time,increment
1,1,3.73205080757
2,4.73205080757,7.96410161514
3,12.6961524227,10.4951905284
"""

GOLDEN_GAME_SYMMETRIC = """\
# command: satnav game --mode symmetric --p 0.6667 --responses 33
# seed: 0
# version: 0.1.0
mode,p,variable,opponent_trust,best_response
symmetric,0.6667,q,0.0294117647059,0.317381910949
symmetric,0.6667,q,0.0588235294118,0.433208893147
symmetric,0.6667,q,0.0882352941176,0.513817051849
symmetric,0.6667,q,0.117647058824,0.574873432008
symmetric,0.6667,q,0.147058823529,0.622558824923
symmetric,0.6667,q,0.176470588235,0.660168902377
symmetric,0.6667,q,0.205882352941,0.689778419218
symmetric,0.6667,q,0.235294117647,0.71284265599
symmetric,0.6667,q,0.264705882353,0.730462044635
symmetric,0.6667,q,0.294117647059,0.74351450964
symmetric,0.6667,q,0.323529411765,0.752728061806
symmetric,0.6667,q,0.352941176471,0.758723616663
symmetric,0.6667,q,0.382352941176,0.762041861329
symmetric,0.6667,q,0.411764705882,0.763161098876
symmetric,0.6667,q,0.441176470588,0.762509778938
symmetric,0.6667,q,0.470588235294,0.760475811172
symmetric,0.6667,q,0.5,0.757413908049
symmetric,0.6667,q,0.529411764706,0.753651739956
symmetric,0.6667,q,0.558823529412,0.749495432047
symmetric,0.6667,q,0.588235294118,0.745234802783
symmetric,0.6667,q,0.617647058824,0.741148698405
symmetric,0.6667,q,0.647058823529,0.737510802467
symmetric,0.6667,q,0.676470588235,0.734596403976
symmetric,0.6667,q,0.705882352941,0.732690827783
symmetric,0.6667,q,0.735294117647,0.732100651263
symmetric,0.6667,q,0.764705882353,0.733169637141
symmetric,0.6667,q,0.794117647059,0.736302925963
symmetric,0.6667,q,0.823529411765,0.742006486285
symmetric,0.6667,q,0.852941176471,0.750956908231
symmetric,0.6667,q,0.882352941176,0.764137934324
symmetric,0.6667,q,0.911764705882,0.783146171919
symmetric,0.6667,q,0.941176470588,0.811029250336
symmetric,0.6667,q,0.970588235294,0.855594006669
symmetric,0.6667,r,0.0294117647059,0.317381910949
symmetric,0.6667,r,0.0588235294118,0.433208893147
symmetric,0.6667,r,0.0882352941176,0.513817051849
symmetric,0.6667,r,0.117647058824,0.574873432008
symmetric,0.6667,r,0.147058823529,0.622558824923
symmetric,0.6667,r,0.176470588235,0.660168902377
symmetric,0.6667,r,0.205882352941,0.689778419218
symmetric,0.6667,r,0.235294117647,0.71284265599
symmetric,0.6667,r,0.264705882353,0.730462044635
symmetric,0.6667,r,0.294117647059,0.74351450964
symmetric,0.6667,r,0.323529411765,0.752728061806
symmetric,0.6667,r,0.352941176471,0.758723616663
symmetric,0.6667,r,0.382352941176,0.762041861329
symmetric,0.6667,r,0.411764705882,0.763161098876
symmetric,0.6667,r,0.441176470588,0.762509778938
symmetric,0.6667,r,0.470588235294,0.760475811172
symmetric,0.6667,r,0.5,0.757413908049
symmetric,0.6667,r,0.529411764706,0.753651739956
symmetric,0.6667,r,0.558823529412,0.749495432047
symmetric,0.6667,r,0.588235294118,0.745234802783
symmetric,0.6667,r,0.617647058824,0.741148698405
symmetric,0.6667,r,0.647058823529,0.737510802467
symmetric,0.6667,r,0.676470588235,0.734596403976
symmetric,0.6667,r,0.705882352941,0.732690827783
symmetric,0.6667,r,0.735294117647,0.732100651263
symmetric,0.6667,r,0.764705882353,0.733169637141
symmetric,0.6667,r,0.794117647059,0.736302925963
symmetric,0.6667,r,0.823529411765,0.742006486285
symmetric,0.6667,r,0.852941176471,0.750956908231
symmetric,0.6667,r,0.882352941176,0.764137934324
symmetric,0.6667,r,0.911764705882,0.783146171919
symmetric,0.6667,r,0.941176470588,0.811029250336
symmetric,0.6667,r,0.970588235294,0.855594006669
"""

GOLDEN_GAME_ASYMMETRIC = """\
# command: satnav game --mode asymmetric --p 0.6667 --responses 33
# seed: 0
# version: 0.1.0
mode,p,variable,opponent_trust,best_response
asymmetric,0.6667,q,0.0294117647059,1
asymmetric,0.6667,q,0.0588235294118,1
asymmetric,0.6667,q,0.0882352941176,1
asymmetric,0.6667,q,0.117647058824,1
asymmetric,0.6667,q,0.147058823529,1
asymmetric,0.6667,q,0.176470588235,1
asymmetric,0.6667,q,0.205882352941,1
asymmetric,0.6667,q,0.235294117647,1
asymmetric,0.6667,q,0.264705882353,1
asymmetric,0.6667,q,0.294117647059,0.998523229176
asymmetric,0.6667,q,0.323529411765,0.961858321083
asymmetric,0.6667,q,0.352941176471,0.925973001178
asymmetric,0.6667,q,0.382352941176,0.890842667005
asymmetric,0.6667,q,0.411764705882,0.85644374055
asymmetric,0.6667,q,0.441176470588,0.82275361546
asymmetric,0.6667,q,0.470588235294,0.789750607509
asymmetric,0.6667,q,0.5,0.757413908049
asymmetric,0.6667,q,0.529411764706,0.725723540259
asymmetric,0.6667,q,0.558823529412,0.694660317994
asymmetric,0.6667,q,0.588235294118,0.664205807047
asymmetric,0.6667,q,0.617647058824,0.63434228867
asymmetric,0.6667,q,0.647058823529,0.605052725197
asymmetric,0.6667,q,0.676470588235,0.576320727634
asymmetric,0.6667,q,0.705882352941,0.548130525073
asymmetric,0.6667,q,0.735294117647,0.520466935833
asymmetric,0.6667,q,0.764705882353,0.493315340192
asymmetric,0.6667,q,0.794117647059,0.466661654626
asymmetric,0.6667,q,0.823529411765,0.440492307448
asymmetric,0.6667,q,0.852941176471,0.41479421577
asymmetric,0.6667,q,0.882352941176,0.389554763687
asymmetric,0.6667,q,0.911764705882,0.36476178163
asymmetric,0.6667,q,0.941176470588,0.3404035268
asymmetric,0.6667,q,0.970588235294,0.316468664622
asymmetric,0.6667,r,0.0294117647059,0.221705003028
asymmetric,0.6667,r,0.0588235294118,0.306407433528
asymmetric,0.6667,r,0.0882352941176,0.370023395238
asymmetric,0.6667,r,0.117647058824,0.422845031567
asymmetric,0.6667,r,0.147058823529,0.468650876198
asymmetric,0.6667,r,0.176470588235,0.509264092644
asymmetric,0.6667,r,0.205882352941,0.545696436762
asymmetric,0.6667,r,0.235294117647,0.57856260622
asymmetric,0.6667,r,0.264705882353,0.608264308685
asymmetric,0.6667,r,0.294117647059,0.635083743642
asymmetric,0.6667,r,0.323529411765,0.659235684478
asymmetric,0.6667,r,0.352941176471,0.680898349556
asymmetric,0.6667,r,0.382352941176,0.70023234485
asymmetric,0.6667,r,0.411764705882,0.717392364428
asymmetric,0.6667,r,0.441176470588,0.732534229372
asymmetric,0.6667,r,0.470588235294,0.745818817656
asymmetric,0.6667,r,0.5,0.757413908049
asymmetric,0.6667,r,0.529411764706,0.76749467361
asymmetric,0.6667,r,0.558823529412,0.776243395247
asymmetric,0.6667,r,0.588235294118,0.783848866905
asymmetric,0.6667,r,0.617647058824,0.790505907637
asymmetric,0.6667,r,0.647058823529,0.796415377459
asymmetric,0.6667,r,0.676470588235,0.801785123932
asymmetric,0.6667,r,0.705882352941,0.806832393237
asymmetric,0.6667,r,0.735294117647,0.81178848319
asymmetric,0.6667,r,0.764705882353,0.816906923344
asymmetric,0.6667,r,0.794117647059,0.822477526306
asymmetric,0.6667,r,0.823529411765,0.828850967454
asymmetric,0.6667,r,0.852941176471,0.836484023457
asymmetric,0.6667,r,0.882352941176,0.846030120951
asymmetric,0.6667,r,0.911764705882,0.85854512336
asymmetric,0.6667,r,0.941176470588,0.876058122482
asymmetric,0.6667,r,0.970588235294,0.903849623987
"""

GOLDEN_COUNTING_SPIKE = """\
# command: satnav optimize --fixture spike --p 0.75 --start X --mode counting
# seed: 0
# version: 0.1.0
p,policy,value
0.75,q2=1;q3=0.550510257217,5.05554839633
"""

GOLDEN_COUNTING_TREE = """\
# command: satnav optimize --fixture tree --curve 0.05:0.95:0.05 --start A \
--mode counting
# seed: 0
# version: 0.1.0
p,policy,value
0.05,q2=0.186605496863;q3=0.139578756837,6.68745856579
0.1,q2=0.25;q3=0.190743569831,7.7461731573
0.15,q2=0.295816316324;q3=0.229016288334,8.47645700662
0.2,q2=0.333333333333;q3=0.261203874964,9.00783837972
0.25,q2=0.366025403784;q3=0.289897948557,9.39171977497
0.3,q2=0.395643923739;q3=0.316430972583,9.65482654703
0.35,q2=0.423232002362;q3=0.341617766486,9.81302073816
0.4,q2=0.449489742783;q3=0.366025403784,9.87639564448
0.45,q2=0.474937185533;q3=0.390095944575,9.85153884727
0.5,q2=0.5;q3=0.414213562373,9.74264068712
0.55,q2=0.525062814467;q3=0.438749611353,9.55204010355
0.6,q2=0.550510257217;q3=0.464101615138,9.28043646506
0.65,q2=0.576767997638;q3=0.490737563232,8.92683897774
0.7,q2=0.604356076261;q3=0.519259301592,8.48822049144
0.75,q2=0.633974596216;q3=0.550510257217,7.95870707308
0.8,q2=0.666666666667;q3=0.585786437627,7.32783837972
0.85,q2=0.704183683676;q3=0.627317732876,6.57655701662
0.9,q2=0.75;q3=0.679622758983,5.6661731573
0.95,q2=0.813394503137;q3=0.755034470414,4.49515766087
"""


def assert_golden(capsys, golden):
    argv = golden.splitlines()[0].removeprefix("# command: satnav ").split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == golden


@pytest.mark.parametrize("golden", [GOLDEN_SPIKE, GOLDEN_TRIANGLE_BLOCKED],
                         ids=["spike", "triangle-blocked"])
def test_solve_golden_bytes(capsys, golden):
    assert_golden(capsys, golden)


@pytest.mark.parametrize("golden", [GOLDEN_LINE_UNIT, GOLDEN_LINE_LENGTHS],
                         ids=["unit-arcs", "lengths"])
def test_line_golden_bytes(capsys, golden):
    assert_golden(capsys, golden)


# Best responses read the payoff's coefficient table; counting-mode grid
# ends are scored on the trust line.
@pytest.mark.parametrize("golden", [GOLDEN_GAME_SYMMETRIC,
                                    GOLDEN_GAME_ASYMMETRIC],
                         ids=["symmetric", "asymmetric"])
def test_game_responses_golden_bytes(capsys, golden):
    assert_golden(capsys, golden)


@pytest.mark.parametrize("golden", [GOLDEN_COUNTING_SPIKE,
                                    GOLDEN_COUNTING_TREE],
                         ids=["spike", "tree-curve"])
def test_optimize_counting_golden_bytes(capsys, golden):
    assert_golden(capsys, golden)


def test_optimize_star_table_entry(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--star", "5", "--p", "0.75")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][1].startswith("q=0.464")


def test_optimize_c3(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--fixture", "c3",
                           "--p", "0.75", "--start", "A")
    assert code == 0
    _, data = parse_csv(out)
    q = float(data[0][1].removeprefix("q="))
    assert q == pytest.approx(0.78676, abs=5e-4)


def test_optimize_counting_spike(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--fixture", "spike",
                           "--p", "0.75", "--start", "X",
                           "--mode", "counting")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][1].startswith("q2=1;q3=0.550")
    assert float(data[0][2]) == pytest.approx(5.056, abs=2e-3)


def test_optimize_curve_c4_start_matters(capsys):
    rows = {}
    for start in ("A", "C"):
        code, out, _ = run_cli(capsys, "optimize", "--fixture", "c4",
                               "--p", "0.75", "--curve", "0.7:0.8:0.05",
                               "--start", start)
        assert code == 0
        _, data = parse_csv(out)
        rows[start] = [float(r[1].removeprefix("q=")) for r in data]
    assert len(rows["A"]) == 3
    for qa, qc in zip(rows["A"], rows["C"]):
        assert abs(qa - qc) > 1e-3


def test_line_increments_grow(capsys):
    code, out, _ = run_cli(capsys, "line", "--p", "0.75", "--max-j", "6")
    assert code == 0
    _, data = parse_csv(out)
    cross = {int(r[0]): float(r[1]) for r in data}
    increments = [float(r[2]) for r in data]
    assert cross[5] - cross[3] == pytest.approx(12.187, abs=2e-3)
    assert all(b > a for a, b in zip(increments, increments[1:]))


def test_line_perfect_reliability(capsys):
    code, out, _ = run_cli(capsys, "line", "--p", "1", "--max-j", "4")
    assert code == 0
    _, data = parse_csv(out)
    for row in data:
        assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-9)


def test_line_explicit_lengths(capsys):
    code, out, _ = run_cli(capsys, "line", "--p", "0.75", "--max-j", "2",
                           "--lengths", "2,5,1", "--q", "0.6")
    assert code == 0
    _, data = parse_csv(out)
    assert len(data) == 2
    assert float(data[1][1]) > float(data[0][1])


def test_game_symmetric(capsys):
    code, out, _ = run_cli(capsys, "game", "--mode", "symmetric",
                           "--p", "0.6667")
    assert code == 0
    _, data = parse_csv(out)
    p, regime, q, r, value = data[0]
    assert regime == "symmetric-start"
    assert float(q) == pytest.approx(0.73205, abs=1e-3)
    assert float(value) == 0.5


def test_game_asymmetric_high_p(capsys):
    code, out, _ = run_cli(capsys, "game", "--mode", "asymmetric",
                           "--p", "0.9")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][1] == "asym-high-p"
    assert float(data[0][2]) == 1.0
    assert float(data[0][4]) == 0.9


def test_game_out_of_range(capsys):
    code, _, err = run_cli(capsys, "game", "--mode", "asymmetric",
                           "--p", "0.3")
    assert code == 2
    assert "1/2" in err


def test_game_asymmetric_curve_dominates(capsys):
    code, out, _ = run_cli(capsys, "game", "--mode", "asymmetric",
                           "--curve", "0.5:1:0.05")
    assert code == 0
    _, data = parse_csv(out)
    assert float(data[0][0]) == 0.5
    assert float(data[-1][0]) == 1.0
    for row in data:
        p, q_star = float(row[0]), float(row[2])
        if not 0.5 < p < 1.0:
            continue
        q_sym = symmetric_equilibrium(p).q_star
        q_solo = star_optimal_trust(2, p)
        assert q_star >= q_sym - 1e-9
        assert q_sym >= q_solo - 1e-9


def test_game_responses_table(capsys):
    code, out, _ = run_cli(capsys, "game", "--mode", "asymmetric",
                           "--p", "0.6667", "--responses", "9")
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["mode", "p", "variable", "opponent_trust",
                      "best_response"]
    assert len(data) == 18
    by_var = {}
    for row in data:
        by_var.setdefault(row[2], []).append(float(row[4]))
    assert set(by_var) == {"q", "r"}
    assert all(0.0 <= x <= 1.0 for xs in by_var.values() for x in xs)


def test_fixtures_listing(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    _, data = parse_csv(out)
    names = {row[0] for row in data}
    assert {"triangle", "spike", "tree", "line5", "line7", "c3",
            "c4"} <= names


def test_fixture_text_round_trips(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--name", "spike")
    assert code == 0
    net = parse_network_text(out)
    assert net.home == "H"
    assert net.degree("X") == 3


def test_fixture_unknown_name(capsys):
    code, _, err = run_cli(capsys, "fixtures", "--name", "bogus")
    assert code == 2
    assert "unknown fixture" in err


def test_fixtures_write(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "fixtures", "--write", str(tmp_path))
    assert code == 0
    files = sorted(f.name for f in tmp_path.glob("*.txt"))
    assert "triangle.txt" in files and len(files) == 7
    net = parse_network_text((tmp_path / "c4.txt").read_text())
    assert len(net.nodes) == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "satnav", "optimize", "--star", "3",
         "--p", "0.75"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "q=0.5505" in proc.stdout


def test_bad_arguments_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "satnav", "solve", "--fixture", "tree"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
