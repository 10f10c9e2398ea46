"""CLI: commands, CSV contract, exit codes, reproducibility."""

import csv
import subprocess
import sys

import pytest

from satnav import (
    Uniform,
    expected_time,
    fixtures,
    optimize_uniform,
    parse_network_text,
    simulate,
    star_optimal_trust,
    symmetric_equilibrium,
)
from satnav.cli import main


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


def test_solve_blocked_policy_reports_inf_and_censoring(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "triangle",
                           "--p", "0.75", "--q", "1", "--start", "A",
                           "--simulate", "1000", "--seed", "2")
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][4] == "inf"
    assert int(data[0][7]) > 0


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


@pytest.mark.parametrize("golden", [GOLDEN_SPIKE, GOLDEN_TRIANGLE_BLOCKED],
                         ids=["spike", "triangle-blocked"])
def test_solve_golden_bytes(capsys, golden):
    argv = golden.splitlines()[0].removeprefix("# command: satnav ").split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == golden


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
