import csv
from pathlib import Path

import pytest

from quditsim import gates, simulator
from quditsim.cli import cli

CIRCUITS = Path(__file__).parent.parent / "circuits"
GOLDEN = Path(__file__).parent / "golden"


def test_diagram_of_bundled_pair(capsys):
    assert cli(["diagram", str(CIRCUITS / "ghz2.qdc")]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / "pair_builder.txt").read_text(encoding="utf-8")
    assert out == expected


def test_simulate_prints_ghz_state(capsys):
    assert cli(["simulate", str(CIRCUITS / "ghz3_nomeasure.qdc")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Final state vector:"
    assert [ln.split(":")[0] for ln in lines[1:]] == ["|000⟩", "|111⟩", "|222⟩"]


def test_simulate_threshold_flag(capsys):
    assert cli(["simulate", str(CIRCUITS / "ghz3_nomeasure.qdc"), "--threshold", "0.9"]) == 0
    assert capsys.readouterr().out == "Final state vector:\n"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exits_one(threshold, capsys):
    assert cli(["simulate", str(CIRCUITS / "ghz3_nomeasure.qdc"), f"--threshold={threshold}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--threshold" in captured.err


def test_simulate_initial_flag(capsys):
    # Starting from |100> the staircase still lands on the diagonal kets but
    # with Fourier phases on |111> and |222>.
    assert cli(["simulate", str(CIRCUITS / "ghz3_nomeasure.qdc"), "--initial", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines[1:]] == ["|000⟩", "|111⟩", "|222⟩"]
    assert "(-0.28867" in lines[2]


def test_run_prints_identical_ghz_registers(capsys):
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split("=")[0] for ln in out] == ["m_q0", "m_q1", "m_q2"]
    digits = {ln.split("=")[1] for ln in out}
    assert len(digits) == 1 and len(digits.pop()) == 10


def test_run_is_byte_identical_for_equal_seeds(capsys):
    cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "25", "--seed", "7"])
    first = capsys.readouterr()
    cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "25", "--seed", "7"])
    second = capsys.readouterr()
    assert first.out == second.out and first.out


@pytest.mark.parametrize("name", ["ghz3", "midcircuit"])
def test_run_matches_golden_table(name, capsys):
    # Pinned from the contraction-kernel simulator: sampling and collapse
    # changes must keep seeded tables byte-identical.
    assert cli(["run", str(CIRCUITS / f"{name}.qdc"), "--reps", "25", "--seed", "7"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"run_{name}_reps25_seed7.txt").read_bytes()


@pytest.mark.parametrize("command", [["simulate", "--seed", "1"], ["run", "--reps", "2", "--seed", "1"]])
def test_register_over_physical_memory_exits_2_with_one_line(command, tmp_path, capsys):
    path = tmp_path / "huge.qdc"
    path.write_text("dim 2\n" + "".join(f"qudit q{i}\n" for i in range(41)) + "H q0\nM q0\n")
    assert cli([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["simulate", "--seed", "1"], ["run", "--reps", "2", "--seed", "1"]])
def test_gate_matrix_over_physical_memory_exits_2_with_one_line(command, tmp_path, capsys, monkeypatch):
    # The state of one d=100 qudit fits; its 100 x 100 X matrix (160,000 B) does not.
    monkeypatch.setattr(gates, "_physical_memory", lambda: 159_999)
    path = tmp_path / "wide.qdc"
    path.write_text("qudit q0 100\nX q0\nM q0\n")
    assert cli([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "100x100 matrix of X" in err and err.count("\n") == 1


def test_hostile_repetition_count_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 1 << 30)
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "1000000000000", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repetitions" in err and err.count("\n") == 1


def test_run_without_seed_echoes_replayable_seed(capsys):
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed=")
    seed = captured.err.strip().split("=", 1)[1]
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "5", "--seed", seed]) == 0
    assert capsys.readouterr().out == captured.out


def test_simulate_with_measurements_collapses_and_echoes_seed(capsys):
    assert cli(["simulate", str(CIRCUITS / "ghz3.qdc")]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed=")
    lines = captured.out.splitlines()
    assert len(lines) == 2  # one surviving ket after collapse
    assert lines[1].split(":")[0] in ("|000⟩", "|111⟩", "|222⟩")


def test_unknown_subcommand_exits_one(capsys):
    assert cli(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_seed_must_fit_64_bits(capsys):
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "2", "--seed", str(2**64)]) == 1
    assert cli(["run", str(CIRCUITS / "ghz3.qdc"), "--reps", "2", "--seed", "-1"]) == 1


def test_missing_reps_flag_exits_one(capsys):
    assert cli(["run", str(CIRCUITS / "ghz3.qdc")]) == 1


def test_bad_circuit_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.qdc"
    bad.write_text("H q0\n")
    assert cli(["diagram", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert cli(["diagram", "no_such_file.qdc"]) == 1


def test_run_on_measurement_free_circuit_exits_two(capsys):
    assert cli(["run", str(CIRCUITS / "ghz3_nomeasure.qdc"), "--reps", "3", "--seed", "1"]) == 2
    assert "measurement" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "frontier.csv"
    code = cli(
        [
            "bench",
            "--dims", "2,3",
            "--depth", "5",
            "--budget", "30",
            "--max-qudits", "3",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["dimension", "n_qudits", "wall_seconds", "completed", "seed"]
    assert len(rows) == 7
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["0", "nan"])
def test_bench_refuses_a_budget_that_is_not_positive(budget, tmp_path, capsys):
    out = tmp_path / "frontier.csv"
    code = cli(["bench", "--dims", "2,3", "--depth", "5", "--budget", budget, "--max-qudits", "4", "--seed", "1",
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: budget") and not out.exists()


def test_bench_rows_replay_identically_ignoring_wall(tmp_path, capsys):
    def sweep(path):
        cli(
            [
                "bench",
                "--dims", "2,3",
                "--depth", "5",
                "--budget", "30",
                "--max-qudits", "3",
                "--seed", "7",
                "--out", str(path),
            ]
        )
        capsys.readouterr()
        with open(path) as handle:
            return [
                (r["dimension"], r["n_qudits"], r["completed"], r["seed"])
                for r in csv.DictReader(handle)
            ]

    assert sweep(tmp_path / "a.csv") == sweep(tmp_path / "b.csv")
