import csv
import hashlib
import io
import pathlib
import re
import shlex

import pytest

from clogsim import cli
from clogsim.cli import main
from clogsim.dynamics import simulate_run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands():
    """The argv of every ``clogsim ...`` line in the README's code blocks,
    with backslash continuations joined and the program name dropped."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("clogsim ")]


def read_csv(path):
    return list(csv.reader(io.StringIO(path.read_text())))


def assert_value_error(capsys, tmp_path, argv, key):
    """A bad value exits 1 with ``error: <flag> must ...`` and writes nothing;
    ``argv`` sends every output under ``tmp_path``."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {key} must ")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


class TestFn:
    def test_curve_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "fn", "--family", "clog", "--phi", "60", "--beta", "0.2",
            "--points", "101",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,f_m"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert first == ["0", "0"]

    def test_identity_curve_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fn", "--phi", "45", "--beta", "0.3", "--points", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["0,0", "0.5,0.5", "1,1"]

    def test_fixed_points_report(self, capsys):
        code, out, _ = run_cli(capsys, "fn", "--family", "logistic", "--phi", "60",
                               "--fixed-points")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["location", "stability", "derivative"]
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == ["stable", "unstable", "stable"]
        assert float(rows[1][0]) == pytest.approx(0.0395369, abs=1e-6)

    def test_fixed_points_continuum(self, capsys):
        code, out, _ = run_cli(capsys, "fn", "--phi", "45", "--fixed-points")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["", "continuum", "1"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "fn", "--phi", "60", "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "m,f_m"

    def test_bad_angle_is_usage_error(self, capsys):
        # The family's own range, for an angle below it or above it.
        for argv, family_range in (
            (("--phi", "30"), "[45, 90] for the clog family"),
            (("--phi", "100"), "[45, 90] for the clog family"),
            (("--phi", "100", "--fixed-points"), "[45, 90] for the clog family"),
            (("--family", "logistic", "--phi", "95"), "[0, 90] for the logistic family"),
        ):
            code, _, err = run_cli(capsys, "fn", *argv)
            assert code == 1
            assert f"error: phi must lie in {family_range}, got " in err

    @pytest.mark.parametrize("argv, key", [
        (("--phi", "60", "--points", "1"), "points"),
        (("--phi", "30"), "phi"),
        (("--phi", "30", "--fixed-points"), "phi"),
        (("--family", "logistic", "--phi", "95"), "phi"),
        (("--phi", "60", "--beta", "0.7"), "beta"),
        (("--phi", "45", "--beta", "0.9", "--fixed-points"), "beta"),
    ])
    def test_error_names_the_flag(self, capsys, tmp_path, argv, key):
        argv = ("fn", *argv, "--out", str(tmp_path / "curve.csv"))
        assert_value_error(capsys, tmp_path, argv, key)

    def test_readme_examples(self, capsys):
        # The README's fn examples print these exact bytes; its other
        # command lines parse, unexecuted.
        commands = readme_commands()
        pinned = {
            "fn --family clog --phi 60 --beta 0.2 --points 101":
                "54f8d785bef62bdbb8e316ba26c382a0df348a89b02cb1b48cff683f9abf302b",
            "fn --family logistic --phi 60 --fixed-points":
                "754fe299a2bc5250d9d11f7e6be050032e1072154d9e021a548c31854818b1d6",
        }
        assert sorted(" ".join(a) for a in commands if a[0] == "fn") == sorted(pinned)
        for argv in commands:
            if argv[0] == "fn":
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == pinned[" ".join(argv)]
            else:
                assert cli.build_parser().parse_args(argv).command == argv[0]
        assert {a[0] for a in commands} == {"fn", "net", "run", "sweep"}


class TestNet:
    def test_writes_edges_and_nodes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "net", "--n", "64", "--attach", "2",
                               "--seed", "5", "--out-dir", str(tmp_path))
        assert code == 0
        edges = read_csv(tmp_path / "edges.csv")
        nodes = read_csv(tmp_path / "nodes.csv")
        assert edges[0] == ["src", "dst"]
        assert nodes[0] == ["id", "degree"]
        assert len(edges) - 1 == 2 * 61 + 3  # seed triangle + 2 per new node
        assert len(nodes) - 1 == 64
        # zero-based ids, degree sum = 2 E
        assert nodes[1][0] == "0"
        degree_sum = sum(int(r[1]) for r in nodes[1:])
        assert degree_sum == 2 * (len(edges) - 1)

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "net")
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize("argv, key", [
        (("--attach", "0"), "attach"),
        (("--n", "2"), "n"),
        (("--n", "2", "--attach", "2"), "n"),
        (("--n", "400000000", "--attach", "3"), "n"),
    ])
    def test_error_names_the_flag(self, capsys, tmp_path, argv, key):
        assert_value_error(capsys, tmp_path,
                           ("net", "--seed", "1", "--out-dir", str(tmp_path), *argv), key)


class TestRun:
    def test_summary_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "unbiased", "--phi", "90", "--degree", "2",
            "--seed", "7", "--n", "64",
        )
        assert code == 0
        assert "outcome=extinction" in out
        assert "t_final=175" in out
        assert "terminated_by=consensus_zero" in out

    def test_dump_nodes_schema(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "nearby", "--phi", "90", "--degree", "3",
            "--seed", "7", "--out-dir", str(tmp_path), "--dump-nodes",
            "--dump-trajectory", "--dump-edges",
        )
        assert code == 0
        nodes = read_csv(tmp_path / "nodes.csv")
        assert nodes[0] == ["id", "degree", "beta", "distance", "m_final"]
        assert len(nodes) - 1 == 256
        innovator_rows = [r for r in nodes[1:] if r[3] == "0"]
        assert len(innovator_rows) == 1
        assert int(innovator_rows[0][1]) == 3  # requested degree
        traj = read_csv(tmp_path / "trajectory.csv")
        assert traj[0] == ["t", "mbar"]
        assert traj[1] == ["0", f"{1/256:.9g}"]
        edges = read_csv(tmp_path / "edges.csv")
        assert edges[0] == ["src", "dst"]
        assert len(edges) - 1 == 509

    def test_missing_degree(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "nearby", "--phi", "90",
                               "--seed", "7")
        assert code == 1
        assert "degree" in err

    def test_neutral_conflict(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "neutral", "--phi", "60",
                               "--degree", "2", "--seed", "7")
        assert code == 1
        assert "neutral" in err

    def test_trace_built_only_for_trajectory_dump(self, capsys, tmp_path, monkeypatch):
        traces = []

        def recording_simulate_run(*args, **kwargs):
            traces.append(kwargs["mbar_trace"])
            return simulate_run(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_run", recording_simulate_run)
        argv = ("run", "--scenario", "nearby", "--phi", "90", "--degree", "3",
                "--seed", "7", "--max-iters", "3000", "--out-dir", str(tmp_path))
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, dumped, _ = run_cli(capsys, *argv, "--dump-trajectory")
        assert code == 0
        assert traces[0] is None
        t_final = int(dict(tok.split("=", 1) for tok in plain.split())["t_final"])
        assert len(traces[1]) == t_final + 1
        # The summary line does not depend on the trace.
        assert dumped.splitlines()[0] == plain.rstrip("\n")

    @pytest.mark.parametrize("flag, value, key", [
        ("--regen-limit", "0", "regen_limit"),
        ("--run-index", "-1", "run_index"),
        ("--phi", "30", "phi"),
        ("--n", "2", "n"),
        ("--scenario", "neutral", "phi"),
    ])
    def test_bad_run_draw_is_usage_error(self, capsys, tmp_path, flag, value, key):
        assert_value_error(capsys, tmp_path, (
            "run", "--scenario", "random", "--phi", "60", "--degree", "2",
            "--seed", "7", "--n", "64", flag, value, "--out-dir", str(tmp_path),
            "--dump-trajectory", "--dump-nodes", "--dump-edges",
        ), key)

    def test_impossible_degree_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "random", "--phi", "60", "--degree", "40",
            "--seed", "7", "--n", "16", "--regen-limit", "3",
        )
        assert code == 2
        assert "degree 40" in err


class TestSweep:
    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "random", "--phi", "60")
        assert code == 1
        assert "seed" in err

    def test_small_sweep_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "unbiased", "--phi", "75,80",
            "--degrees", "2,3", "--runs", "2", "--seed", "9", "--n", "64",
            "--max-iters", "400", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        cells = read_csv(tmp_path / "cells.csv")
        runs = read_csv(tmp_path / "runs.csv")
        assert len(cells) - 1 == 4
        assert len(runs) - 1 == 8
        assert cells[0][0] == "phi_deg"
        assert runs[0] == ["scenario", "phi_deg", "degree", "run_index",
                           "mbar_final", "t_final", "outcome"]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("scenario=unbiased\nphi=75\ndegrees=2\nruns=1\nn=64\nmax_iters=300\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--seed", "4",
            "--runs", "2", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        runs = read_csv(tmp_path / "runs.csv")
        assert len(runs) - 1 == 2

    def test_bad_config_value_names_file_line_and_flag(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario=unbiased\nruns=ten\n")
        code, _, err = run_cli(
            capsys, "sweep", "--config", str(cfg), "--phi", "75", "--degrees", "2",
            "--seed", "4", "--n", "64", "--max-iters", "50", "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "bad.cfg:2: argument --runs: invalid int value: 'ten'" in err
        assert not (tmp_path / "cells.csv").exists()
        assert not (tmp_path / "runs.csv").exists()

    def test_bad_config_choice_names_file_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# grid\nphi=75\nscenario=plaza\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--seed", "4",
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert "bad.cfg:3: argument --scenario: invalid choice: 'plaza'" in err
        assert not (tmp_path / "cells.csv").exists()

    def test_all_failed_cell_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--scenario", "random", "--phi", "60",
            "--degrees", "40", "--runs", "2", "--seed", "4", "--n", "16",
            "--regen-limit", "2", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "regeneration" in err
        # outputs are still written for inspection
        assert (tmp_path / "cells.csv").exists()


    def test_out_dir_under_a_file_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out_dir = str(blocker / "out")
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "unbiased", "--phi", "75", "--degrees", "2",
            "--runs", "1", "--seed", "9", "--n", "64", "--max-iters", "50",
            "--workers", "1", "--out-dir", out_dir,
        )
        assert code == 2
        assert err.startswith(f"error: cannot create output directory {out_dir}: ")

    @pytest.mark.parametrize("flag, key", [("--phi", "phi"), ("--degrees", "degrees")])
    def test_repeated_grid_value_is_usage_error(self, capsys, tmp_path, flag, key):
        grid = {"--phi": "60", "--degrees": "4"}
        grid[flag] += "," + grid[flag]
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "random", "--phi", grid["--phi"],
            "--degrees", grid["--degrees"], "--runs", "2", "--seed", "5",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert key in err
        assert not (tmp_path / "cells.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, capsys, tmp_path, workers):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "unbiased", "--phi", "75", "--degrees", "2",
            "--runs", "1", "--seed", "9", "--n", "64", "--max-iters", "50",
            "--workers", workers, "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "workers" in err
        assert not (tmp_path / "cells.csv").exists()

    @pytest.mark.parametrize("workers, note", [
        ("5000", "note: --workers 5000 exceeds the 3 cores; using 3\n"),
        ("3", ""),
    ])
    def test_workers_beyond_cores_noted(self, capsys, tmp_path, serial_pool, workers, note):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "unbiased", "--phi", "75,80", "--degrees", "2,3",
            "--runs", "2", "--seed", "9", "--n", "64", "--max-iters", "50",
            "--workers", workers, "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert err == note
        assert serial_pool == [3]

    def test_list_value_beyond_csv_digits_is_usage_error(self, capsys, tmp_path):
        # 60.0000000001 would print as 60 but seed differently from 60.
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "random", "--phi", "60.0000000001",
            "--degrees", "4", "--runs", "1", "--seed", "5", "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("error: phi 60.0000000001 prints as 60 in sweep outputs, ")

    def test_list_values_with_csv_digits_accepted(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "random", "--phi", "60.3,90",
            "--degrees", "4", "--runs", "1", "--seed", "5", "--n", "64",
            "--max-iters", "50", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        runs = read_csv(tmp_path / "runs.csv")
        assert [r[1] for r in runs[1:]] == ["60.3", "90"]


class TestSeedRange:
    @pytest.mark.parametrize("command, grid", [
        ("run", ("--scenario", "unbiased", "--phi", "75", "--degree", "2", "--n", "64",
                 "--max-iters", "50")),
        ("sweep", ("--scenario", "unbiased", "--phi", "75", "--degrees", "2", "--runs", "1",
                   "--workers", "1", "--n", "64", "--max-iters", "50")),
        ("net", ("--n", "8")),
    ])
    def test_seed_beyond_64_bits_is_usage_error(self, capsys, tmp_path, command, grid):
        # mix_seed keeps the low 64 bits, so 2**64 would replay seed 0.
        code, out, err = run_cli(
            capsys, command, *grid, "--seed", str(2**64), "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "--seed" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, grid", [
        ("run", ("--scenario", "unbiased", "--phi", "75", "--degree", "2")),
        ("sweep", ("--scenario", "unbiased", "--phi", "75", "--degrees", "2")),
        ("net", ()),
    ])
    def test_non_integer_seed_is_usage_error(self, capsys, tmp_path, command, grid):
        code, out, err = run_cli(capsys, command, *grid, "--seed", "x",
                                 "--out-dir", str(tmp_path))
        assert code == 1
        assert "--seed" in err and "'x'" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "unbiased", "--phi", "75", "--degree", "2",
            "--seed", str(2**64 - 1), "--n", "64", "--max-iters", "50",
        )
        assert code == 0


class TestReplay:
    @pytest.mark.parametrize("scenario", ["hubs", "nearby", "random"])
    def test_every_sweep_row_replays_with_run(self, capsys, tmp_path, scenario):
        # Any runs.csv row can be replayed in isolation with `clogsim run`.
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", scenario, "--phi", "60,90",
            "--degrees", "3,8", "--runs", "2", "--seed", "20260810",
            "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "runs.csv").read_text())))
        assert len(rows) == 8
        for row in rows:
            code, out, _ = run_cli(
                capsys, "run", "--scenario", scenario, "--phi", row["phi_deg"],
                "--degree", row["degree"], "--run-index", row["run_index"],
                "--seed", "20260810",
            )
            assert code == 0
            fields = dict(tok.split("=", 1) for tok in out.split())
            assert fields["outcome"] == row["outcome"]
            assert fields["mbar_final"] == row["mbar_final"]
            assert fields["t_final"] == row["t_final"]


class TestTopLevel:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "plot")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "fn" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "--out-dir" in out

    @pytest.mark.parametrize("command", ["fn", "run", "sweep"])
    def test_help_prints_only_real_defaults(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "default: None" not in out and "default: False" not in out
        if command == "sweep":
            assert "runs per (phi, degree) cell (default: 100)" in out
            assert "(default and maximum: the cores this process may use)" in out
        if command == "run":
            assert "cycle cap per run (default: 10000)" in out
