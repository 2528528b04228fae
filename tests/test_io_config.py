import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogsim import cli, io_config, montecarlo
from clogsim.io_config import format_field, write_csv, write_sweep_outputs
from clogsim.montecarlo import RUN_DTYPE, SweepSpec, aggregate_cells, execute_sweep, mix_seed
from clogsim.scenarios import ScenarioConfig


class _Built(BaseException):
    """Carries what the CLI built out of the call that would start the work."""


@pytest.fixture
def built(monkeypatch):
    """Runs ``clogsim`` argv up to the sweep or the run and returns what it
    built: the SweepSpec, or (config, seed, run_index, regen_limit)."""

    def stop(*args, **kwargs):
        raise _Built(args[0] if len(args) == 1 else args)

    monkeypatch.setattr(montecarlo, "execute_sweep", stop)
    monkeypatch.setattr(montecarlo, "prepare_run", stop)

    def build(*argv):
        with pytest.raises(_Built) as exc:
            cli.main(list(argv))
        return exc.value.args[0]

    return build


def rejected(capsys, *argv) -> str:
    """The error line of a command that must exit 1."""
    assert cli.main(list(argv)) == 1
    return capsys.readouterr().err.splitlines()[0]


class TestParseSweep:
    def test_spec_example(self, built):
        spec = built("sweep", "--scenario", "nearby", "--phi", "60", "--degrees", "2:20",
                     "--runs", "100", "--seed", "42")
        assert spec.scenario.kind == "nearby"
        assert spec.phi_list == (60.0,)
        assert spec.degree_list == tuple(range(2, 21))
        assert spec.runs_per_cell == 100
        assert spec.master_seed == 42
        assert spec.scenario.n == 256
        assert spec.scenario.alpha == 0.1
        assert spec.scenario.max_iters == 10_000

    def test_neutral_phi_conflict_named(self, capsys):
        assert "phi" in rejected(capsys, "sweep", "--scenario", "neutral", "--phi", "60",
                                 "--seed", "1")

    def test_seed_required(self, capsys):
        assert "--seed" in rejected(capsys, "sweep", "--scenario", "random")

    def test_scenario_required(self, capsys):
        assert "--scenario" in rejected(capsys, "sweep", "--seed", "1")

    def test_unknown_key_named(self, capsys):
        assert "--wat" in rejected(capsys, "sweep", "--scenario", "random", "--phi", "60",
                                   "--seed", "1", "--wat", "1")

    def test_bad_number_named(self, capsys):
        assert "--runs" in rejected(capsys, "sweep", "--scenario", "random", "--phi", "60",
                                    "--seed", "1", "--runs", "ten")

    def test_range_with_step(self, built):
        spec = built("sweep", "--scenario", "random", "--phi", "50:70:10",
                     "--degrees", "2,8,32", "--seed", "1")
        assert spec.phi_list == (50.0, 60.0, 70.0)
        assert spec.degree_list == (2, 8, 32)

    def test_decimal_range_lands_on_printed_values(self, built):
        spec = built("sweep", "--scenario", "random", "--phi", "60:90:0.1", "--seed", "1")
        assert len(spec.phi_list) == 301
        assert spec.phi_list[3] == 60.3
        assert spec.phi_list[-1] == 90.0

    @given(
        lo=st.integers(450, 890).map(lambda k: k / 10),
        step=st.integers(1, 300).map(lambda k: k / 100),
        count=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_values_replay_from_their_csv_text(self, lo, step, count):
        hi = min(90.0, lo + count * step)
        phi_list = cli._grid(float)(f"{lo!r}:{hi!r}:{step!r}")
        assert phi_list[0] == lo
        for phi in phi_list:
            replayed = float(format_field(phi))
            assert mix_seed(1, "random", phi, 2, 0) == mix_seed(1, "random", replayed, 2, 0)

    def test_step_finer_than_csv_text_rejected(self, capsys):
        assert "--phi" in rejected(capsys, "sweep", "--scenario", "random",
                                   "--phi", "60:61:1e-12", "--seed", "1")

    def test_desk_defaults(self, built):
        spec = built("sweep", "--scenario", "random", "--phi", "60", "--seed", "5")
        assert spec.degree_list == (2, 3, 4, 6, 8, 12, 16, 24, 32)
        assert spec.runs_per_cell == 100

    def test_negative_seed(self, capsys):
        assert "--seed" in rejected(capsys, "sweep", "--scenario", "random", "--phi", "60",
                                    "--seed", "-3")

    def test_seed_beyond_64_bits(self, capsys):
        assert "--seed" in rejected(capsys, "sweep", "--scenario", "random", "--phi", "60",
                                    "--seed", str(2**64))
        assert "--seed" in rejected(capsys, "run", "--scenario", "nearby", "--phi", "90",
                                    "--degree", "3", "--seed", str(2**64))

    def test_range_rounding_past_its_end_is_empty(self, capsys):
        # 1.99999999999 prints as 2, which lies beyond the range's end.  An
        # end below the start, a step that is not positive and a fourth part
        # are rejected alike.
        for text in ("1.99999999999:1.99999999999", "60:50", "60:70:0", "60:70:-5", "1:2:3:4"):
            assert "--phi" in rejected(capsys, "sweep", "--scenario", "random",
                                       "--phi", text, "--seed", "1")


class TestParseRun:
    def test_basic(self, built):
        config, seed, run_index, regen = built(
            "run", "--scenario", "nearby", "--phi", "90", "--degree", "3", "--seed", "7"
        )
        assert config.kind == "nearby"
        assert config.phi_deg == 90.0
        assert config.innovator_degree == 3
        assert (seed, regen, run_index) == (7, 1000, 0)

    def test_missing_pieces_named(self, capsys):
        assert "--phi" in rejected(capsys, "run", "--scenario", "nearby", "--degree", "3",
                                   "--seed", "7")
        assert "--degree" in rejected(capsys, "run", "--scenario", "nearby", "--phi", "90",
                                      "--seed", "7")

    def test_sweep_only_keys_rejected(self, capsys):
        assert "--degrees" in rejected(capsys, "run", "--scenario", "nearby", "--phi", "90",
                                       "--degree", "3", "--degrees", "2:4", "--seed", "7")


class TestConfigFile:
    def test_file_and_override(self, tmp_path, built):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# comment\nscenario=hubs\nphi=80\nruns=10  # trailing\n")
        spec = built("sweep", "--config", str(cfg), "--phi", "85", "--seed", "3")
        assert spec.scenario.kind == "hubs"
        assert spec.phi_list == (85.0,)  # flag wins over file
        assert spec.runs_per_cell == 10

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario hubs\n")
        assert "key=value" in rejected(capsys, "sweep", "--config", str(cfg), "--seed", "1")

    def test_missing_file(self, capsys):
        assert "no-such-file" in rejected(capsys, "sweep", "--config", "no-such-file.cfg",
                                          "--seed", "1")

    def test_undecodable_file_names_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"scenario=hubs\nseed=1\xff\n")
        err = rejected(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec ")
        assert not (tmp_path / "cells.csv").exists()

    def test_file_line_named_before_a_bad_flag(self, capsys, tmp_path):
        # The file's flags come first, so its bad line is the error reported.
        cfg = tmp_path / "b2.cfg"
        cfg.write_text("scenario=hubs\nruns=ten\n")
        err = rejected(capsys, "sweep", "--config", str(cfg), "--phi", "bad", "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert err == f"error: {cfg}:2: argument --runs: invalid int value: 'ten'"
        assert not (tmp_path / "cells.csv").exists()

    def test_keys_are_the_sweep_flags(self):
        # Every sweep flag but --config, --workers and --out-dir may be set by a file.
        sub = next(a for a in cli.build_parser()._actions if a.choices and "sweep" in a.choices)
        flags = {a.option_strings[-1][2:].replace("-", "_")
                 for a in sub.choices["sweep"]._actions if a.dest != "help"}
        assert len(set(cli.SWEEP_KEYS)) == len(cli.SWEEP_KEYS)
        assert set(cli.SWEEP_KEYS) == flags - {"config", "workers", "out_dir"}

    # key: (the spec's value, file text, its value, flag text, its value)
    KEYS = {
        "scenario": (lambda s: s.scenario.kind, "random", "random", "nearby", "nearby"),
        "phi": (lambda s: s.phi_list, "60", (60.0,), "70:80:10", (70.0, 80.0)),
        "degrees": (lambda s: s.degree_list, "2,3", (2, 3), "4", (4,)),
        "runs": (lambda s: s.runs_per_cell, "5", 5, "7", 7),
        "seed": (lambda s: s.master_seed, "3", 3, "4", 4),
        "n": (lambda s: s.scenario.n, "64", 64, "128", 128),
        "attach": (lambda s: s.scenario.attach_count, "3", 3, "4", 4),
        "alpha": (lambda s: s.scenario.alpha, "0.2", 0.2, "0.3", 0.3),
        "max_iters": (lambda s: s.scenario.max_iters, "300", 300, "400", 400),
        "regen_limit": (lambda s: s.regen_limit, "5", 5, "6", 6),
    }

    @pytest.mark.parametrize("key", cli.SWEEP_KEYS)
    def test_file_value_applies_and_flag_overrides_it(self, tmp_path, built, key):
        read, file_text, file_value, flag_text, flag_value = self.KEYS[key]
        cfg = tmp_path / "sweep.cfg"
        # The key's line comes after scenario and seed, so it also wins over them.
        cfg.write_text(f"scenario=hubs\nseed=1\n{key}={file_text}\n")
        flag = "--" + key.replace("_", "-")
        assert read(built("sweep", "--config", str(cfg))) == file_value
        assert read(built("sweep", "--config", str(cfg), flag, flag_text)) == flag_value

    @pytest.mark.parametrize("key", ["workers", "config", "out_dir", "degree"])
    def test_keys_beyond_the_ten_rejected_at_their_line(self, capsys, tmp_path, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"scenario=hubs\n{key}=2\n")
        err = rejected(capsys, "sweep", "--config", str(cfg), "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert f"{cfg}:2: unknown key {key!r}" in err
        assert not (tmp_path / "cells.csv").exists()

    def test_bad_file_value_is_an_error_under_a_flag(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("scenario=hubs\nruns=ten\n")
        err = rejected(capsys, "sweep", "--config", str(cfg), "--runs", "2", "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert "--runs" in err
        assert not (tmp_path / "cells.csv").exists()


class TestFormatting:
    def test_nine_significant_digits(self):
        assert format_field(1 / 3) == "0.333333333"
        assert format_field(0.56) == "0.56"
        assert format_field(123456789012.0) == "1.23456789e+11"

    def test_blank_for_undefined(self):
        assert format_field(None) == ""
        assert format_field(float("nan")) == ""

    def test_ints_plain(self):
        assert format_field(10000) == "10000"


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [(1, 0.5), (2, None)])
        lines = Path(path).read_text().splitlines()
        assert lines == ["a,b", "1,0.5", "2,"]

    def test_atomic_no_temp_left(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a",), [(1,)])
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_row_leaves_no_file(self, tmp_path):
        def rows():
            yield (1,)
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            write_csv(str(tmp_path / "t.csv"), ("a",), rows())
        assert os.listdir(tmp_path) == []

    def test_error_names_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = str(blocker / "sub" / "t.csv")  # parent is a file
        with pytest.raises(OSError, match="t.csv"):
            write_csv(target, ("a",), [(1,)])


class TestSweepOutputs:
    def _small_sweep(self):
        spec = SweepSpec(
            scenario=ScenarioConfig(kind="unbiased", phi_deg=75.0, n=64, max_iters=500),
            phi_list=(75.0, 80.0),
            degree_list=(2, 3),
            runs_per_cell=3,
            master_seed=9,
            regen_limit=20,
        )
        cells, records = execute_sweep(spec, workers=1)
        return spec, cells, records

    def test_line_counts(self, tmp_path):
        spec, cells, records = self._small_sweep()
        cells_path, runs_path = write_sweep_outputs(cells, records, "unbiased", str(tmp_path))
        assert len(Path(cells_path).read_text().splitlines()) == len(cells) + 1
        assert len(Path(runs_path).read_text().splitlines()) == len(records) + 1

    def test_chunks_write_the_bytes_of_one(self, tmp_path, monkeypatch):
        # 12 runs written 5 at a time: two full chunks and a short one.
        spec, cells, records = self._small_sweep()
        whole = write_sweep_outputs(cells, records, "unbiased", str(tmp_path / "a"))[1]
        monkeypatch.setattr(io_config, "_ROWS_PER_CHUNK", 5)
        chunked = write_sweep_outputs(cells, records, "unbiased", str(tmp_path / "b"))[1]
        assert Path(chunked).read_bytes() == Path(whole).read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        spec, cells, records = self._small_sweep()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        p1 = write_sweep_outputs(cells, records, "unbiased", str(d1))
        spec2, cells2, records2 = self._small_sweep()
        p2 = write_sweep_outputs(cells2, records2, "unbiased", str(d2))
        for a, b in zip(p1, p2):
            da = hashlib.sha256(Path(a).read_bytes()).hexdigest()
            db = hashlib.sha256(Path(b).read_bytes()).hexdigest()
            assert da == db

    def test_failed_runs_have_blank_fields(self, tmp_path):
        records = np.array([(60.0, 40, 0, 1, 3, True, np.nan, -1, "")], dtype=RUN_DTYPE)
        spec = SweepSpec(
            scenario=ScenarioConfig(kind="random", phi_deg=60.0, n=64),
            phi_list=(60.0,), degree_list=(40,), runs_per_cell=1,
            master_seed=1, regen_limit=3,
        )
        cells = aggregate_cells(spec, records)
        cells_path, runs_path = write_sweep_outputs(cells, records, "random", str(tmp_path))
        lines = Path(runs_path).read_text().splitlines()
        assert lines[1] == "random,60,40,0,,,regen_failure"
        assert Path(cells_path).read_text().splitlines()[1] == "60,40,0,0,0,0,,,,1"
