"""Tests for the CLI and the EXPERIMENTS.md report generator."""

import json
import os

import numpy as np
import pytest

from repro.analysis.report_generator import (
    FIGURE_INDEX,
    generate_experiments_markdown,
    load_grid,
    load_payload,
    write_experiments_markdown,
)
from repro.cli import build_parser, main
from repro.robustness import RobustnessGrid


@pytest.fixture()
def results_dir(tmp_path):
    """A minimal benchmark-results directory with one grid and two payloads."""
    directory = tmp_path / "results"
    directory.mkdir()
    grid = RobustnessGrid(
        attack_key="BIM_linf",
        dataset_name="synthetic-mnist",
        epsilons=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0, 1.5, 2.0],
        victim_labels=[f"M{i}" for i in range(1, 10)],
        values=np.tile(
            np.array([[98, 90, 50, 30, 10, 0, 0, 0, 0, 0]], dtype=float).T, (1, 9)
        ),
    )
    with open(directory / "fig4a_bim_linf.json", "w") as handle:
        json.dump(grid.to_dict(), handle)
    with open(directory / "headline_claims.json", "w") as handle:
        json.dump(
            {
                "paper_axdnn_loss_percent": 53.0,
                "paper_accurate_loss_percent": 0.06,
                "measured_cr_axdnn_max_loss": 12.5,
                "measured_cr_accurate_max_loss": 0.0,
                "mae_vs_robustness_correlation": -0.6,
                "trend_checks": {"passed": 3, "total": 3, "failed": []},
            },
            handle,
        )
    with open(directory / "ablation_lut_vs_exact.json", "w") as handle:
        json.dump({"exact_fastpath_s": 0.1, "lut_gather_s": 0.5, "slowdown": 5.0}, handle)
    return str(directory)


class TestReportGenerator:
    def test_load_grid_roundtrip(self, results_dir):
        grid = load_grid(results_dir, "fig4a_bim_linf")
        assert grid is not None
        assert grid.attack_key == "BIM_linf"
        assert load_grid(results_dir, "does_not_exist") is None

    def test_load_payload(self, results_dir):
        assert load_payload(results_dir, "headline_claims")["measured_cr_axdnn_max_loss"] == 12.5
        assert load_payload(results_dir, "missing") is None

    def test_markdown_includes_measured_and_paper_sections(self, results_dir):
        content = generate_experiments_markdown(results_dir)
        assert "# EXPERIMENTS — paper vs measured" in content
        assert "Fig. 4a" in content
        assert "rank correlation" in content
        assert "53%" in content or "53.0" in content or "| 53% |" in content
        # figures without results are marked as not measured, not dropped
        assert "*(not yet measured)*" in content

    def test_markdown_covers_every_indexed_figure(self, results_dir):
        content = generate_experiments_markdown(results_dir)
        for _, description in FIGURE_INDEX.values():
            assert description in content

    def test_write_experiments_markdown(self, results_dir, tmp_path):
        output = str(tmp_path / "EXPERIMENTS.md")
        content = write_experiments_markdown(results_dir, output)
        assert os.path.exists(output)
        with open(output) as handle:
            assert handle.read() == content

    def test_empty_results_directory(self, tmp_path):
        content = generate_experiments_markdown(str(tmp_path))
        assert "not yet measured" in content


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["multipliers"])
        assert args.command == "multipliers"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_multipliers_command(self, capsys):
        assert main(["multipliers", "--names", "mul8u_1JFF,mul8u_17KS"]) == 0
        output = capsys.readouterr().out
        assert "mul8u_17KS" in output
        assert "MAE%" in output

    def test_attacks_command(self, capsys):
        assert main(["attacks"]) == 0
        output = capsys.readouterr().out
        assert "BIM_linf" in output
        assert "RAU_linf" in output

    def test_attacks_command_lists_exactly_the_registry(self, capsys):
        from repro.attacks import available_attacks

        assert main(["attacks"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert sorted(row.split()[0] for row in rows) == sorted(available_attacks())
        assert len(rows) == 10
        # the extension attacks and their flag are gone
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attacks", "--extended"])

    def test_report_command(self, results_dir, tmp_path, capsys):
        output_path = str(tmp_path / "EXPERIMENTS.md")
        assert main(["report", "--results", results_dir, "--output", output_path]) == 0
        assert os.path.exists(output_path)
        assert "wrote" in capsys.readouterr().out

    def test_workers_flag_shared_by_crafting_subcommands(self):
        parser = build_parser()
        for command in ("run", "sweep", "serve"):
            base = ["--spec", "x.json"] if command == "run" else []
            args = parser.parse_args([command, *base, "--workers", "2"])
            assert args.workers == "2"


class TestExperimentCommands:
    """The declarative `spec` and `run` subcommands."""

    @pytest.fixture()
    def tiny_spec_file(self, tmp_path, monkeypatch):
        from repro.experiments import (
            AttackSpec,
            ExperimentSpec,
            ModelSpec,
            SweepSpec,
            VictimSpec,
        )

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "store"))
        spec = ExperimentSpec(
            name="cli-tiny",
            model=ModelSpec(
                architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
            ),
            victims=VictimSpec(multipliers=("M1",), calibration_samples=32),
            attacks=(AttackSpec(attack="FGM_linf"),),
            sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
        )
        path = str(tmp_path / "spec.json")
        spec.save(path)
        return path

    def test_spec_command_emits_loadable_template(self, tmp_path, capsys):
        from repro.experiments import ExperimentSpec

        output = str(tmp_path / "template.json")
        assert main(["spec", "--name", "demo", "--output", output]) == 0
        spec = ExperimentSpec.load(output)
        assert spec.name == "demo"
        assert spec.kind == "panel"

    def test_spec_command_stdout(self, capsys):
        assert main(["spec", "--attacks", "BIM_linf"]) == 0
        out = capsys.readouterr().out
        assert '"spec_version"' in out
        assert "BIM_linf" in out

    def test_run_twice_is_bit_identical_and_cached(
        self, tiny_spec_file, tmp_path, capsys
    ):
        first_out = str(tmp_path / "first.json")
        second_out = str(tmp_path / "second.json")
        assert main(["run", "--spec", tiny_spec_file, "--output", first_out]) == 0
        assert "computed" in capsys.readouterr().out
        # the second run must be served from the store — --require-cached
        # turns any training/crafting into a hard failure
        assert (
            main(
                [
                    "run",
                    "--spec",
                    tiny_spec_file,
                    "--require-cached",
                    "--output",
                    second_out,
                ]
            )
            == 0
        )
        assert "artifact store" in capsys.readouterr().out
        with open(first_out) as handle:
            first = json.load(handle)
        with open(second_out) as handle:
            second = json.load(handle)
        assert first == second

    def test_run_missing_spec_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "store"))
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="does not exist"):
            main(["run", "--spec", str(tmp_path / "missing.json")])
