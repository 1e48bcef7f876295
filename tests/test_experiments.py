"""Experiment harness: specs, determinism, artifacts, CLI."""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

import coopbeam.cli as cli
import coopbeam.experiments as ex
from coopbeam.channels import SystemScenario
from coopbeam.sdp import SdpSolverError

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_spec(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestSpecValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ex.ExperimentSpec(experiment="nope", sweep=[1])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            ex.ExperimentSpec(experiment="prop2-rank", sweep=[])

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="draws"):
            ex.ExperimentSpec(experiment="prop2-rank", sweep=[5], draws=0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ex.ExperimentSpec.from_dict({"experiment": "prop2-rank", "sweep": [5], "bogus": 1})

    def test_json_error_carries_line_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "prop2-rank",\n  "sweep": [5,]\n}')
        with pytest.raises(ValueError, match=r"broken\.json:3:"):
            ex.load_spec(str(path))

    def test_roundtrip_through_file(self, tmp_path):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[3], draws=2, seed=7)
        spec = ex.load_spec(path)
        assert spec.experiment == "prop2-rank"
        assert spec.draws == 2

    def test_bundled_spec_exists_for_all_ids(self):
        for exp_id in ex.EXPERIMENT_IDS:
            spec = ex.load_spec(ROOT / "scripts" / "specs" / f"{exp_id}.json")
            assert spec.experiment == exp_id

    def test_bundled_and_benchmark_specs_load(self):
        paths = sorted((ROOT / "scripts" / "specs").glob("*.json"))
        paths += sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
        assert paths
        for path in paths:
            ex.load_spec(path)

    def test_scenario_schema_matches_dataclass(self):
        schema = json.loads((ROOT / "docs" / "scenario.schema.json").read_text())
        fields = {f.name for f in dataclasses.fields(SystemScenario)}
        assert set(schema["properties"]) == fields


class TestRunExperiment:
    def test_byte_identical_rerun(self, tmp_path):
        kw = dict(sweep=[3], draws=1, seed=5, scenario={"n_bs": 8, "m1": 4, "m2": 4})
        spec = ex.ExperimentSpec("prop2-rank", out_dir=str(tmp_path / "a"), **kw)
        ex.run_experiment(spec)
        first = (tmp_path / "a" / "prop2-rank.csv").read_bytes()
        spec2 = ex.ExperimentSpec("prop2-rank", out_dir=str(tmp_path / "b"), **kw)
        ex.run_experiment(spec2)
        second = (tmp_path / "b" / "prop2-rank.csv").read_bytes()
        assert first == second

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        kw = dict(sweep=[-10.0], draws=3, seed=2, scenario={"n_bs": 3, "m1": 3, "m2": 3})
        spec = ex.ExperimentSpec("prop1-property", out_dir=str(tmp_path / "s"), **kw)
        ex.run_experiment(spec, threads=1)
        spec2 = ex.ExperimentSpec("prop1-property", out_dir=str(tmp_path / "t"), **kw)
        ex.run_experiment(spec2, threads=3)
        assert (tmp_path / "s" / "prop1-property.csv").read_bytes() == (
            tmp_path / "t" / "prop1-property.csv"
        ).read_bytes()

    def test_fig5_double_never_below_single(self, tmp_path):
        spec = ex.ExperimentSpec(
            "fig5-rate-vs-M1-split",
            sweep=[0, 4, 8],
            draws=3,
            seed=11,
            out_dir=str(tmp_path),
            scenario={"n_bs": 3},
            options={"m_total": 8, "restarts": 8},
        )
        summary = ex.run_experiment(spec)
        assert summary["assertions"]["double_ge_single_all_splits"]

    def test_prop2_summary_fractions(self, tmp_path):
        spec = ex.ExperimentSpec("prop2-rank", sweep=[5], draws=5, seed=0, out_dir=str(tmp_path))
        summary = ex.run_experiment(spec)
        asserts = summary["assertions"]
        assert asserts["frac_rank_h_full"] == 1.0
        assert asserts["frac_rank_hbar_2"] == 1.0
        assert asserts["pass"]

    def test_fig9_single_rate_collapses_beyond_rank(self, tmp_path):
        # single-IRS max-min rate drops sharply once K exceeds rank(Gbar) = 2
        spec = ex.ExperimentSpec(
            "fig9-rate-vs-K",
            sweep=[2, 3],
            draws=2,
            seed=4,
            out_dir=str(tmp_path),
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
            options={"methods": ["double-mmse", "single-mmse"]},
        )
        summary = ex.run_experiment(spec)
        span = summary["assertions"]["rate_span[single-mmse]"]
        assert span["last"] < 0.6 * span["first"]
        double_span = summary["assertions"]["rate_span[double-mmse]"]
        assert double_span["last"] > span["last"]

    def test_oracle_suite_passes(self, tmp_path):
        spec = ex.ExperimentSpec(
            "oracle-suite",
            sweep=["closed-form-grid", "homogenization", "receivers"],
            draws=5,
            seed=1,
            out_dir=str(tmp_path),
        )
        summary = ex.run_experiment(spec)
        assert summary["assertions"]["pass"], summary["assertions"]

    def test_csv_columns(self, tmp_path):
        spec = ex.ExperimentSpec(
            "prop2-rank", sweep=[3], draws=1, seed=5, out_dir=str(tmp_path),
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
        )
        ex.run_experiment(spec)
        header = (tmp_path / "prop2-rank.csv").read_text().splitlines()[0]
        assert header == "sweep,method,mean_rate,stderr,draws,status"

    def test_failure_stays_with_its_point(self, tmp_path, monkeypatch):
        real = ex.rank_gain_report
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise SdpSolverError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "rank_gain_report", fail_first)
        spec = ex.ExperimentSpec(
            "prop2-rank", sweep=[3, 4], draws=2, seed=5, out_dir=str(tmp_path),
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
        )
        summary = ex.run_experiment(spec)
        rows = (tmp_path / "prop2-rank.csv").read_text().splitlines()[1:]
        by_point = {}
        for line in rows:
            sweep, _method, _mean, _stderr, draws, status = line.split(",")
            by_point.setdefault(sweep, set()).add((draws, status))
        assert by_point == {"3": {("1", "failed")}, "4": {("2", "ok")}}
        assert len(summary["failures"]) == 1
        failure = summary["failures"][0]
        assert (failure["draw"], failure["sweep"]) == (0, 3)
        assert failure["error"].startswith("SdpSolverError")


class TestPlotData:
    def _csv(self, tmp_path, rows):
        path = tmp_path / "fig.csv"
        lines = ["sweep,method,mean_rate,stderr,draws,status"] + rows
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_one_file_per_method(self, tmp_path):
        path = self._csv(
            tmp_path,
            ["1,alpha,2.0,0.1,4,ok", "2,alpha,3.0,0.1,4,ok", "1,beta,1.0,0.2,4,ok"],
        )
        files = ex.emit_plotdata(path)
        assert len(files) == 2
        body = open(files[0]).read()
        assert body.startswith("# x y yerr")

    def test_empty_csv_rejected(self, tmp_path):
        path = self._csv(tmp_path, [])
        with pytest.raises(ValueError, match="no data rows"):
            ex.emit_plotdata(path)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nah\n1,2\n")
        with pytest.raises(ValueError, match="missing required columns"):
            ex.emit_plotdata(str(path))

    def test_fig6_series_count(self, tmp_path):
        # 2 methods x |kappa set| series files
        spec = ex.ExperimentSpec(
            "fig6-rate-vs-totalM",
            sweep=[4],
            draws=1,
            seed=3,
            out_dir=str(tmp_path),
            scenario={"n_bs": 2},
            options={"kappa_set_db": [-10.0, 10.0], "restarts": 4},
        )
        summary = ex.run_experiment(spec)
        files = ex.emit_plotdata(summary["csv"])
        assert len(files) == 4


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ex.EXPERIMENT_IDS:
            assert exp_id in out
        assert "    restarts = 20" in out
        assert "    kappa_set_db = [-10.0, 0.0, 10.0]" in out

    def test_validate_good_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[4], draws=1)
        assert cli.main(["validate", path]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[])
        assert cli.main(["validate", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_rejects_unknown_scenario_field(self, tmp_path, capsys):
        # run builds the scenario from these overrides, so validate must reject them too
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[4], scenario={"bogus": 1})
        assert cli.main(["validate", path]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_validate_rejects_unknown_option(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, experiment="prop1-property", sweep=[0.0], options={"restart": 5}
        )
        assert cli.main(["validate", path]) == 2
        assert "restart" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, methods, named",
        [
            ("fig5-rate-vs-M1-split", ["ao_ib"], "ao_ib"),
            ("fig7-mu-alg", ["alg1-foo"], "alg1-foo"),
            ("fig8-mu-vs-power", [], "methods"),
        ],
    )
    def test_validate_rejects_bad_methods(self, tmp_path, capsys, experiment, methods, named):
        path = write_spec(tmp_path, experiment=experiment, sweep=[8], options={"methods": methods})
        assert cli.main(["validate", path]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, sweep, options, named",
        [
            ("oracle-suite", ["bogus"], {}, "bogus"),
            ("fig5-rate-vs-M1-split", [40], {}, "split 40"),
            ("fig5-rate-vs-M1-split", [12], {"m_total": 8}, "split 12"),
            ("prop1-property", [0.0], {"restarts": "x"}, "restarts"),
            ("fig7-mu-alg", ["x"], {}, "not a number"),
        ],
        ids=[
            "oracle-check", "split-over-default-budget", "split-over-given-budget",
            "option-type", "sweep-type",
        ],
    )
    def test_validate_rejects_what_run_rejects(
        self, tmp_path, capsys, experiment, sweep, options, named
    ):
        # each of these passed validate and then stopped run after the draws had started
        path = write_spec(tmp_path, experiment=experiment, sweep=sweep, options=options)
        assert cli.main(["validate", path]) == 2
        assert named in capsys.readouterr().err

    def test_run_rejects_zero_draws_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[3], out_dir=str(tmp_path))
        assert cli.main(["run", path, "--draws", "0"]) == 2
        assert "draws" in capsys.readouterr().err
        assert not (tmp_path / "prop2-rank.csv").exists()

    def test_run_with_overrides(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            experiment="prop2-rank",
            sweep=[3],
            draws=4,
            seed=1,
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
        )
        out_dir = str(tmp_path / "results")
        code = cli.main(["run", path, "--draws", "2", "--out", out_dir, "--plotdata"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["draws"] == 2
        assert os.path.exists(summary["csv"])
        assert summary["plotdata"]
