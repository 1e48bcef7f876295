"""Experiment harness: specs, determinism, artifacts, CLI."""

import json
import os

import numpy as np
import pytest

import coopbeam.cli as cli
import coopbeam.experiments as ex


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

    def test_default_specs_exist_for_all_ids(self):
        for exp_id in ex.EXPERIMENT_IDS:
            spec = ex.default_spec(exp_id)
            assert spec.sweep


class TestRunExperiment:
    def test_byte_identical_rerun(self, tmp_path):
        spec = ex.default_spec(
            "prop2-rank", sweep=[3], draws=1, seed=5, out_dir=str(tmp_path / "a")
        )
        spec.scenario = {"n_bs": 8, "m1": 4, "m2": 4}
        ex.run_experiment(spec)
        first = (tmp_path / "a" / "prop2-rank.csv").read_bytes()
        spec2 = ex.default_spec(
            "prop2-rank", sweep=[3], draws=1, seed=5, out_dir=str(tmp_path / "b")
        )
        spec2.scenario = {"n_bs": 8, "m1": 4, "m2": 4}
        ex.run_experiment(spec2)
        second = (tmp_path / "b" / "prop2-rank.csv").read_bytes()
        assert first == second

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        kw = dict(sweep=[-10.0], draws=3, seed=2)
        spec = ex.default_spec("prop1-property", out_dir=str(tmp_path / "s"), **kw)
        spec.scenario = {"n_bs": 3, "m1": 3, "m2": 3}
        ex.run_experiment(spec, threads=1)
        spec2 = ex.default_spec("prop1-property", out_dir=str(tmp_path / "t"), **kw)
        spec2.scenario = {"n_bs": 3, "m1": 3, "m2": 3}
        ex.run_experiment(spec2, threads=3)
        assert (tmp_path / "s" / "prop1-property.csv").read_bytes() == (
            tmp_path / "t" / "prop1-property.csv"
        ).read_bytes()

    def test_fig5_double_never_below_single(self, tmp_path):
        spec = ex.default_spec(
            "fig5-rate-vs-M1-split",
            sweep=[0, 4, 8],
            draws=3,
            seed=11,
            out_dir=str(tmp_path),
        )
        spec.options = {"m_total": 8, "restarts": 8}
        spec.scenario = {"n_bs": 3}
        summary = ex.run_experiment(spec)
        assert summary["assertions"]["double_ge_single_all_splits"]

    def test_prop2_summary_fractions(self, tmp_path):
        spec = ex.default_spec("prop2-rank", sweep=[5], draws=5, seed=0, out_dir=str(tmp_path))
        summary = ex.run_experiment(spec)
        asserts = summary["assertions"]
        assert asserts["frac_rank_h_full"] == 1.0
        assert asserts["frac_rank_hbar_2"] == 1.0
        assert asserts["pass"]

    def test_fig9_single_rate_collapses_beyond_rank(self, tmp_path):
        # single-IRS max-min rate drops sharply once K exceeds rank(Gbar) = 2
        spec = ex.default_spec(
            "fig9-rate-vs-K", sweep=[2, 3], draws=2, seed=4, out_dir=str(tmp_path)
        )
        spec.scenario = {"n_bs": 8, "m1": 4, "m2": 4}
        spec.options = {"methods": ["double-mmse", "single-mmse"]}
        summary = ex.run_experiment(spec)
        span = summary["assertions"]["rate_span[single-mmse]"]
        assert span["last"] < 0.6 * span["first"]
        double_span = summary["assertions"]["rate_span[double-mmse]"]
        assert double_span["last"] > span["last"]

    def test_oracle_suite_passes(self, tmp_path):
        spec = ex.default_spec("oracle-suite", draws=5, seed=1, out_dir=str(tmp_path))
        summary = ex.run_experiment(spec)
        assert summary["assertions"]["pass"], summary["assertions"]

    def test_csv_columns(self, tmp_path):
        spec = ex.default_spec("prop2-rank", sweep=[3], draws=1, seed=5, out_dir=str(tmp_path))
        spec.scenario = {"n_bs": 8, "m1": 4, "m2": 4}
        ex.run_experiment(spec)
        header = (tmp_path / "prop2-rank.csv").read_text().splitlines()[0]
        assert header == "sweep,method,mean_rate,stderr,draws,status"


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
        spec = ex.default_spec(
            "fig6-rate-vs-totalM", sweep=[4], draws=1, seed=3, out_dir=str(tmp_path)
        )
        spec.options = {"kappa_set_db": [-10.0, 10.0], "restarts": 4}
        spec.scenario = {"n_bs": 2}
        summary = ex.run_experiment(spec)
        files = ex.emit_plotdata(summary["csv"])
        assert len(files) == 4


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ex.EXPERIMENT_IDS:
            assert exp_id in out

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
