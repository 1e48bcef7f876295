"""Experiment harness: specs, determinism, artifacts, CLI."""

import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import coopbeam.cli as cli
import coopbeam.experiments as ex
from coopbeam.channels import SystemScenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


PROP2 = {"experiment": "prop2-rank", "sweep": [3]}
FIG7 = {"experiment": "fig7-mu-alg", "sweep": [20]}
TINY_MU = {
    "n_bs": 2, "m1": 2, "m2": 2,
    "links": {name: {"kind": "geometric", "paths": 2} for name in ("u1", "u2", "d", "g1", "g2")},
}


def blas_threads_here(_):
    """(OPENBLAS_NUM_THREADS, thread count of the OpenBLAS numpy loaded or None) of this process."""
    count = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                count = fn()
    return os.environ.get("OPENBLAS_NUM_THREADS"), count


def write_spec(tmp_path, name="spec.json", **fields):
    path = tmp_path / name
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
        for exp_id in ex.EXPERIMENTS:
            spec = ex.load_spec(ROOT / "scripts" / "specs" / f"{exp_id}.json")
            assert spec.experiment == exp_id

    def test_bundled_specs_match_experiments_one_to_one(self):
        # CI runs every bundled spec, so this makes it run every experiment
        specs = (ROOT / "scripts" / "specs").glob("*.json")
        assert sorted(ex.load_spec(p).experiment for p in specs) == sorted(ex.EXPERIMENTS)

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
        # every lower bound of the schema is one the constructor enforces
        for name, prop in schema["properties"].items():
            if "exclusiveMinimum" in prop:
                below = prop["exclusiveMinimum"]
            elif "minimum" in prop:
                below = prop["minimum"] - (1 if prop["type"] == "integer" else 0.5)
            else:
                continue
            with pytest.raises(ValueError):
                SystemScenario(**{name: below})


def printed_interval(text):
    """The values that print as `text` at the CSV's 10 significant digits."""
    x = float(text)
    half = 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 9) if x else 0.0
    return x - half, x + half


def assert_matches(value, expected):
    """Same keys in the same order; a tuple expects a value inside that interval."""
    if isinstance(expected, dict):
        assert list(value) == list(expected)
        for key in expected:
            assert_matches(value[key], expected[key])
    elif isinstance(expected, tuple):
        lo, hi = expected
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        assert lo - slack <= value <= hi + slack
    else:
        assert type(value) is type(expected) and value == expected


# summary assertions recomputed from the CSV: means[(sweep text, method)] is the
# printed mean_rate


def fig6_expected(spec, means):
    m, m2 = spec.sweep  # one doubling of the total M
    gains = {}
    for method in sorted({method for _, method in means}):
        lo = printed_interval(means[(str(m), method)])
        hi = printed_interval(means[(str(m2), method)])
        gains[f"{method} {m}->{m2}"] = (hi[0] - lo[1], hi[1] - lo[0])
    return {"doubling_gains_bits": gains}


def fig7_expected(spec, means):
    return {
        f"alg1_ge_dft_{mode}": all(
            float(means[(str(p), f"alg1-{mode}")]) >= float(means[(str(p), f"dft-{mode}")])
            for p in spec.sweep
        )
        for mode in ("zf", "mmse")
    }


def fig8_expected(spec, means):
    # one draw, so each mean is log2(1 + min SINR) of that draw
    out = {}
    for method in sorted(spec.merged_options["methods"]):
        lo = [2.0**r - 1 for r in printed_interval(means[(str(spec.sweep[0]), method)])]
        hi = [2.0**r - 1 for r in printed_interval(means[(str(spec.sweep[-1]), method)])]
        out[f"sinr_growth[{method}]"] = (hi[0] / lo[1] - 1, hi[1] / lo[0] - 1)
    return out


def prop1_expected(spec, means):
    # one draw, so a violation is an ao-ib rate below the single-IRS rate; the
    # initialization never starts below the baseline (Prop. 1)
    violations = sum(
        float(means[(str(k), "ao-ib")]) < float(means[(str(k), "single-irs")]) for k in spec.sweep
    )
    return {"violations": violations, "init_violations": 0, "pass": violations == 0}


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
        # prop1 never reaches sdp; the tiny fig7 spec (the mu-tiny benchmark's, K = 2,
        # N = 2, M1 = M2 = 2) runs Algorithm 1 and its feasibility checks in the workers
        tiny_fig7 = dict(sweep=[10], draws=2, seed=2, scenario=TINY_MU, options={
            "k_users": 2, "methods": ["alg1-mmse", "dft-mmse"], "eps": 1e-3})
        prop1 = dict(sweep=[-10.0], draws=3, seed=2, scenario={"n_bs": 3, "m1": 3, "m2": 3})
        for name, kw, threads in (("prop1-property", prop1, 3), ("fig7-mu-alg", tiny_fig7, 2)):
            csvs = []
            for t in (1, threads):
                spec = ex.ExperimentSpec(name, out_dir=str(tmp_path / f"{name}-{t}"), **kw)
                ex.run_experiment(spec, threads=t)
                csvs.append((tmp_path / f"{name}-{t}" / f"{name}.csv").read_bytes())
            assert csvs[0] == csvs[1], name

    def test_workers_run_one_blas_thread(self, monkeypatch):
        # a caller allowing two BLAS threads must not pass them on to the --threads workers
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        seen = ex.in_workers(blas_threads_here, range(2), 2)
        assert seen == [("1", 1)] * 2 or seen == [("1", None)] * 2
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "MKL_NUM_THREADS" not in os.environ

    def test_scenarios_resolved_once_per_sweep_value(self, tmp_path, monkeypatch):
        # run_experiment resolves each point's scenarios once and hands them to every draw
        real = ex.ExperimentSpec.scenarios
        calls = []

        def counted(self, opts, value):
            calls.append(value)
            return real(self, opts, value)

        monkeypatch.setattr(ex.ExperimentSpec, "scenarios", counted)
        kw = dict(sweep=[-10.0, 0.0], seed=2, scenario={"n_bs": 3, "m1": 2, "m2": 2},
                  options={"restarts": 2})
        artifacts = {}
        for draws, threads in ((1, 1), (3, 1), (3, 2)):
            out = tmp_path / f"{draws}-{threads}"
            spec = ex.ExperimentSpec("prop1-property", draws=draws, out_dir=str(out), **kw)
            calls.clear()
            ex.run_experiment(spec, threads=threads)
            assert calls == spec.sweep
            summary = json.loads((out / "prop1-property_summary.json").read_text())
            del summary["csv"]
            artifacts[draws, threads] = (out / "prop1-property.csv").read_bytes(), summary
        assert artifacts[3, 1] == artifacts[3, 2]

    def test_rejected_override_fails_before_any_draw(self, tmp_path, monkeypatch):
        spec = ex.ExperimentSpec("prop1-property", sweep=[0.0], draws=2, out_dir=str(tmp_path))
        spec.scenario = {"n_users": 2}  # prop1 sets n_users itself
        drawn = []
        monkeypatch.setattr(ex, "build_double_irs_scenario", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="n_users"):
            ex.run_experiment(spec)
        assert drawn == [] and not (tmp_path / "prop1-property.csv").exists()

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

    def test_fig4_runs_every_default_method(self, tmp_path, monkeypatch):
        real = ex.algorithm1
        start_rates = []

        def record_start(chs, ctx, init, **kwargs):
            # the sdr method starts from all-ones patterns and a uniform receiver
            w0 = np.ones(chs.n_bs) / np.sqrt(chs.n_bs)
            ones1, ones2 = np.ones(chs.m1, complex), np.ones(chs.m2, complex)
            start_rates.append(ex.max_min_rate([ex.snr_value(chs, w0, ones1, ones2, ctx)]))
            return real(chs, ctx, init, **kwargs)

        monkeypatch.setattr(ex, "algorithm1", record_start)
        spec = ex.ExperimentSpec(
            "fig4-rate-vs-power", sweep=[0, 30], draws=1, seed=3, out_dir=str(tmp_path),
            scenario={"n_bs": 2, "m1": 2, "m2": 2},
        )
        ex.run_experiment(spec)
        rows = (tmp_path / "fig4-rate-vs-power.csv").read_text().splitlines()[1:]
        methods = spec.merged_options["methods"]
        assert len(rows) == len(spec.sweep) * len(methods)
        assert {line.split(",")[-1] for line in rows} == {"ok"}
        sdr_rates = [float(line.split(",")[2]) for line in rows if line.split(",")[1] == "sdr"]
        assert len(start_rates) == len(sdr_rates) == 2
        for rate, start in zip(sdr_rates, start_rates):
            assert rate >= start * (1 - 1e-9)

    def test_prop2_summary_fractions(self, tmp_path):
        spec = ex.ExperimentSpec("prop2-rank", sweep=[5], draws=5, seed=0, out_dir=str(tmp_path))
        summary = ex.run_experiment(spec)
        asserts = summary["assertions"]
        assert asserts["frac_rank_h_full"] == 1.0
        assert asserts["frac_rank_hbar_designed"] == 1.0
        assert asserts["pass"]

    def test_prop2_full_rank_is_min_of_antennas_and_users(self, tmp_path):
        # N = 2 < K = 3: full rank is 2, and the baseline is designed with rank 2
        spec = ex.ExperimentSpec(
            "prop2-rank", sweep=[3], draws=3, seed=0, out_dir=str(tmp_path),
            scenario={"n_bs": 2, "m1": 4, "m2": 4},
        )
        summary = ex.run_experiment(spec)
        asserts = summary["assertions"]
        assert asserts["frac_rank_h_full"] == 1.0
        assert asserts["frac_rank_hbar_designed"] == 1.0
        assert asserts["pass"]

    def test_prop2_summary_pools_every_point(self, tmp_path, monkeypatch):
        real = ex.rank_gain_report

        def deficient_at_five(chs, *args, **kwargs):
            rep = real(chs, *args, **kwargs)
            return dataclasses.replace(rep, rank_h=0) if chs.n_users == 5 else rep

        monkeypatch.setattr(ex, "rank_gain_report", deficient_at_five)
        spec = ex.ExperimentSpec(
            "prop2-rank", sweep=[3, 5], draws=2, seed=0, out_dir=str(tmp_path),
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
        )
        asserts = ex.run_experiment(spec)["assertions"]
        assert asserts["frac_rank_h_full"] == 0.5
        assert asserts["frac_rank_hbar_designed"] == 1.0
        assert not asserts["pass"]

    def test_fig4_without_subsurfaces_gives_rate_zero(self, tmp_path):
        path = write_spec(
            tmp_path, experiment="fig4-rate-vs-power", sweep=[0, 30], draws=1,
            out_dir=str(tmp_path), scenario={"m1": 0, "m2": 0},
        )
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path]) == 0
        with open(tmp_path / "fig4-rate-vs-power.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        methods = ex.EXPERIMENTS["fig4-rate-vs-power"].options["methods"].default
        assert sorted({r["method"] for r in rows}) == sorted(methods)
        assert len(rows) == 2 * len(methods)
        assert all(r["status"] == "ok" and float(r["mean_rate"]) == 0.0 for r in rows)

    def test_multi_user_without_subsurfaces_gives_rate_zero(self, tmp_path):
        # a zero channel gives a zero MMSE receiver column, which gets the first unit vector
        path = write_spec(
            tmp_path, experiment="fig8-mu-vs-power", sweep=[20, 30], draws=1,
            out_dir=str(tmp_path), scenario={"m1": 0, "m2": 0, "n_bs": 4},
            options={"k_users": 2, "methods": ["double-mmse"]},
        )
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path]) == 0
        with open(tmp_path / "fig8-mu-vs-power.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["status"] == "ok" and float(r["mean_rate"]) == 0.0 for r in rows)
        summary = json.loads((tmp_path / "fig8-mu-vs-power_summary.json").read_text())
        assert summary["assertions"] == {"sinr_growth[double-mmse]": 0.0}

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

    @pytest.mark.parametrize(
        "experiment, sweep, draws, scenario, options, expected",
        [
            ("fig6-rate-vs-totalM", [2, 4], 2, {"n_bs": 2},
             {"kappa_set_db": [-10.0, 10.0], "restarts": 2}, fig6_expected),
            ("fig7-mu-alg", [10, 20], 2, TINY_MU, {"k_users": 2, "i1": 2, "eps": 1e-2},
             fig7_expected),
            ("fig8-mu-vs-power", [10, 20], 1, TINY_MU, {"k_users": 2, "i1": 2, "eps": 1e-2},
             fig8_expected),
            ("prop1-property", [-10.0, 10.0], 1, {"n_bs": 3, "m1": 3, "m2": 3},
             {"restarts": 2}, prop1_expected),
        ],
        ids=["fig6", "fig7", "fig8", "prop1"],
    )
    def test_summary_recomputed_from_csv(
        self, tmp_path, experiment, sweep, draws, scenario, options, expected
    ):
        spec = ex.ExperimentSpec(
            experiment, sweep=sweep, draws=draws, seed=3, out_dir=str(tmp_path),
            scenario=scenario, options=options,
        )
        summary = ex.run_experiment(spec)
        assert summary["failures"] == []
        with open(summary["csv"], newline="") as fh:
            means = {(r["sweep"], r["method"]): r["mean_rate"] for r in csv.DictReader(fh)}
        assert_matches(summary["assertions"], expected(spec, means))

    def test_csv_columns(self, tmp_path):
        spec = ex.ExperimentSpec(
            "prop2-rank", sweep=[3], draws=1, seed=5, out_dir=str(tmp_path),
            scenario={"n_bs": 8, "m1": 4, "m2": 4},
        )
        ex.run_experiment(spec)
        header = (tmp_path / "prop2-rank.csv").read_text().splitlines()[0]
        assert header == "sweep,method,mean_rate,stderr,draws,status"

    def _recorded_channels(self, tmp_path, monkeypatch, sweep, draws):
        """Every array drawn per build call of a fig8 run, in call order."""
        drawn = []
        spec = ex.ExperimentSpec(
            "fig8-mu-vs-power", sweep=sweep, draws=draws, seed=3, out_dir=str(tmp_path),
            scenario=TINY_MU, options={"k_users": 2, "methods": ["double-mmse", "single-mmse"]},
        )
        with monkeypatch.context() as patch:
            for name in ("build_double_irs_scenario", "build_single_irs_baseline_A2"):
                def record(*args, _real=getattr(ex, name)):
                    chs = _real(*args)
                    drawn.append([chs.u1, chs.u2, chs.d, chs.g1, chs.g2])
                    return chs

                patch.setattr(ex, name, record)
            assert ex.run_experiment(spec)["failures"] == []
        return drawn

    @staticmethod
    def _same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_points_of_a_draw_share_its_channels(self, tmp_path, monkeypatch):
        # per draw and point: the double-IRS channels, then the A2 baseline
        drawn = self._recorded_channels(tmp_path, monkeypatch, [20, 30], 2)
        assert len(drawn) == 8
        for draw in (drawn[:4], drawn[4:]):
            assert self._same(draw[0], draw[2]) and self._same(draw[1], draw[3])
        assert not self._same(drawn[0], drawn[4]) and not self._same(drawn[1], drawn[5])

    def test_channels_do_not_depend_on_sweep_position(self, tmp_path, monkeypatch):
        alone = self._recorded_channels(tmp_path / "a", monkeypatch, [30], 1)
        second = self._recorded_channels(tmp_path / "b", monkeypatch, [20, 30], 1)[2:]
        assert len(alone) == 2
        assert self._same(alone[0], second[0]) and self._same(alone[1], second[1])

    def test_failure_stays_with_its_point(self, tmp_path, monkeypatch):
        real = ex.rank_gain_report
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
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
        assert failure["error"] == "LinAlgError: forced"


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
        for exp_id in ex.EXPERIMENTS:
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
        "fields, named",
        [
            ({"experiment": "prop1-property", "sweep": [True]}, "sweep value True"),
            ({"experiment": "fig5-rate-vs-M1-split", "sweep": [40]}, "split 40"),
            (
                {"experiment": "fig5-rate-vs-M1-split", "sweep": [12], "options": {"m_total": 8}},
                "split 12",
            ),
            ({"experiment": "prop1-property", "sweep": [0.0], "options": {"restarts": "x"}},
             "restarts"),
            ({"experiment": "fig7-mu-alg", "sweep": ["x"]}, "not a number"),
            ({**PROP2, "draws": 2.5}, "draws"),
            ({**PROP2, "draws": True}, "draws"),
            ({**PROP2, "seed": "x"}, "seed"),
            ({**PROP2, "seed": 1.5}, "seed"),
            ({**PROP2, "seed": -1}, "seed"),
            ({**PROP2, "out_dir": 5}, "out_dir"),
            ({**PROP2, "scenario": {"m1": 2.5}}, "m1"),
            ({**FIG7, "options": {"k_users": 0}}, "k_users"),
            ({**FIG7, "options": {"n_rand": 0}}, "n_rand"),
            ({**FIG7, "options": {"eps": 0}}, "eps"),
            ({"experiment": "fig6-rate-vs-totalM", "sweep": [-4]}, "sweep value -4"),
            ({"experiment": "fig9-rate-vs-K", "sweep": [0]}, "sweep value 0"),
            ({**PROP2, "sweep": [0]}, "sweep value 0"),
            ({"experiment": "prop1-property", "sweep": [0.0], "options": {"restarts": 0}},
             "restarts"),
            ({"experiment": "fig5-rate-vs-M1-split", "sweep": [4.5]}, "split 4.5"),
            ({"experiment": "fig9-rate-vs-K", "sweep": [2.5]}, "sweep value 2.5"),
            ({"experiment": "prop1-property", "sweep": [0.0], "scenario": {"n_users": 2}},
             "n_users"),
            ({"experiment": "fig5-rate-vs-M1-split", "sweep": [8],
              "scenario": {"tx_power_w": [0.1, 0.2]}}, "tx_power_w"),
            ({"experiment": "fig9-rate-vs-K", "sweep": [1, 2, 4], "scenario": {"n_users": 3}},
             "n_users"),
            ({**FIG7, "sweep": [0, 30], "scenario": {"tx_power_w": 0.01}}, "tx_power_w"),
            ({"experiment": "fig4-rate-vs-power", "sweep": [0], "scenario": {"tx_power_w": 0.01}},
             "tx_power_w"),
            ({"experiment": "fig5-rate-vs-M1-split", "sweep": [8], "scenario": {"m1": 4}}, "m1"),
            ({"experiment": "fig6-rate-vs-totalM", "sweep": [8], "scenario": {"m2": 5}}, "m2"),
            ({"experiment": "prop1-property", "sweep": [0.0],
              "scenario": {"links": TINY_MU["links"]}}, "links"),
            ({**PROP2, "scenario": {"n_users": 5}}, "n_users"),
            ({**PROP2, "scenario": {"pos_bs": [1.0, 2.0]}}, "pos_bs"),
            ({**PROP2, "scenario": {"pos_users": [1.0, "a", 0.0]}}, "pos_users"),
            ({**PROP2, "scenario": {"pos_irs1": 5}}, "pos_irs1"),
            ({**PROP2, "scenario": {"gamma0_db": math.nan}}, "gamma0_db"),
            ({**PROP2, "scenario": {"gamma0_db": "x"}}, "gamma0_db"),
            ({**PROP2, "scenario": {"aperture_gain": "x"}}, "aperture_gain"),
            ({**PROP2, "scenario": {"cluster_radius": "x"}}, "cluster_radius"),
            ({**PROP2, "scenario": {"irs1_azimuth": "x"}}, "irs1_azimuth"),
            ({**PROP2, "scenario": {"tx_power_w": math.inf}}, "tx_power_w"),
            ({**PROP2, "scenario": {"alpha": {"u1": "x", "u2": 3.0, "d": 3.0, "g1": 3.0,
                                              "g2": 2.2}}}, "alpha"),
            ({**PROP2, "scenario": {"links": {**TINY_MU["links"],
                                              "g1": {"kind": "geometric", "paths": 2.5}}}},
             "paths"),
            ({**PROP2, "scenario": {"links": ["u1", "u2", "d", "g1", "g2"]}}, "links"),
            ({"experiment": "fig6-rate-vs-totalM", "sweep": [8], "options": {"kappa_set_db": []}},
             "kappa_set_db"),
            ({"experiment": "prop1-property", "sweep": [0.0], "scenario": {"seed": 12345}},
             "'seed'"),
            ({"experiment": "prop1-property", "sweep": [0.0],
              "scenario": {"pos_irs1": [1.0, 0.0, 2.0]}}, "coincident nodes"),
            ({"experiment": "prop1-property", "sweep": [0.0], "scenario": {"aperture_gain": -1.0}},
             "aperture_gain"),
            ({"experiment": "prop1-property", "sweep": [0.0], "scenario": {"gamma0_db": 4000.0}},
             "path gain"),
            ({"experiment": "prop1-property", "sweep": [0.0], "scenario": {"aperture_gain": 1e200}},
             "path gain"),
            ({"experiment": "prop1-property", "sweep": [0.0],
              "scenario": {"alpha": {"u1": 700.0, "u2": 3.0, "d": 3.0, "g1": 3.0, "g2": 2.2}}},
             "path gain"),
            ({"experiment": "prop1-property", "sweep": [0.0],
              "scenario": {"alpha": {"u1": -1000.0, "u2": 3.0, "d": 3.0, "g1": 3.0, "g2": 2.2}}},
             "alpha"),
            ({**PROP2, "scenario": {"cluster_radius": -1.0}}, "cluster_radius"),
            ({"experiment": "fig8-mu-vs-power", "sweep": [20],
              "scenario": {"n_bs": 1, "m1": 2, "m2": 2}}, "rank_g=2 infeasible"),
            ({"experiment": "fig8-mu-vs-power", "sweep": [20],
              "scenario": {"m1": 0, "m2": 0, "n_bs": 4}}, "rank_g=2 infeasible"),
            ({**PROP2, "scenario": {"n_bs": 1}}, "rank_g=2 infeasible"),
            ({"experiment": "fig6-rate-vs-totalM", "sweep": [4], "draws": 1,
              "scenario": {"n_bs": 2}, "options": {"kappa_set_db": [0.0, 0.0], "restarts": 2}},
             "'kappa_set_db' must be a non-empty list of distinct entries"),
            ({"experiment": "fig6-rate-vs-totalM", "sweep": [4],
              "options": {"kappa_set_db": [10, 10.0]}},
             "'kappa_set_db' must be a non-empty list of distinct entries"),
            ({**FIG7, "options": {"methods": ["alg1-mmse", "dft-mmse", "alg1-mmse"]}},
             "'methods' must be a non-empty list of distinct entries"),
        ],
        ids=[
            "prop1-bool-sweep", "split-over-default-budget", "split-over-given-budget",
            "option-type", "sweep-type", "draws-float", "draws-bool", "seed-string",
            "seed-float", "seed-negative", "out-dir-type", "scenario-count-float",
            "k-users-zero", "n-rand-zero", "eps-zero", "fig6-negative-total",
            "fig9-zero-users", "prop2-zero-users", "restarts-zero", "split-fraction",
            "fig9-users-fraction", "prop1-two-users", "fig5-power-vector",
            "fig9-users-override", "fig7-power-override", "fig4-power-override",
            "fig5-m1-override", "fig6-m2-override", "prop1-links-override",
            "prop2-users-override", "pos-short", "pos-non-real", "pos-scalar",
            "gamma0-nan", "gamma0-string", "aperture-string", "radius-string",
            "azimuth-string", "power-inf", "alpha-string", "paths-fraction", "links-list",
            "empty-list-option", "scenario-seed", "coincident-nodes", "aperture-negative",
            "gamma0-overflow", "aperture-overflow", "alpha-off-center", "alpha-negative",
            "radius-negative", "fig8-one-antenna", "fig8-no-subsurfaces", "prop2-one-antenna",
            "fig6-kappa-twice", "fig6-kappa-int-and-float", "fig7-method-twice",
        ],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, fields, named):
        # each of these passed validate and then stopped run, or ran something
        # other than the spec says: draws true ran one draw, restarts 0 ran one
        # restart, a fractional split or user count ran its integer part, and
        # a scenario override of a field the sweep or options set either beat
        # the sweep (fig9 ran K = 3 in rows labelled 1, 2, 4) or was ignored,
        # a malformed scenario field stopped run with a broadcast error or
        # an uncaught TypeError, an empty kappa_set_db wrote a header-only CSV,
        # a scenario seed was ignored (the draws' channels come from the
        # spec's seed tree), coincident nodes, a non-positive aperture gain, a
        # path gain out of float range and a negative path-loss exponent
        # stopped run (the last two with a traceback), an aperture gain whose
        # square overflows stopped validate with a traceback, a path gain out
        # of float range only at a user drop away from the cluster center
        # stopped run with draws enough to place one there, a negative cluster
        # radius ran the disk of its absolute value, a single-IRS baseline
        # whose ranks cannot be met stopped run, and a list option that
        # repeats an entry ran it twice into one CSV column, so the second
        # result overwrote the first (fig6 at kappa [0.0, 0.0] wrote one row
        # with the second kappa's system, and fig7 ran algorithm1 twice)
        path = write_spec(tmp_path, **fields)
        assert cli.main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "experiment, sweep, option, wrap",
        [
            ("fig7-mu-alg", 20, "eps", False),
            ("fig7-mu-alg", 20, "xi", False),
            ("fig4-rate-vs-power", 20, "kappa_far_db", False),
            ("fig6-rate-vs-totalM", 8, "kappa_set_db", True),
        ],
        ids=["eps", "xi", "kappa-far", "kappa-set"],
    )
    def test_validate_rejects_non_finite_option(self, tmp_path, capsys, experiment, sweep, option,
                                                wrap, value):
        # NaN fails every comparison, so it passed the range checks: eps = NaN ran, and wrote
        # ok rows whose bisections never rose above their start
        opts = {option: [0.0, value] if wrap else value}
        path = write_spec(tmp_path, experiment=experiment, sweep=[sweep], options=opts)
        assert cli.main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert option in err and "finite" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"experiment": "prop1-property", "sweep": [0.0], "scenario": {"n_users": 1}},
            {"experiment": "fig9-rate-vs-K", "sweep": [3], "scenario": {"n_users": 3}},
            {"experiment": "fig5-rate-vs-M1-split", "sweep": [8], "options": {"m_total": 12},
             "scenario": {"m1": 8, "m2": 4}},
            {**PROP2, "scenario": {"tx_power_w": [0.1, 0.2, 0.3]}},
        ],
        ids=["prop1-one-user", "fig9-same-users", "fig5-same-split", "prop2-power-vector"],
    )
    def test_validate_accepts_overrides_the_experiment_agrees_with(self, tmp_path, fields):
        # an override that repeats what the sweep and options set changes nothing, and
        # a field the experiment does not set is checked against the scenario it builds
        assert cli.main(["validate", write_spec(tmp_path, **fields)]) == 0

    def test_run_rejects_zero_draws_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[3], out_dir=str(tmp_path))
        assert cli.main(["run", path, "--draws", "0"]) == 2
        assert "draws" in capsys.readouterr().err
        assert not (tmp_path / "prop2-rank.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_run_rejects_non_positive_threads(self, tmp_path, capsys, threads):
        path = write_spec(tmp_path, experiment="prop2-rank", sweep=[3], out_dir=str(tmp_path))
        assert cli.main(["run", path, f"--threads={threads}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--threads" in err
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

    def test_run_several_specs(self, tmp_path, capsys):
        tiny = {"n_bs": 8, "m1": 4, "m2": 4}
        out_dir = tmp_path / "results"
        paths = [
            write_spec(tmp_path, "a.json", **PROP2, draws=1, scenario=tiny),
            write_spec(tmp_path, "b.json", experiment="prop1-property", sweep=[0.0], draws=1,
                       scenario={"n_bs": 3, "m1": 3, "m2": 3}, options={"restarts": 2}),
        ]
        assert cli.main(["run", *paths, "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.glob("*.csv")) == [
            "prop1-property.csv", "prop2-rank.csv",
        ]
        # one summary document per spec, in the order given
        out, decoder, pos, names = capsys.readouterr().out, json.JSONDecoder(), 0, []
        while pos < len(out):
            summary, end = decoder.raw_decode(out, pos)
            names.append(summary["experiment"])
            pos = end + 1  # the newline after each document
        assert names == ["prop2-rank", "prop1-property"]

    def test_run_rejects_specs_writing_the_same_csv(self, tmp_path, capsys):
        paths = [
            write_spec(tmp_path, "a.json", **PROP2, draws=1),
            write_spec(tmp_path, "b.json", **PROP2, draws=1, seed=2),
        ]
        assert cli.main(["run", *paths, "--out", str(tmp_path / "results")]) == 2
        assert "same" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_run_does_not_depend_on_threads(self, tmp_path):
        # --threads 1 computed its draws in the CLI process, whose BLAS pool has as many
        # threads as the caller allows, and --threads 2 in workers with one BLAS thread:
        # the fig8 summary moved in its last digits.  Run as a user runs it, with no BLAS
        # variable set; on a one-core machine both runs have one BLAS thread anyway.
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        spec = str(ROOT / "scripts" / "specs" / "fig8-mu-vs-power.json")
        summaries, csvs = [], []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "coopbeam.cli", "run", spec, "--draws", "1",
                 "--threads", threads, "--out", str(out)],
                env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
            )
            summary = json.loads((out / "fig8-mu-vs-power_summary.json").read_text())
            del summary["csv"]  # the path, under the run's own out directory
            summaries.append(summary)
            csvs.append((out / "fig8-mu-vs-power.csv").read_bytes())
        assert summaries[0] == summaries[1]
        assert csvs[0] == csvs[1]


def test_readme_library_example_prints_what_it_shows():
    # the README's python block ends with a comment holding the line it prints
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    shown = block.rstrip().splitlines()[-1]
    assert shown.startswith("# ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed, expected = out.getvalue().split(), shown[2:].split()
    assert printed[1::2] == expected[1::2]  # "->" and the unit
    rates = [float(x) for x in printed[::2]]
    assert rates == pytest.approx([float(x) for x in expected[::2]], rel=1e-9)
