"""scripts/alternate_pairs.py on canned benchmark result lines: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("alternate_pairs", ROOT / "scripts" / "alternate_pairs.py")
ap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ap)


def result_line(points_per_s, setup_s=0.2, rate_bits=4.5, peak_rss_mb=100.0, failed=0, correct=True):
    """The last stdout line of one perfbench/run.py --trace 0 run."""
    metrics = {"setup_s": (setup_s, "s"), "points_per_s": (points_per_s, "1/s"),
               "rate_bits": (rate_bits, "bits/s/Hz"), "peak_rss_mb": (peak_rss_mb, "MB")}
    return json.dumps({"correct": correct, "attempted": 15, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def stdout(line):
    return "environment {}\ncsv fingerprint abc (5 reference calls)\npoints_per_s 11 1/s\n" + line + "\n\n"


def canned_pairs(parent, change, **change_metrics):
    return [(ap.parse_result(stdout(result_line(p))), ap.parse_result(stdout(result_line(c, **change_metrics))))
            for p, c in zip(parent, change)]


PARENT = [11.4, 11.1, 10.4, 11.9, 11.0, 11.6, 10.8, 11.3, 11.5, 11.2]


def test_end_to_end_metrics_come_from_the_benchmark():
    assert ap.end_to_end_metrics() == {"points_per_s": "higher", "rate_bits": "higher",
                                       "peak_rss_mb": "lower", "setup_s": "lower"}


def test_parse_result_reads_the_last_line():
    assert ap.parse_result(stdout(result_line(12.5)))["metrics"]["points_per_s"]["value"] == 12.5
    with pytest.raises(ValueError):
        ap.parse_result("points_per_s 11 1/s\n")
    with pytest.raises(ValueError):
        ap.parse_result("")


def test_gain_needs_nine_tenths_of_the_pairs():
    faster = [p * 1.25 for p in PARENT]
    summary = ap.summarize(canned_pairs(PARENT, faster), ap.end_to_end_metrics())
    m = summary["metrics"]["points_per_s"]
    assert m["won"] == 1.0 and m["gain"]
    assert m["ratio"] == pytest.approx(1.25)
    assert m["parent_quartiles"][1] == pytest.approx(11.25)
    assert m["parent_spread"] == pytest.approx(11.475 - 11.025)
    nine = faster[:9] + [PARENT[9] * 0.9]
    assert ap.summarize(canned_pairs(PARENT, nine), ap.end_to_end_metrics())["metrics"]["points_per_s"]["gain"]
    eight = faster[:8] + [p * 0.9 for p in PARENT[8:]]
    m = ap.summarize(canned_pairs(PARENT, eight), ap.end_to_end_metrics())["metrics"]["points_per_s"]
    assert m["won"] == 0.8 and not m["gain"]


def test_gain_needs_the_medians_apart_by_more_than_the_parent_spread():
    slightly = [p + 0.01 for p in PARENT]  # wins every pair, by far less than the spread
    m = ap.summarize(canned_pairs(PARENT, slightly), ap.end_to_end_metrics())["metrics"]["points_per_s"]
    assert m["won"] == 1.0 and not m["gain"]


def test_ties_count_for_neither_side_and_lower_is_better_where_declared():
    summary = ap.summarize(canned_pairs(PARENT, PARENT, setup_s=0.1), ap.end_to_end_metrics())
    assert summary["metrics"]["points_per_s"]["won"] == 0.0
    assert summary["metrics"]["rate_bits"]["won"] == 0.0 and not summary["metrics"]["rate_bits"]["gain"]
    setup = summary["metrics"]["setup_s"]
    assert setup["won"] == 1.0 and setup["ratio"] == pytest.approx(0.5)
    assert setup["gain"]  # every parent run reads 0.2: zero spread
    assert summary["metrics"]["peak_rss_mb"]["won"] == 0.0


def test_more_failed_draws_forfeit_a_gain():
    faster = [p * 1.25 for p in PARENT]
    summary = ap.summarize(canned_pairs(PARENT, faster, failed=1), ap.end_to_end_metrics())
    assert summary["failed_share"] == {"parent": 0.0, "change": 1 / 15}
    assert not summary["metrics"]["points_per_s"]["gain"]


def test_one_pair_reads_its_values_as_quartiles():
    m = ap.summarize(canned_pairs([10.0], [12.0]), ap.end_to_end_metrics())["metrics"]["points_per_s"]
    assert m["parent_quartiles"] == (10.0, 10.0, 10.0) and m["parent_spread"] == 0.0
    assert m["won"] == 1.0 and not m["gain"]  # 1 of 1 pairs won, but a gain needs 10 pairs


def test_main_alternates_the_side_that_runs_first(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        return ap.parse_result(stdout(result_line(12.0 if str(checkout) == "change" else 10.0)))

    monkeypatch.setattr(ap, "run_side", fake_run)
    assert ap.main(["parent", "change", "--workload", "mu-tiny", "--pairs", "3", "--seconds", "1"]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["workload"] == "mu-tiny" and summary["pairs"] == 3
    assert summary["metrics"]["points_per_s"]["change"] == [12.0] * 3


def test_main_fails_on_a_failed_run(monkeypatch, capsys):
    def fake_run(checkout, workload, seed, seconds):
        raise RuntimeError(f"{checkout}: exit 1")

    monkeypatch.setattr(ap, "run_side", fake_run)
    assert ap.main(["parent", "change", "--workload", "mu-tiny", "--pairs", "1"]) == 1
    assert "pair 1: parent: exit 1" in capsys.readouterr().err
