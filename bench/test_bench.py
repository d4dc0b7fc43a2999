"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

Each workload runs once at a size that takes about a second; the checks are
on the report's shape, the spans and the handling of missing names, not on
any timing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import tracing  # noqa: E402
from workloads import ddx  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny(name: str, trace: bool = True) -> dict:
    return run.run_workload(name, SEED, seconds=0, trace=trace, tiny=True, setup_samples=1)


@pytest.fixture(scope="module")
def reports() -> dict[str, dict]:
    return {name: tiny(name) for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_named_metric_is_present_with_its_unit_and_direction(reports, name):
    report = reports[name]
    for m in SPEC["end_to_end"]:
        got = report["end_to_end"][m["name"]]
        assert (got["unit"], got["better"]) == (m["unit"], m["better"]), m["name"]
        assert got["value"] > 0, m["name"]
    for m in SPEC["per_layer"]:
        assert report["per_layer"][m["name"]]["unit"] == m["unit"], m["name"]
    expected = set(run.END_TO_END) - ({"novel_gap_top3"} if name != "desk-cli" else set())
    assert set(report["end_to_end"]) == expected
    assert report["absent"] == []


def test_benchmark_json_names_only_metrics_the_code_reports():
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END[m["name"]] == (m["unit"], m["better"])
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_outputs_are_checked_and_correct(reports, name):
    report = reports[name]
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    assert report["end_to_end"]["failed_ops_share"]["value"] == 0.0
    assert report["env"]["blas"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["env"]["program_threads"] == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_spans_nest_inside_the_traced_window(reports, name):
    report = reports[name]
    assert report["span_checks"]["min_self_s"] >= -1e-9
    assert report["span_checks"]["top_level_in_window_s"] <= report["wall_s"]["traced"] + 1e-9
    assert report["per_layer"]["trace.spans"]["value"] > 0


def test_cli_layer_is_only_on_desk_cli(reports):
    assert reports["desk-cli"]["per_layer"]["cli.train_s"]["value"] > 0
    assert reports["desk-cli"]["per_layer"]["data.read_cases_s"]["value"] > 0
    assert reports["kb-200"]["per_layer"]["cli.train_s"]["value"] == 0
    assert reports["kb-200"]["per_layer"]["expert.inference_in_simulate_s"]["value"] > 0


def test_same_seed_gives_the_same_digests(reports):
    again = tiny("desk-cli", trace=False)
    assert again["digests"] == reports["desk-cli"]["digests"]
    assert again["end_to_end"]["novel_gap_top3"] == reports["desk-cli"]["end_to_end"]["novel_gap_top3"]


def test_a_missing_wrapped_name_gives_an_absent_metric(monkeypatch):
    # As if a later change had renamed model.pooled_embedding.
    renamed = tuple("pooled_rows" if n == "pooled_embedding" else n for n in tracing.WRAPPED["model"])
    monkeypatch.setitem(tracing.WRAPPED, "model", renamed)
    report = tiny("desk-cli")
    assert report["correct"]
    assert report["absent"] == ["model.pool_s"]
    assert "model.pool_s" not in report["per_layer"]
    assert report["per_layer"]["model.dropout_mask_s"]["value"] > 0


def test_wrappers_are_removed_after_a_traced_run(reports):
    assert not hasattr(ddx.simulate.simulate_dataset, "__wrapped__")
    assert not hasattr(ddx.simulate.expert_inference, "__wrapped__")


def test_contract_line(capsys):
    assert run.main(["--workload", "desk-cli", "--seed", str(SEED), "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kb-200", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    assert not Path(tmp_path / ".bench_work").exists()
