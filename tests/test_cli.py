import json
import subprocess
import sys

import pytest

from ddxkit.kb import serialize_knowledge_base
from ddxkit.synthetic import make_separable_kb

from conftest import subprocess_env


def ddx(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ddxkit", *args],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )


@pytest.fixture
def workspace(tmp_path):
    kb = make_separable_kb(n_diseases=4)
    (tmp_path / "kb.json").write_text(serialize_knowledge_base(kb), encoding="utf-8")
    return tmp_path


def simulate(workspace, out="cases.jsonl", extra=()):
    return ddx(
        "simulate",
        "--kb", "kb.json",
        "--cases", "60",
        "--min-per-disease", "10",
        "--seed", "7",
        "--out", out,
        *extra,
        cwd=workspace,
    )


def test_kb_validate_ok(workspace):
    result = ddx("kb", "validate", "kb.json", cwd=workspace)
    assert result.returncode == 0
    assert "ok" in result.stdout
    assert (workspace / "kb-validate.manifest.json").exists()


def test_kb_validate_rejects_bad_document(workspace):
    (workspace / "bad.json").write_text('{"diseases": [{"id": "d", "name": "D"}], "findings": [], "frequencies": [{"disease": "d", "finding": "x", "freq": 2}]}')
    result = ddx("kb", "validate", "bad.json", cwd=workspace)
    assert result.returncode == 1
    assert "error" in result.stdout


def test_simulate_is_deterministic_across_runs_and_threads(workspace):
    assert simulate(workspace, "a.jsonl").returncode == 0
    assert simulate(workspace, "b.jsonl").returncode == 0
    assert simulate(workspace, "c.jsonl", extra=("--threads", "4")).returncode == 0
    a = (workspace / "a.jsonl").read_bytes()
    assert len(a.splitlines()) == 60
    assert a == (workspace / "b.jsonl").read_bytes() == (workspace / "c.jsonl").read_bytes()
    manifest = json.loads((workspace / "a.jsonl.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 7
    assert manifest["tool_version"]


def test_missing_kb_file_fails_cleanly(workspace):
    result = ddx("simulate", "--kb", "nope.json", "--cases", "5", "--out", "x.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert "error" in result.stderr


def test_missing_checkpoint_names_the_file(workspace):
    assert simulate(workspace).returncode == 0
    result = ddx("eval", "missing.ckpt", "--cases", "cases.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert "No such file or directory" in result.stderr
    assert "missing.ckpt" in result.stderr


def test_non_finite_learning_rate_is_rejected_before_training(workspace):
    assert simulate(workspace).returncode == 0
    for lr in ("nan", "0"):
        result = train(workspace, extra=("--lr", lr))
        assert result.returncode == 1
        assert "learning_rate must be finite and > 0" in result.stderr
        assert "epoch" not in result.stdout
        assert not (workspace / "m.ckpt").exists()


def test_negative_ddx_top_k_is_rejected(workspace):
    assert simulate(workspace).returncode == 0
    expert = ("--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl")
    for command in ("eval", "predict"):
        result = ddx(command, *expert, "--ddx-top-k", "-3", cwd=workspace)
        assert result.returncode == 1
        assert "--ddx-top-k must be >= 0" in result.stderr
    every = ddx("predict", *expert, "--ddx-top-k", "0", cwd=workspace)
    assert every.returncode == 0, every.stderr
    # 0 ranks every disease: here the same as a depth past the KB's 4 diseases
    assert every.stdout == ddx("predict", *expert, "--ddx-top-k", "5", cwd=workspace).stdout


def test_unknown_flag_is_a_usage_error(workspace):
    result = ddx("simulate", "--götterdämmerung", cwd=workspace)
    assert result.returncode == 2


@pytest.mark.parametrize("args", [("kb", "validate"), ("simulate",), ("train",), ("eval",), ("predict",)])
def test_every_subcommand_has_help(workspace, args):
    result = ddx(*args, "--help", cwd=workspace)
    assert result.returncode == 0
    assert "usage" in result.stdout


def train(workspace, out="m.ckpt", extra=()):
    return ddx(
        "train",
        "--cases", "cases.jsonl",
        "--kb", "kb.json",
        "--dim", "16",
        "--epochs", "3",
        "--batch", "32",
        "--dropout", "0.5",
        "--lr", "0.01",
        "--seed", "1",
        "--out", out,
        *extra,
        cwd=workspace,
    )


def test_train_eval_predict_pipeline(workspace):
    assert simulate(workspace).returncode == 0

    result = train(workspace)
    assert result.returncode == 0, result.stderr
    log_lines = (workspace / "m.ckpt.log").read_text().splitlines()
    assert len(log_lines) == 3
    assert all(line.startswith("epoch ") for line in log_lines)

    result = train(workspace, out="m2.ckpt")
    assert (workspace / "m.ckpt").read_bytes() == (workspace / "m2.ckpt").read_bytes()

    result = ddx(
        "eval", "m.ckpt",
        "--cases", "cases.jsonl",
        "--topk", "1,3",
        "--truth", "seed-disease",
        "--out", "report.json",
        cwd=workspace,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((workspace / "report.json").read_text())
    assert report["n_cases"] == 60
    assert report["accuracy"]["1"] <= report["accuracy"]["3"]
    assert "top-k" in result.stdout

    again = ddx(
        "eval", "m.ckpt",
        "--cases", "cases.jsonl",
        "--topk", "1,3",
        "--truth", "seed-disease",
        "--out", "report2.json",
        "--threads", "4",
        cwd=workspace,
    )
    assert again.returncode == 0
    assert (workspace / "report.json").read_bytes() == (workspace / "report2.json").read_bytes()

    result = ddx("predict", "m.ckpt", "--cases", "cases.jsonl", "--out", "preds.jsonl", cwd=workspace)
    assert result.returncode == 0, result.stderr
    first = json.loads((workspace / "preds.jsonl").read_text().splitlines()[0])
    assert first["id"] == "sim-0"
    assert len(first["prediction"]) == 4  # ddx-top-k 5 clipped to L = 4 diseases


def test_expert_engine_eval_and_predict(workspace):
    assert simulate(workspace).returncode == 0
    result = ddx(
        "eval",
        "--engine", "expert",
        "--kb", "kb.json",
        "--cases", "cases.jsonl",
        "--topk", "1,3",
        "--truth", "seed-disease",
        "--out", "expert-report.json",
        cwd=workspace,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((workspace / "expert-report.json").read_text())
    assert report["accuracy"]["3"] >= 0.9  # separable KB: the engine recovers its seed

    result = ddx("predict", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", cwd=workspace)
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["prediction"]

    result = ddx("predict", "--engine", "expert", "--cases", "cases.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert "requires --kb" in result.stderr

    result = ddx("eval", "--engine", "model", "--cases", "cases.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert "checkpoint" in result.stderr


def test_restrict_findings_accepts_kb_document_and_id_list(workspace):
    assert simulate(workspace).returncode == 0
    result = train(workspace, out="r1.ckpt", extra=("--restrict-findings", "kb.json"))
    assert result.returncode == 0, result.stderr

    ids = [f.id for f in make_separable_kb(n_diseases=4).findings][:8]
    (workspace / "keep.txt").write_text("\n".join(ids) + "\n")
    result = train(workspace, out="r2.ckpt", extra=("--restrict-findings", "keep.txt"))
    assert result.returncode == 0, result.stderr
    ckpt = json.loads((workspace / "r2.ckpt").read_text())
    assert set(ckpt["vocab"]["findings"]) <= set(ids)


def test_target_disease_report(workspace):
    assert simulate(workspace).returncode == 0
    assert train(workspace).returncode == 0
    result = ddx(
        "eval", "m.ckpt",
        "--cases", "cases.jsonl",
        "--topk", "1,3",
        "--target-disease", "d00",
        "--out", "t.json",
        cwd=workspace,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((workspace / "t.json").read_text())
    assert report["target_disease"] == "d00"
    assert "3" in report["target_accuracy"]
    assert "target disease: d00" in result.stdout


@pytest.mark.parametrize(
    "engine, where",
    [(("m.ckpt",), "the checkpoint's disease vocabulary"), (("--engine", "expert", "--kb", "kb.json"), "the KB's diseases")],
)
def test_unknown_target_disease_fails_before_evaluating(workspace, engine, where):
    assert simulate(workspace).returncode == 0
    assert train(workspace).returncode == 0
    result = ddx("eval", *engine, "--cases", "cases.jsonl", "--target-disease", "nope", "--out", "t.json", cwd=workspace)
    assert result.returncode == 1
    assert f"error: --target-disease nope: not among {where} or the cases' diseases" in result.stderr
    assert result.stdout == ""
    assert not (workspace / "t.json").exists()


def test_target_disease_held_only_by_the_cases_scores_zero(workspace):
    # d03 stands in for a novel disease: the cases hold it, the KB does not.
    assert simulate(workspace).returncode == 0
    (workspace / "kb3.json").write_text(serialize_knowledge_base(make_separable_kb(n_diseases=3)), encoding="utf-8")
    result = ddx(
        "eval", "--engine", "expert", "--kb", "kb3.json",
        "--cases", "cases.jsonl",
        "--topk", "1,3",
        "--target-disease", "d03",
        "--out", "t.json",
        cwd=workspace,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((workspace / "t.json").read_text())
    assert report["target_disease"] == "d03"
    assert report["target_accuracy"] == {"1": 0.0, "3": 0.0}


@pytest.mark.parametrize(
    "args, flag",
    [
        (("simulate", "--kb", "cases.jsonl", "--cases", "5", "--out", "x.jsonl"), "--kb"),
        (("train", "--cases", "cases.jsonl", "--kb", "cases.jsonl", "--out", "x.ckpt"), "--kb"),
        (("train", "--cases", "cases.jsonl", "--restrict-findings", "cases.jsonl", "--out", "x.ckpt"), "--restrict-findings"),
        (("eval", "--engine", "expert", "--kb", "cases.jsonl", "--cases", "cases.jsonl"), "--kb"),
        (("predict", "--engine", "expert", "--kb", "cases.jsonl", "--cases", "cases.jsonl"), "--kb"),
    ],
)
def test_kb_parse_error_names_the_flag_and_path(workspace, args, flag):
    assert simulate(workspace).returncode == 0
    result = ddx(*args, cwd=workspace)
    assert result.returncode == 1
    assert f"error: {flag} cases.jsonl: syntax error at line 2 column 1" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("kb", "validate", "kb.json"),
        ("simulate", "--kb", "kb.json", "--cases", "60", "--min-per-disease", "10"),
        ("train", "--cases", "cases.jsonl", "--dim", "8", "--epochs", "3"),
        ("eval", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl"),
        ("predict", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl"),
    ],
)
def test_missing_out_directory_fails_before_any_work(workspace, args):
    assert simulate(workspace).returncode == 0
    before = sorted(p.name for p in workspace.iterdir())
    result = ddx(*args, "--out", "nodir/out.txt", cwd=workspace)
    assert result.returncode == 1
    assert "error: --out nodir/out.txt: directory nodir does not exist" in result.stderr
    assert result.stdout == ""  # no epoch lines, no report
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_out_naming_a_directory_is_rejected(workspace):
    (workspace / "sub").mkdir()
    result = ddx("kb", "validate", "kb.json", "--out", "sub", cwd=workspace)
    assert result.returncode == 1
    assert "error: --out sub: is a directory" in result.stderr
