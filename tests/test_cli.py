import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit import __version__
from ddxkit.cli import CONFIG_FLAGS, build_parser, main
from ddxkit.data import read_cases_file
from ddxkit.kb import KnowledgeBase, serialize_knowledge_base
from ddxkit.simulate import SimConfig, label_metrics
from ddxkit.synthetic import make_separable_kb
from ddxkit.train import TrainConfig

from conftest import subprocess_env


def ddx(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ddxkit", *args],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )


def kb_of_findings(keep) -> str:
    """The document of the 4-disease workspace KB cut down to the findings `keep` accepts."""
    kb = make_separable_kb(n_diseases=4)
    return serialize_knowledge_base(KnowledgeBase(kb.diseases, [f for f in kb.findings if keep(f)], {}))


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


def test_simulate_is_deterministic_across_runs(workspace):
    assert simulate(workspace, "a.jsonl").returncode == 0
    assert simulate(workspace, "b.jsonl").returncode == 0
    a = (workspace / "a.jsonl").read_bytes()
    assert len(a.splitlines()) == 60
    assert a == (workspace / "b.jsonl").read_bytes()
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


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_corrupt_checkpoint_is_named(workspace, command):
    assert simulate(workspace).returncode == 0
    header = '"format":"ddx-checkpoint","version":3,"byte_order":"little","dtype":"float32"'
    (workspace / "m.ckpt").write_text(f'{{{header},"dim":1,"arrays":{{}}}}', encoding="utf-8")
    result = ddx(command, "m.ckpt", "--cases", "cases.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert "error: m.ckpt: checkpoint: missing field 'vocab'" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args, where",
    [
        (("kb", "validate", "deep.txt"), "syntax error: "),
        (("eval", "--engine", "expert", "--kb", "kb.json", "--cases", "deep.txt"), "deep.txt:1: parse error: "),
        (("predict", "deep.txt", "--cases", "cases.jsonl"), "deep.txt: checkpoint: parse error: "),
    ],
    ids=["kb-validate", "eval", "predict"],
)
def test_nesting_too_deep_to_decode_is_an_error_not_a_traceback(workspace, args, where):
    assert simulate(workspace).returncode == 0
    (workspace / "deep.txt").write_text("[" * 200000, encoding="utf-8")
    result = ddx(*args, cwd=workspace)
    assert result.returncode == 1
    assert f"error: {where}maximum recursion depth exceeded" in result.stdout + result.stderr
    assert "Traceback" not in result.stderr


def test_an_unreachable_case_floor_names_the_cases_flag(workspace):
    result = ddx("simulate", "--kb", "kb.json", "--cases", "10", "--out", "x.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert result.stderr == "error: --cases 10: cases_total must be >= 200 to cover 4 diseases x min_cases_per_disease=50\n"
    assert not (workspace / "x.jsonl").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl"],
        ["predict", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl"],
    ],
    ids=["eval", "predict"],
)
def test_a_ddx_top_k_past_int64_keeps_every_disease(workspace, argv):
    # 60 cases take the expert's array pass; the KB has 4 diseases.
    assert simulate(workspace).returncode == 0
    outputs = []
    for k in (str(2**63), "4"):
        code, _, err = run_in(workspace, [*argv, "--ddx-top-k", k, "--out", f"out-{k}"])
        assert (code, err) == (0, "")
        outputs.append((workspace / f"out-{k}").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize(
    "engine, message",
    [
        (("nosuch.ckpt", "--engine", "expert", "--kb", "kb.json"), "nosuch.ckpt: --engine expert reads no checkpoint"),
        (("m.ckpt", "--kb", "nosuch.json"), "--kb nosuch.json: --engine model reads no KB"),
    ],
    ids=["checkpoint-for-expert", "kb-for-model"],
)
def test_an_input_the_engine_does_not_read_is_rejected(workspace, command, engine, message):
    assert simulate(workspace).returncode == 0
    before = sorted(p.name for p in workspace.iterdir())
    assert run_in(workspace, [command, *engine, "--cases", "cases.jsonl", "--out", "r.out"]) == (1, "", f"error: {message}\n")
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_model_eval_ignores_ddx_top_k(workspace):
    # --ddx-top-k sizes only the expert's retained list; the model ranks every disease.
    assert simulate(workspace).returncode == 0
    assert train(workspace).returncode == 0
    runs = [
        ddx("eval", "m.ckpt", "--cases", "cases.jsonl", "--topk", "1,4", "--ddx-top-k", k, "--out", f"r{k}.json", cwd=workspace)
        for k in ("1", "0")
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert (workspace / "r1.json").read_bytes() == (workspace / "r0.json").read_bytes()
    assert json.loads((workspace / "r1.json").read_text())["accuracy"]["4"] == 1.0  # every one of 4 diseases ranked
    assert "retained list" in ddx("eval", "--help", cwd=workspace).stdout


def test_topk_below_one_names_the_flag(workspace):
    assert simulate(workspace).returncode == 0
    result = ddx("eval", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", "--topk", "0", cwd=workspace)
    assert result.returncode == 1
    assert result.stderr == "error: --topk expects positive integers, got '0'\n"
    assert result.stdout == ""


def test_duplicate_case_ids_name_their_files(workspace):
    assert simulate(workspace).returncode == 0
    lines = (workspace / "cases.jsonl").read_text().splitlines(keepends=True)
    (workspace / "b.jsonl").write_text(lines[0], encoding="utf-8")
    (workspace / "dup.jsonl").write_text("".join(lines[:3] + lines[:1]), encoding="utf-8")
    expert = ("eval", "--engine", "expert", "--kb", "kb.json", "--cases")
    result = ddx(*expert, "cases.jsonl", "b.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert result.stderr == "error: b.jsonl: duplicate case id 'sim-0', also in cases.jsonl\n"
    result = ddx(*expert, "dup.jsonl", cwd=workspace)
    assert result.returncode == 1
    assert result.stderr == "error: dup.jsonl:4: duplicate case id 'sim-0' (first on line 1)\n"


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
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("epoch ") for line in lines[:3])

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


# Digests of the expert's eval report and predictions on the workspace's 60
# simulated cases, which take the array pass, and on their first 5, which
# are ranked case by case; --ddx-top-k 0 ranks every disease.
@pytest.mark.parametrize(
    "command,n_cases,top_k,digest",
    [
        ("eval", 60, "0", "d0a6b49748fc9cba363f278ef88bf5c850468246ef3d746812baccaea7aebeda"),
        ("eval", 60, "3", "7fd072481314aea1e475afdeaae4a0b3efc0ac60546f43855c7f639efb5c575b"),
        ("eval", 5, "0", "d2b92a44ac22c3317503ac5b7c113c0eaa1e263dc1f68dd9a7d4d4f338343656"),
        ("eval", 5, "3", "7b482c70fc26cea27fbe944571136fbc77a8fc2eaed8731b1e79eb8513547b27"),
        ("predict", 60, "0", "aedf135ad03a2a39d0f806d82de8eaa1239f2d70b125e20c048cbc6d1a7103d2"),
        ("predict", 60, "3", "073b4a17536a8190dda25350293d4a9f935916c5ca7091ddfdc8fb8b29401103"),
        ("predict", 5, "0", "2c29bd9f580394ae768890c71c6b2ca166a411ca3db2c08b9d5fe1b57c679775"),
        ("predict", 5, "3", "d3de7d0382f07adc123a6f31edb394e0694b4edb8a5ffc6d87efbab8f73993d9"),
    ],
)
def test_expert_report_and_prediction_bytes_are_pinned(workspace, command, n_cases, top_k, digest):
    argv = ["simulate", "--kb", "kb.json", "--cases", "60", "--min-per-disease", "10", "--seed", "7", "--out", "all.jsonl"]
    assert run_in(workspace, argv)[0] == 0
    lines = (workspace / "all.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (workspace / "cases.jsonl").write_text("".join(lines[:n_cases]), encoding="utf-8")
    argv = [command, "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", "--ddx-top-k", top_k, "--out", "out"]
    assert run_in(workspace, argv)[0] == 0
    assert hashlib.sha256((workspace / "out").read_bytes()).hexdigest() == digest


def test_expert_engine_names_a_case_it_cannot_label(workspace):
    assert simulate(workspace).returncode == 0
    demographics = [f.id for f in make_separable_kb(n_diseases=4).findings if f.kind == "demographic"]
    assert len(demographics) == 6
    ddx_label = [{"disease": "d00", "p": 1.0}]
    case = {"id": "every-demographic", "pos": demographics, "neg": [], "ddx": ddx_label, "source": "assessment"}
    (workspace / "odd.jsonl").write_text(json.dumps(case) + "\n", encoding="utf-8")
    expert = ("--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", "odd.jsonl")
    for command in ("eval", "predict"):
        result = ddx(command, *expert, cwd=workspace)
        assert result.returncode == 1
        assert result.stderr == (
            "error: --cases odd.jsonl: case 'every-demographic': all diseases excluded: empty differential\n"
        )


def test_seed_disease_truth_names_a_seedless_case_and_its_file(workspace):
    seeded = {"id": "s", "pos": ["d00_f0"], "neg": [], "ddx": [{"disease": "d00", "p": 1.0}], "source": "assessment"}
    (workspace / "a.jsonl").write_text(json.dumps(seeded | {"seed_disease": "d00"}) + "\n", encoding="utf-8")
    (workspace / "c.jsonl").write_text(json.dumps(seeded | {"id": "a"}) + "\n", encoding="utf-8")
    argv = ["eval", "--engine", "expert", "--kb", "kb.json", "--cases", "a.jsonl", "c.jsonl", "--truth", "seed-disease"]
    message = "error: --cases c.jsonl: case 'a': no seed_disease, needed by truth=seed-disease\n"
    assert run_in(workspace, argv) == (1, "", message)


def test_simulate_manifest_records_label_metrics(workspace):
    metrics = []
    for out in ("a.jsonl", "b.jsonl"):
        assert simulate(workspace, out).returncode == 0
        manifest = json.loads((workspace / f"{out}.manifest.json").read_text())
        metrics.append(manifest["metrics"])
    assert json.dumps(metrics[0]) == json.dumps(metrics[1])
    m = metrics[0]
    assert m == label_metrics(read_cases_file(workspace / "a.jsonl").cases)
    assert set(m) == {"findings_per_case", "ddx_size_mean", "ddx_entropy_mean", "seed_top1_share", "seed_in_ddx_share"}
    assert m["findings_per_case"] >= 5
    assert 1 <= m["ddx_size_mean"] <= 4  # 4 diseases
    assert 0 <= m["ddx_entropy_mean"] <= math.log(4)
    assert 0.9 <= m["seed_top1_share"] <= m["seed_in_ddx_share"] <= 1  # separable KB


def test_train_manifest_records_epoch_losses(workspace):
    assert simulate(workspace).returncode == 0
    metrics, timings, epoch_lines = [], [], []
    for out in ("a.ckpt", "b.ckpt"):
        result = train(workspace, out)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((workspace / f"{out}.manifest.json").read_text())
        assert manifest["outputs"] == [out]
        metrics.append(manifest["metrics"])
        timings.append(manifest["timing"])
        epoch_lines.append(result.stdout.splitlines()[:-1])
    assert json.dumps(metrics[0]) == json.dumps(metrics[1])
    assert epoch_lines[0] == epoch_lines[1]
    for timing in timings:
        assert set(timing) == {"epoch_seconds", "epoch_samples_per_s"}
        assert len(timing["epoch_seconds"]) == len(timing["epoch_samples_per_s"]) == 3
        assert all(s > 0 for s in timing["epoch_seconds"] + timing["epoch_samples_per_s"])
    losses = metrics[0]["epoch_loss"]
    assert set(metrics[0]) == {"epoch_loss"}
    assert len(losses) == 3 and all(type(x) is float and x > 0 for x in losses)
    assert epoch_lines[0] == [f"epoch {i} loss {x:.6f}" for i, x in enumerate(losses, start=1)]


def test_a_diverging_training_run_names_its_epoch_and_lr(workspace):
    assert simulate(workspace).returncode == 0
    before = sorted(p.name for p in workspace.iterdir())
    result = train(workspace, extra=("--dim", "4", "--lr", "1e308"))
    assert result.returncode == 1
    # The error is the run's one line: no NumPy overflow warning comes before it.
    assert re.fullmatch(r"error: --lr 1e\+308: learning_rate diverged at epoch \d+: mean loss nan\n", result.stderr)
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_restrict_findings_takes_a_kb_document_and_rejects_an_id_list(workspace):
    assert simulate(workspace).returncode == 0
    result = train(workspace, out="r1.ckpt", extra=("--restrict-findings", "kb.json"))
    assert result.returncode == 0, result.stderr

    ids = [f.id for f in make_separable_kb(n_diseases=4).findings][:8]
    (workspace / "keep.json").write_text(kb_of_findings(lambda f: f.id in ids), encoding="utf-8")
    result = train(workspace, out="r2.ckpt", extra=("--restrict-findings", "keep.json"))
    assert result.returncode == 0, result.stderr
    ckpt = json.loads((workspace / "r2.ckpt").read_text())
    assert set(ckpt["vocab"]["findings"]) <= set(ids)

    (workspace / "keep.txt").write_text("\n".join(ids) + "\n", encoding="utf-8")
    result = train(workspace, out="r3.ckpt", extra=("--restrict-findings", "keep.txt"))
    assert result.returncode == 1
    assert result.stderr == "error: --restrict-findings keep.txt: syntax error at line 1 column 1: Expecting value\n"
    assert not (workspace / "r3.ckpt").exists()


def test_the_skipped_findings_warning_reaches_the_stderr_of_its_own_run(workspace):
    # In a child process: pytest's handlers on the root logger would catch the warning here.
    ids = [f.id for f in make_separable_kb(n_diseases=4).findings][:8]
    (workspace / "keep.json").write_text(kb_of_findings(lambda f: f.id in ids), encoding="utf-8")
    script = """
import contextlib, io, json
from ddxkit.cli import main
runs = (
    ["simulate", "--kb", "kb.json", "--cases", "60", "--min-per-disease", "10", "--seed", "7", "--out", "cases.jsonl"],
    ["train", "--cases", "cases.jsonl", "--dim", "4", "--epochs", "1", "--restrict-findings", "keep.json", "--out", "m.ckpt"],
)
errs = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) == 0
    errs.append(err.getvalue())
print(json.dumps(errs))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=workspace, env=subprocess_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    simulate_err, train_err = json.loads(result.stdout)
    assert simulate_err == ""
    assert train_err.startswith("training encode skipped ") and train_err.endswith(" findings outside the vocabulary\n")
    assert result.stderr == ""


@pytest.mark.parametrize(
    "with_kb, kind", [(False, None), (True, "demographic"), (False, "demographic")], ids=["False", "True", "kinds"]
)
def test_restrict_findings_that_keep_no_finding_are_rejected(workspace, with_kb, kind):
    assert simulate(workspace).returncode == 0
    # A KB of no finding, or of only demographic ones: --kb or, without it,
    # the restricting KB's own kinds say which findings are demographic.
    (workspace / "only.json").write_text(kb_of_findings(lambda f: f.kind == kind), encoding="utf-8")
    kb = ("--kb", "kb.json") if with_kb else ()
    result = ddx("train", "--cases", "cases.jsonl", *kb, "--restrict-findings", "only.json", "--out", "m.ckpt", cwd=workspace)
    assert result.returncode == 1
    assert "error: --restrict-findings only.json: keeps no clinical finding of the cases" in result.stderr
    assert result.stdout == ""
    assert not (workspace / "m.ckpt").exists()


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
    "engine, name, width",
    [
        (("--engine", "expert", "--kb", "kb.json"), "expert", 12),
        (("a-long-name.ckpt",), "a-long-name.ckpt", 18),  # a name past 10 characters widens the column
    ],
)
def test_eval_stdout_layout(workspace, engine, name, width):
    assert simulate(workspace).returncode == 0
    assert train(workspace, out="a-long-name.ckpt").returncode == 0
    result = ddx(
        "eval", *engine,
        "--cases", "cases.jsonl",
        "--topk", "3,1",
        "--target-disease", "d00",
        "--out", "t.json",
        cwd=workspace,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((workspace / "t.json").read_text())
    header = f"top-k   {name:>{width}}\n" + "-" * (8 + width) + "\n"
    cells = [f"{100.0 * report[key][k]:.1f}%" for key in ("accuracy", "target_accuracy") for k in ("1", "3")]
    assert result.stdout == (
        header
        + f"1       {cells[0]:>{width}}\n"
        + f"3       {cells[1]:>{width}}\n"
        + "\ntarget disease: d00\n"
        + header
        + f"1       {cells[2]:>{width}}\n"
        + f"3       {cells[3]:>{width}}\n"
    )


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("train", "--epochs", "0"), "--epochs 0: epochs must be >= 1"),
        (("train", "--batch", "0"), "--batch 0: batch_size must be >= 1"),
        (("train", "--dropout", "1.0"), "--dropout 1.0: dropout_rate must be in [0, 1)"),
        (("train", "--lr", "nan"), "--lr nan: learning_rate must be finite and > 0, got nan"),
        (("train", "--dim", "0"), "--dim 0: dim must be >= 1"),
        (("train", "--seed", "-1"), "--seed -1: seed must be >= 0, got -1"),
        (("simulate", "--cases", "0"), "--cases 0: cases_total must be >= 1"),
        (("simulate", "--cases", "4294967297"), "--cases 4294967297: cases_total must be <= 2**32"),
        (("simulate", "--cases", "5", "--min-per-disease", "-1"), "--min-per-disease -1: min_cases_per_disease must be >= 0"),
        (("simulate", "--cases", "5", "--seed", "-1"), "--seed -1: seed must be a 64-bit unsigned integer"),
    ],
)
def test_a_rejected_config_value_names_its_flag_before_reading_input(tmp_path, argv, message):
    # The input files do not exist: the flag is checked before any is read.
    inputs = {"train": ("--cases", "missing.jsonl"), "simulate": ("--kb", "missing.json")}[argv[0]]
    code, out, err = run_in(tmp_path, [*argv, *inputs, "--out", "x.out"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, files",
    [
        (("eval", "missing.ckpt", "--cases", "empty.jsonl"), "empty.jsonl"),
        (("eval", "--engine", "expert", "--kb", "missing.json", "--cases", "empty.jsonl", "blank.jsonl"), "empty.jsonl blank.jsonl"),
        (("train", "--cases", "empty.jsonl", "--kb", "missing.json", "--out", "m.ckpt"), "empty.jsonl"),
        (("train", "--cases", "empty.jsonl", "--cases", "blank.jsonl", "--out", "m.ckpt"), "empty.jsonl blank.jsonl"),
    ],
)
def test_an_empty_case_set_names_its_files_before_any_other_input_is_read(tmp_path, argv, files):
    # The checkpoint and KB do not exist: the case files are checked first.
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "blank.jsonl").write_text("\n \n", encoding="utf-8")
    assert run_in(tmp_path, list(argv)) == (1, "", f"error: --cases {files}: no cases\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blank.jsonl", "empty.jsonl"]


def test_predict_on_an_empty_case_set_writes_an_empty_output(workspace):
    (workspace / "empty.jsonl").write_text("", encoding="utf-8")
    argv = ["predict", "--engine", "expert", "--kb", "kb.json", "--cases", "empty.jsonl", "--out", "p.jsonl"]
    assert run_in(workspace, argv) == (0, "", "")
    assert (workspace / "p.jsonl").read_bytes() == b""


def test_negative_train_seed_is_rejected_before_training(workspace):
    assert simulate(workspace).returncode == 0
    result = train(workspace, extra=("--seed", "-1"))
    assert result.returncode == 1
    assert "error: --seed -1: seed must be >= 0, got -1" in result.stderr
    assert result.stdout == ""
    assert not (workspace / "m.ckpt").exists()


NOT_UTF8 = b'{"id": "\xff"}\n'  # the bad byte is byte 8


@pytest.mark.parametrize(
    "args, where",
    [
        (("train", "--cases", "bad.bin", "--out", "x.ckpt"), "bad.bin"),
        (("eval", "--engine", "expert", "--kb", "kb.json", "--cases", "bad.bin"), "bad.bin"),
        (("eval", "bad.bin", "--cases", "cases.jsonl"), "bad.bin"),
        (("predict", "bad.bin", "--cases", "cases.jsonl"), "bad.bin"),
        (("kb", "validate", "bad.bin"), "bad.bin"),
        (("simulate", "--kb", "bad.bin", "--cases", "5", "--out", "x.jsonl"), "--kb bad.bin"),
        (("train", "--cases", "cases.jsonl", "--kb", "bad.bin", "--out", "x.ckpt"), "--kb bad.bin"),
        (("train", "--cases", "cases.jsonl", "--restrict-findings", "bad.bin", "--out", "x.ckpt"), "--restrict-findings bad.bin"),
        (("eval", "--engine", "expert", "--kb", "bad.bin", "--cases", "cases.jsonl"), "--kb bad.bin"),
    ],
)
def test_a_file_that_is_not_utf8_is_named(workspace, args, where):
    assert simulate(workspace).returncode == 0
    (workspace / "bad.bin").write_bytes(NOT_UTF8)
    result = ddx(*args, cwd=workspace)
    assert result.returncode == 1
    assert f"error: {where}: not UTF-8 text: invalid start byte at byte 8" in result.stderr
    assert result.stdout == ""


# --- flag fuzzing: argv built from the parser's own actions -----------------


def _commands(parser, path=()):
    """(command words, parser) for every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, path + (name,))


COMMANDS = list(_commands(build_parser()))
# Free-form values: the fixture's files, a missing one, a directory, depth
# lists and disease ids, valid and not.
WORDS = ("kb.json", "cases.jsonl", "m.ckpt", "bad.bin", "missing", "sub", "1,3", "0", "x", "d00", "nope")
# A value that works for the option, drawn about half the time so that runs
# get past their first input.
FITTING = {
    "kb": "kb.json",
    "kb_path": "kb.json",
    "cases": "cases.jsonl",
    "model": "m.ckpt",
    "restrict_findings": "kb.json",
    "topk": "1,3",
    "target_disease": "d00",
    "out": "out.txt",
}


def _value(action):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-3, 8).map(str)
    if action.type is float:
        return st.sampled_from(("nan", "inf", "-1", "0", "0.01", "0.5", "1", "x"))
    words = st.sampled_from(WORDS)
    return st.one_of(st.just(FITTING[action.dest]), words) if action.dest in FITTING else words


def _words(action):
    """Strategy for the argv words of one action (empty when it is left out)."""
    values = _value(action)
    if action.nargs == "+":
        values = st.lists(values, min_size=1, max_size=2)
    else:
        values = values.map(lambda v: [v])
    if not action.option_strings:
        return values if action.nargs != "?" else st.one_of(st.just([]), values)
    with_flag = values.map(lambda v: [action.option_strings[0], *v])
    return with_flag if action.required else st.one_of(st.just([]), with_flag)


@st.composite
def argvs(draw):
    words, parser = draw(st.sampled_from(COMMANDS))
    argv = list(words)
    for action in parser._actions:
        if not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            argv += draw(_words(action))
    return argv


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Name -> bytes of a small workspace: a KB, cases, a checkpoint, a file that is not UTF-8."""
    root = tmp_path_factory.mktemp("fuzz")
    kb_text = serialize_knowledge_base(make_separable_kb(n_diseases=4))
    (root / "kb.json").write_text(kb_text, encoding="utf-8")
    (root / "bad.bin").write_bytes(NOT_UTF8)
    setup = (
        ["simulate", "--kb", "kb.json", "--cases", "20", "--min-per-disease", "2", "--out", "cases.jsonl"],
        ["train", "--cases", "cases.jsonl", "--kb", "kb.json", "--dim", "4", "--epochs", "1", "--out", "m.ckpt"],
    )
    for argv in setup:
        assert run_in(root, argv)[0] == 0
    return {name: (root / name).read_bytes() for name in ("kb.json", "bad.bin", "cases.jsonl", "m.ckpt")}


def run_in(directory, argv):
    """main(argv) in `directory`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@given(argv=argvs())
@settings(max_examples=50, deadline=None)
def test_fuzzed_flags_exit_cleanly(fixture_files, argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in fixture_files.items():
            (Path(tmp) / name).write_bytes(data)
        (Path(tmp) / "sub").mkdir()
        code, out, err = run_in(tmp, argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:  # kb validate reports a bad document's errors on stdout
        assert any(line.startswith("error: ") for line in (out + err).splitlines()), (argv, out, err)
    if code == 2:
        assert "usage:" in err, (argv, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kb", "kb.json", "--cases", "5", "--out", "x.jsonl"],
        ["eval", "m.ckpt", "--cases", "cases.jsonl"],
        ["predict", "m.ckpt", "--cases", "cases.jsonl"],
    ],
)
def test_threads_flag_is_gone(tmp_path, argv):
    code, _, err = run_in(tmp_path, [*argv, "--threads", "1"])
    assert code == 2
    assert "unrecognized arguments: --threads 1" in err


def test_train_prints_each_epoch_line_once_on_stdout(workspace):
    assert simulate(workspace).returncode == 0
    result = train(workspace)
    assert result.returncode == 0, result.stderr
    losses = json.loads((workspace / "m.ckpt.manifest.json").read_text())["metrics"]["epoch_loss"]
    assert [line for line in result.stdout.splitlines() if line.startswith("epoch ")] == (
        [f"epoch {i} loss {x:.6f}" for i, x in enumerate(losses, start=1)]
    )
    assert not [line for line in result.stderr.splitlines() if line.startswith("epoch ")]


# --- config fields and the flags that set them -------------------------------

# (command, field) -> an out-of-range value, as the rejection prints it.
OUT_OF_RANGE = {
    ("simulate", "cases_total"): "0",
    ("simulate", "seed"): "-1",
    ("simulate", "min_cases_per_disease"): "-1",
    ("train", "learning_rate"): "0.0",
    ("train", "batch_size"): "0",
    ("train", "epochs"): "0",
    ("train", "dropout_rate"): "1.0",
    ("train", "seed"): "-1",
    ("train", "dim"): "0",
}
VALID_RUN = {
    "simulate": ["simulate", "--kb", "kb.json", "--cases", "20", "--min-per-disease", "2", "--out", "x.jsonl"],
    "train": ["train", "--cases", "cases.jsonl", "--kb", "kb.json", "--dim", "4", "--epochs", "1", "--out", "x.ckpt"],
}


def test_every_config_field_has_a_flag_on_its_command():
    fields = {
        "simulate": [f.name for f in dataclasses.fields(SimConfig)],
        "train": [f.name for f in dataclasses.fields(TrainConfig)] + ["dim"],
    }
    parsers = dict(COMMANDS)
    for command, names in fields.items():
        dests = {a.option_strings[0]: a.dest for a in parsers[(command,)]._actions if a.option_strings}
        for name in names:
            flag = CONFIG_FLAGS[name]
            assert dests[flag] == flag[2:].replace("-", "_"), (command, name)
    assert set(OUT_OF_RANGE) == {(command, name) for command, names in fields.items() for name in names}
    assert set(CONFIG_FLAGS) == {name for names in fields.values() for name in names}


@pytest.mark.parametrize(
    "command, field, value",
    [(command, field, value) for (command, field), value in OUT_OF_RANGE.items()]
    + [("simulate", "cases_total", "5")],  # below the case floor the KB sets: 4 diseases x 2
)
def test_an_out_of_range_setting_writes_nothing_and_names_its_flag(fixture_files, tmp_path, command, field, value):
    for name, data in fixture_files.items():
        (tmp_path / name).write_bytes(data)
    flag = CONFIG_FLAGS[field]
    code, out, err = run_in(tmp_path, [*VALID_RUN[command], flag, value])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} {value}: {field} ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(fixture_files)


def test_min_findings_flag_is_gone(tmp_path):
    code, _, err = run_in(tmp_path, ["kb", "validate", "kb.json", "--min-findings", "1"])
    assert code == 2
    assert "unrecognized arguments: --min-findings 1" in err


def test_simulate_ddx_top_k_flag_is_gone(workspace):
    # Simulated cases are labelled at the expert's default differential size.
    code, _, err = run_in(workspace, [*VALID_RUN["simulate"], "--ddx-top-k", "3"])
    assert code == 2
    assert "unrecognized arguments: --ddx-top-k 3" in err
    assert sorted(p.name for p in workspace.iterdir()) == ["kb.json"]
    assert run_in(workspace, VALID_RUN["simulate"])[0] == 0
    assert "ddx_top_k" not in json.loads((workspace / "x.jsonl.manifest.json").read_text())["config"]


# --- manifests ---------------------------------------------------------------

MANIFEST_KEYS = [
    "command", "config", "seeds", "inputs", "outputs", "tool_version", "wall_clock_seconds", "metrics", "timing",
]  # fmt: skip


@pytest.mark.parametrize(
    "argv, code, manifest, inputs, outputs",
    [
        (["kb", "validate", "kb.json"], 0, "kb-validate.manifest.json", ["kb.json"], []),
        (["kb", "validate", "bad.json", "--out", "r.txt"], 1, "r.txt.manifest.json", ["bad.json"], ["r.txt"]),
        (VALID_RUN["simulate"], 0, "x.jsonl.manifest.json", ["kb.json"], ["x.jsonl"]),
        (VALID_RUN["train"], 0, "x.ckpt.manifest.json", ["cases.jsonl", "kb.json"], ["x.ckpt"]),
        (["eval", "m.ckpt", "--cases", "cases.jsonl"], 0, "eval.manifest.json", ["m.ckpt", "cases.jsonl"], []),
        (
            ["eval", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", "--out", "r.json"],
            0, "r.json.manifest.json", ["kb.json", "cases.jsonl"], ["r.json"],
        ),
        (["predict", "m.ckpt", "--cases", "cases.jsonl"], 0, "predict.manifest.json", ["m.ckpt", "cases.jsonl"], []),
    ],
    ids=["kb-validate", "kb-validate-invalid", "simulate", "train", "eval", "eval-expert", "predict"],
)  # fmt: skip
def test_each_command_writes_a_manifest_of_one_shape(fixture_files, tmp_path, argv, code, manifest, inputs, outputs):
    for name, data in fixture_files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "bad.json").write_text('{"diseases": []', encoding="utf-8")
    assert run_in(tmp_path, argv)[0] == code
    written = json.loads((tmp_path / manifest).read_text(encoding="utf-8"))
    assert list(written) == MANIFEST_KEYS
    args = vars(build_parser().parse_args(argv))
    command = " ".join(argv[:2]) if argv[0] == "kb" else argv[0]
    config = {k: v for k, v in args.items() if k not in ("func", "command")}
    assert (written["command"], written["config"]) == (command, config)
    assert written["seeds"] == {"seed": args.get("seed")}
    assert (written["inputs"], written["outputs"]) == (inputs, outputs)
    assert written["tool_version"] == __version__
    assert written["wall_clock_seconds"] >= 0
    assert (written["metrics"] is None) == (argv[0] not in ("simulate", "train"))
    assert (written["timing"] is None) == (argv[0] != "train")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--ddx-top-k", "-1"), "--ddx-top-k must be >= 0 (0 ranks every disease), got -1"),
        (("--topk", ","), "--topk list is empty"),
    ],
    ids=["ddx-top-k", "topk"],
)
def test_eval_names_a_bad_depth_flag(workspace, flags, message):
    assert simulate(workspace).returncode == 0
    before = sorted(p.name for p in workspace.iterdir())
    argv = ["eval", "--engine", "expert", "--kb", "kb.json", "--cases", "cases.jsonl", *flags]
    assert run_in(workspace, argv) == (1, "", f"error: {message}\n")
    assert sorted(p.name for p in workspace.iterdir()) == before
