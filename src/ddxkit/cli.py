"""Command-line entry point.

Subcommands: `kb validate`, `simulate`, `train`, `eval`, `predict`. Each
`cmd_*` returns its exit code and what its run read, wrote and measured, and
`main` writes the run's JSON manifest next to its primary output (or into the
working directory for commands without one) recording the resolved
configuration, seeds, paths, tool version, and wall-clock duration. A command
that fails writes none; `kb validate` on an invalid KB exits 1 and writes one.
`main` also names the flag behind a ConfigError (`CONFIG_FLAGS`). All
randomness is controlled by --seed, so reruns with identical flags and inputs
reproduce identical output bytes; manifests are exempt (they carry timing),
except their `metrics` block, which a rerun reproduces byte for byte:
`simulate` records the label quality of its cases there
(`simulate.label_metrics`), and `train` the mean training loss of each epoch
(`epoch_loss`). The `train` manifest also has a `timing` block, kept apart
from `metrics`: each epoch's wall-clock seconds and samples per second.
`train` writes no file but its checkpoint and manifest; each epoch's loss
line goes to stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .data import CaseSet, build_vocabulary, merge, read_cases_file, write_cases_file
from .evaluate import evaluate, expert_predictor, format_table, model_predictor, rank_case_set
from .expert import DEFAULT_DDX_TOP_K, CaseError
from .kb import CLINICAL, ConfigError, KBError, KnowledgeBase, parse_knowledge_base, read_utf8, validate_kb_document
from .model import check_dim, init_parameters, load_checkpoint, save_checkpoint
from .simulate import SimConfig, label_metrics, simulate_dataset
from .train import DivergedError, TrainConfig, train


# The flag behind each field a ConfigError can name; the flag's argparse dest
# is the flag with its dashes turned into underscores.
CONFIG_FLAGS = {
    "cases_total": "--cases", "min_cases_per_disease": "--min-per-disease", "learning_rate": "--lr",
    "batch_size": "--batch", "dropout_rate": "--dropout", "epochs": "--epochs", "seed": "--seed", "dim": "--dim",
}  # fmt: skip


def _parse_topk(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--topk expects a comma-separated integer list, got {text!r}") from None
    if not ks:
        raise ValueError("--topk list is empty")
    if min(ks) < 1:
        raise ValueError(f"--topk expects positive integers, got {text!r}")
    return ks


def _read_kb(path: str, flag: str) -> KnowledgeBase:
    """The KB document at `path`; an unreadable or invalid one names `flag` and the path."""
    try:
        return parse_knowledge_base(read_utf8(path))
    except KBError as e:
        raise ValueError(f"{flag} {path}: {e}") from None
    except ValueError as e:  # not UTF-8: the message begins with the path
        raise ValueError(f"{flag} {e}") from None


def _check_out_path(out: str | None) -> None:
    """Fail before any work when --out cannot name a file to write."""
    if out is None:
        return
    path = Path(out)
    if not path.parent.is_dir():
        raise ValueError(f"--out {out}: directory {path.parent} does not exist")
    if path.is_dir():
        raise ValueError(f"--out {out}: is a directory")


def _some_cases(paths: list[str]) -> tuple[list[CaseSet], CaseSet]:
    """The case files `paths` and their merged set, which must hold a case."""
    case_sets = [read_cases_file(p) for p in paths]
    cases = merge(case_sets)
    if len(cases) == 0:
        raise ValueError(f"--cases {' '.join(paths)}: no cases")
    return case_sets, cases


def _naming_the_case(case_sets: list[CaseSet], run):
    """run(); a CaseError from the engine is raised again naming its case's
    file and id. The engine's case indices run over `case_sets` in order."""
    try:
        return run()
    except CaseError as e:
        index = e.index
        for cs in case_sets:
            if index < len(cs):
                raise ValueError(f"--cases {cs.provenance[0]}: case {cs.cases[index].id!r}: {e.reason}") from None
            index -= len(cs)
        raise


def cmd_kb_validate(args) -> tuple[int, dict]:
    text = read_utf8(args.kb_path)
    report = validate_kb_document(text)
    lines = report.lines()
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    sys.stdout.write(body if body else "ok: knowledge base is valid\n")
    return (0 if report.ok else 1), {"inputs": [args.kb_path], "outputs": [args.out] if args.out else []}


def cmd_simulate(args) -> tuple[int, dict]:
    cfg = SimConfig(cases_total=args.cases, seed=args.seed, min_cases_per_disease=args.min_per_disease)
    kb = _read_kb(args.kb, "--kb")
    cases = simulate_dataset(kb, cfg)
    write_cases_file(cases, args.out)
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0, {"inputs": [args.kb], "outputs": [args.out], "metrics": label_metrics(cases)}


def cmd_train(args) -> tuple[int, dict]:
    cfg = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs, dropout_rate=args.dropout, seed=args.seed
    )
    check_dim(args.dim)
    _, cases = _some_cases(args.cases)
    kb = _read_kb(args.kb, "--kb") if args.kb else None
    restrict, demographic = None, set()
    if args.restrict_findings:
        findings = _read_kb(args.restrict_findings, "--restrict-findings").findings
        restrict, demographic = frozenset(f.id for f in findings), {f.id for f in findings if f.kind != CLINICAL}
    vocab = build_vocabulary([cases], kb=kb, restrict_to=restrict)
    # A finding is demographic when --kb or the restricting KB's own kind says so.
    if restrict is not None and set(vocab.findings) <= vocab.demographic_ids | demographic:
        raise ValueError(
            f"--restrict-findings {args.restrict_findings}: keeps no clinical finding of the cases"
            + (" or the KB" if kb else "")
        )
    params = init_parameters(vocab, dim=args.dim, seed=args.seed, kb=kb)
    try:
        trained, history = train(params, cases, cfg)
    except DivergedError as e:
        raise ValueError(f"--lr {args.lr}: training diverged at epoch {e.epoch}: mean loss {e.loss}") from None
    save_checkpoint(trained, args.out)
    for record in history:
        print(record.format_line())
    print(f"wrote checkpoint to {args.out}")
    inputs = list(args.cases) + ([args.kb] if args.kb else [])
    metrics = {"epoch_loss": [r.mean_loss for r in history]}
    timing = {
        "epoch_seconds": [r.seconds for r in history],
        "epoch_samples_per_s": [len(cases) / r.seconds for r in history],
    }
    return 0, {"inputs": inputs, "outputs": [args.out], "metrics": metrics, "timing": timing}


def _ranking_depth(k: int) -> int | None:
    """--ddx-top-k as a ranking depth; 0 means every disease (None)."""
    if k < 0:
        raise ValueError(f"--ddx-top-k must be >= 0 (0 ranks every disease), got {k}")
    return k or None


def _make_predictor(args):
    """The engine's predictor, the disease ids it can rank, and its input path."""
    depth = _ranking_depth(args.ddx_top_k)
    if args.engine == "model":
        if not args.model:
            raise ValueError("--engine model requires a checkpoint path argument")
        if args.kb:
            raise ValueError(f"--kb {args.kb}: --engine model reads no KB")
        params = load_checkpoint(args.model)
        return model_predictor(params), frozenset(params.vocab.diseases), [args.model]
    if not args.kb:
        raise ValueError("--engine expert requires --kb")
    if args.model:
        raise ValueError(f"{args.model}: --engine expert reads no checkpoint")
    kb = _read_kb(args.kb, "--kb")
    return expert_predictor(kb, top_k=depth), frozenset(d.id for d in kb.diseases), [args.kb]


def _cases_hold(cases, disease: str) -> bool:
    """Whether any case has `disease` as its seed disease or in its ddx."""
    return any(c.seed_disease == disease or any(d == disease for d, _ in c.ddx.entries) for c in cases)


def cmd_eval(args) -> tuple[int, dict]:
    ks = _parse_topk(args.topk)
    case_sets, cases = _some_cases(args.cases)
    predictor, diseases, inputs = _make_predictor(args)
    target = args.target_disease
    # An id the engine cannot rank is still a fair target when the cases hold
    # it (a novel disease scores a true 0 %); one that nothing holds is a typo.
    if target is not None and target not in diseases and not _cases_hold(cases, target):
        where = "the checkpoint's disease vocabulary" if args.engine == "model" else "the KB's diseases"
        raise ValueError(f"--target-disease {target}: not among {where} or the cases' diseases")
    report = _naming_the_case(case_sets, lambda: evaluate(predictor, cases, ks=ks, target=target, truth=args.truth))
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    name = args.model if args.engine == "model" else "expert"
    print(format_table(name, report.accuracy))
    if report.target_accuracy is not None:
        print(f"\ntarget disease: {report.target_disease}")
        print(format_table(name, report.target_accuracy))
    if report.skipped_findings:
        print(f"\nskipped {report.skipped_findings} out-of-vocabulary findings")
    return 0, {"inputs": inputs + list(args.cases), "outputs": [args.out] if args.out else []}


def cmd_predict(args) -> tuple[int, dict]:
    predictor, _, inputs = _make_predictor(args)
    case_sets = [read_cases_file(p) for p in args.cases]
    cases = merge(case_sets)
    depth = _ranking_depth(args.ddx_top_k)
    lines = []
    rankings = _naming_the_case(case_sets, lambda: list(rank_case_set(predictor, cases)))
    for case, (ranked, skipped) in zip(cases, rankings):
        if depth is not None:
            ranked = ranked[:depth]
        row = {"id": case.id, "prediction": [{"disease": d, "p": p} for d, p in ranked], "skipped_findings": skipped}
        lines.append(json.dumps(row, separators=(",", ":")))
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)
    return 0, {"inputs": inputs + list(args.cases), "outputs": [args.out] if args.out else []}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddx", description="Differential-diagnosis toolkit")
    parser.add_argument("--version", action="version", version=f"ddx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kb = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_val = kb_sub.add_parser("validate", help="validate a KB document")
    p_val.add_argument("kb_path", help="knowledge base JSON document")
    p_val.add_argument("--out", default=None, help="write the report to this file")
    p_val.set_defaults(func=cmd_kb_validate)

    p_sim = sub.add_parser("simulate", help=f"generate cases labeled by the expert's top-{DEFAULT_DDX_TOP_K} diseases")
    p_sim.add_argument("--kb", required=True, help="knowledge base JSON document")
    p_sim.add_argument("--cases", type=int, required=True, help="total number of cases")
    p_sim.add_argument(
        "--min-per-disease", type=int, default=SimConfig.min_cases_per_disease, help="per-disease case floor"
    )
    p_sim.add_argument("--seed", type=int, default=SimConfig.seed)
    p_sim.add_argument("--out", required=True, help="output case file (jsonl)")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train the diagnosis model")
    p_train.add_argument("--cases", nargs="+", action="extend", required=True, help="case files (repeatable)")
    p_train.add_argument("--kb", default=None, help="KB for vocabulary widening and demographic masks")
    p_train.add_argument(
        "--restrict-findings", default=None, help="KB document whose findings limit the finding vocabulary"
    )
    p_train.add_argument("--dim", type=int, default=1024, help="embedding dimension")
    p_train.add_argument(
        "--dropout",
        type=float,
        default=TrainConfig.dropout_rate,
        help="dropout rate in [0, 1), applied as round(rate * 65536) / 65536 (within 2^-17 of it)",
    )
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.set_defaults(func=cmd_train)

    for name, fn, help_text, depth_help in (
        (
            "eval",
            cmd_eval,
            "evaluate a diagnoser on labeled cases",
            "ranking depth: the size of the expert's retained list; 0 keeps every disease (the model ranks them all)",
        ),
        ("predict", cmd_predict, "rank diseases for each case", "ranking depth per case; 0 prints every disease"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", nargs="?", default=None, help="model checkpoint (for --engine model)")
        p.add_argument("--engine", choices=("model", "expert"), default="model")
        p.add_argument("--kb", default=None, help="knowledge base (for --engine expert)")
        p.add_argument("--cases", nargs="+", action="extend", required=True, help="case files (repeatable)")
        p.add_argument("--ddx-top-k", type=int, default=DEFAULT_DDX_TOP_K, help=depth_help)
        p.add_argument("--out", default=None)
        if name == "eval":
            p.add_argument("--topk", default="1,3,5", help="comma-separated accuracy depths")
            p.add_argument("--truth", choices=("argmax", "seed-disease"), default="argmax")
            p.add_argument("--target-disease", default=None, help="also report this disease's in-top-k rate")
        p.set_defaults(func=fn)

    return parser


def _write_manifest(args, run: dict, seconds: float) -> None:
    """The run's manifest, written next to its --out file, or else into the working directory."""
    command = f"kb {args.kb_command}" if args.command == "kb" else args.command
    manifest = {
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seeds": {"seed": getattr(args, "seed", None)},
        "inputs": run["inputs"],
        "outputs": run["outputs"],
        "tool_version": __version__,
        "wall_clock_seconds": seconds,
        "metrics": run.get("metrics"),
        "timing": run.get("timing"),
    }
    path = Path(f"{args.out}.manifest.json") if args.out else Path(f"{command.replace(' ', '-')}.manifest.json")
    path.write_text(json.dumps(manifest, indent=1, default=str) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        _check_out_path(args.out)
        code, run = args.func(args)
        _write_manifest(args, run, time.monotonic() - t0)
        return code
    except ConfigError as e:
        flag = CONFIG_FLAGS[e.field]
        print(f"error: {flag} {getattr(args, flag[2:].replace('-', '_'))}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)  # strerror and file name, not the bare errno
        return 1
    except (ValueError, KeyError) as e:
        message = e.args[0] if e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
