"""Command-line entry point.

Subcommands: `kb validate`, `simulate`, `train`, `eval`, `predict`. Every
run writes a JSON manifest next to its primary output (or into the working
directory for commands without one) recording the resolved configuration,
seeds, paths, tool version, and wall-clock duration. All randomness is
controlled by --seed, so reruns with identical flags and inputs reproduce
identical output bytes; manifests are exempt (they carry timing), except
their `metrics` block, which a rerun reproduces byte for byte: `simulate`
records the label quality of its cases there (`simulate.label_metrics`), and
`train` the mean training loss of each epoch (`epoch_loss`).
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .data import CaseSet, build_vocabulary, merge, read_cases_file, write_cases_file
from .evaluate import evaluate, expert_predictor, format_table, model_predictor, rank_case_set
from .expert import CaseError
from .kb import ConfigError, KnowledgeBase, parse_knowledge_base, read_utf8, validate_kb_document
from .model import check_dim, init_parameters, load_checkpoint, save_checkpoint
from .simulate import SimConfig, label_metrics, simulate_dataset
from .train import DivergedError, TrainConfig, train


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: dict
    inputs: list[str]
    outputs: list[str]
    tool_version: str
    wall_clock_seconds: float
    metrics: dict | None = None


def _emit_manifest(
    command: str,
    args: argparse.Namespace,
    inputs: list[str],
    outputs: list[str],
    t0: float,
    metrics: dict | None = None,
) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = RunManifest(
        command=command,
        config=config,
        seeds={"seed": getattr(args, "seed", None)},
        inputs=inputs,
        outputs=outputs,
        tool_version=__version__,
        wall_clock_seconds=time.monotonic() - t0,
        metrics=metrics,
    )
    out = getattr(args, "out", None)
    path = Path(f"{out}.manifest.json") if out else Path(f"{command.replace(' ', '-')}.manifest.json")
    path.write_text(json.dumps(asdict(manifest), indent=1, default=str) + "\n", encoding="utf-8")


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


def _parse_kb(flag: str, path: str, text: str) -> KnowledgeBase:
    """The KB document read from `path`; a parse error names the flag and the path."""
    try:
        return parse_knowledge_base(text)
    except ValueError as e:
        raise ValueError(f"{flag} {path}: {e}") from None


def _read_flag_file(flag: str, path: str) -> str:
    """The text of the file `flag` names; bytes that are not UTF-8 name the flag and the path."""
    try:
        return read_utf8(path)
    except ValueError as e:
        raise ValueError(f"{flag} {e}") from None


def _read_kb(path: str) -> KnowledgeBase:
    return _parse_kb("--kb", path, _read_flag_file("--kb", path))


def _read_restrict_findings(path: str) -> frozenset[str]:
    """A KB document (its finding ids are taken) or one finding id per line."""
    text = _read_flag_file("--restrict-findings", path)
    if text.lstrip().startswith("{"):
        kb = _parse_kb("--restrict-findings", path, text)
        return frozenset(f.id for f in kb.findings)
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def _check_out_path(out: str | None) -> None:
    """Fail before any work when --out cannot name a file to write."""
    if out is None:
        return
    path = Path(out)
    if not path.parent.is_dir():
        raise ValueError(f"--out {out}: directory {path.parent} does not exist")
    if path.is_dir():
        raise ValueError(f"--out {out}: is a directory")


def _config(build, args, flags: dict[str, str]):
    """build(**values), each keyword's value read from the args attribute that
    `flags` maps it to. A value `build` rejects with a ConfigError is named
    with the flag of the error's field, as in "--epochs 0: epochs must be >= 1"."""
    values = {field: getattr(args, dest) for field, dest in flags.items()}
    try:
        return build(**values)
    except ConfigError as e:
        raise ValueError(f"--{flags[e.field].replace('_', '-')} {values[e.field]}: {e}") from None


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


def cmd_kb_validate(args) -> int:
    t0 = time.monotonic()
    text = read_utf8(args.kb_path)
    report = validate_kb_document(text, min_clinical_findings=args.min_findings)
    lines = report.lines()
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    sys.stdout.write(body if body else "ok: knowledge base is valid\n")
    _emit_manifest("kb validate", args, [args.kb_path], [args.out] if args.out else [], t0)
    return 0 if report.ok else 1


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    cfg = _config(
        SimConfig,
        args,
        {"cases_total": "cases", "seed": "seed", "min_cases_per_disease": "min_per_disease", "ddx_top_k": "ddx_top_k"},
    )
    kb = _read_kb(args.kb)
    cases = simulate_dataset(kb, cfg)
    write_cases_file(cases, args.out)
    print(f"wrote {len(cases)} cases to {args.out}")
    _emit_manifest("simulate", args, [args.kb], [args.out], t0, metrics=label_metrics(cases))
    return 0


def cmd_train(args) -> int:
    t0 = time.monotonic()
    flags = {"learning_rate": "lr", "batch_size": "batch", "epochs": "epochs", "dropout_rate": "dropout", "seed": "seed"}
    cfg = _config(TrainConfig, args, flags)
    _config(check_dim, args, {"dim": "dim"})
    _, cases = _some_cases(args.cases)
    kb = _read_kb(args.kb) if args.kb else None
    restrict = _read_restrict_findings(args.restrict_findings) if args.restrict_findings else None
    vocab = build_vocabulary([cases], kb=kb, restrict_to=restrict)
    if restrict is not None and vocab.n_findings == vocab.n_demographics:
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
    log_path = Path(f"{args.out}.log")
    log_path.write_text("".join(r.format_line() + "\n" for r in history), encoding="utf-8")
    for record in history:
        print(record.format_line())
    print(f"wrote checkpoint to {args.out}")
    inputs = list(args.cases) + ([args.kb] if args.kb else [])
    metrics = {"epoch_loss": [r.mean_loss for r in history]}
    _emit_manifest("train", args, inputs, [args.out, str(log_path)], t0, metrics=metrics)
    return 0


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
        params = load_checkpoint(args.model)
        return model_predictor(params), frozenset(params.vocab.diseases), [args.model]
    if not args.kb:
        raise ValueError("--engine expert requires --kb")
    kb = _read_kb(args.kb)
    return expert_predictor(kb, top_k=depth), frozenset(d.id for d in kb.diseases), [args.kb]


def _cases_hold(cases, disease: str) -> bool:
    """Whether any case has `disease` as its seed disease or in its ddx."""
    return any(c.seed_disease == disease or any(d == disease for d, _ in c.ddx.entries) for c in cases)


def cmd_eval(args) -> int:
    t0 = time.monotonic()
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
    _emit_manifest("eval", args, inputs + list(args.cases), [args.out] if args.out else [], t0)
    return 0


def cmd_predict(args) -> int:
    t0 = time.monotonic()
    predictor, _, inputs = _make_predictor(args)
    case_sets = [read_cases_file(p) for p in args.cases]
    cases = merge(case_sets)
    depth = _ranking_depth(args.ddx_top_k)
    lines = []
    rankings = _naming_the_case(case_sets, lambda: list(rank_case_set(predictor, cases)))
    for case, (ranked, skipped) in zip(cases, rankings):
        if depth is not None:
            ranked = ranked[:depth]
        lines.append(
            json.dumps(
                {
                    "id": case.id,
                    "prediction": [{"disease": d, "p": p} for d, p in ranked],
                    "skipped_findings": skipped,
                },
                separators=(",", ":"),
            )
        )
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)
    _emit_manifest("predict", args, inputs + list(args.cases), [args.out] if args.out else [], t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddx", description="Differential-diagnosis toolkit")
    parser.add_argument("--version", action="version", version=f"ddx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kb = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_val = kb_sub.add_parser("validate", help="validate a KB document")
    p_val.add_argument("kb_path", help="knowledge base JSON document")
    p_val.add_argument("--out", default=None, help="write the report to this file")
    p_val.add_argument("--min-findings", type=int, default=3, help="warn threshold for nonzero clinical findings")
    p_val.set_defaults(func=cmd_kb_validate)

    p_sim = sub.add_parser("simulate", help="generate labeled cases from a KB")
    p_sim.add_argument("--kb", required=True, help="knowledge base JSON document")
    p_sim.add_argument("--cases", type=int, required=True, help="total number of cases")
    p_sim.add_argument("--min-per-disease", type=int, default=50, help="per-disease case floor")
    p_sim.add_argument("--ddx-top-k", type=int, default=5, help="differential size kept by the expert engine")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output case file (jsonl)")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train the diagnosis model")
    p_train.add_argument("--cases", nargs="+", action="extend", required=True, help="case files (repeatable)")
    p_train.add_argument("--kb", default=None, help="KB for vocabulary widening and demographic masks")
    p_train.add_argument(
        "--restrict-findings", default=None, help="KB document or finding-id list; limits the finding vocabulary"
    )
    p_train.add_argument("--dim", type=int, default=1024, help="embedding dimension")
    p_train.add_argument("--dropout", type=float, default=0.7)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--epochs", type=int, default=15)
    p_train.add_argument("--batch", type=int, default=512)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.set_defaults(func=cmd_train)

    for name, fn, help_text, depth_help in (
        (
            "eval",
            cmd_eval,
            "evaluate a diagnoser on labeled cases",
            "size of the expert's retained list; 0 keeps every disease (the model always ranks every disease)",
        ),
        ("predict", cmd_predict, "rank diseases for each case", "ranking depth; 0 ranks every disease"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", nargs="?", default=None, help="model checkpoint (for --engine model)")
        p.add_argument("--engine", choices=("model", "expert"), default="model")
        p.add_argument("--kb", default=None, help="knowledge base (for --engine expert)")
        p.add_argument("--cases", nargs="+", action="extend", required=True, help="case files (repeatable)")
        p.add_argument("--ddx-top-k", type=int, default=5, help=depth_help)
        p.add_argument("--out", default=None)
        if name == "eval":
            p.add_argument("--topk", default="1,3,5", help="comma-separated accuracy depths")
            p.add_argument("--truth", choices=("argmax", "seed-disease"), default="argmax")
            p.add_argument("--target-disease", default=None, help="also report this disease's in-top-k rate")
        p.set_defaults(func=fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_path(args.out)
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)  # strerror and file name, not the bare errno
        return 1
    except (ValueError, KeyError) as e:
        message = e.args[0] if e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
