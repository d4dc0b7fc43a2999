"""The benchmark's workloads: inputs from a seed, the timed pipeline, output checks.

Each workload is a closed loop with one caller: every stage waits for the one
before it and there is no arrival rate. Inputs come from the workload seed
through `ddxkit.synthetic` and the public data functions; the program only
sees the generated inputs. The program runs with `threads=1`, its default.

    kb-200    200-disease KB, 2000 simulated cases: expert scoring and the
              simulator dominate; the model is small.
    dim-1024  20-disease KB, 1500 cases, a dim-1024 model trained for 15
              epochs: training dominates; the expert scores only 20 diseases.
    desk-cli  the paper's restricted-vs-full vocabulary experiment run through
              `ddxkit.cli.main` in process: the only workload with KB, case and
              checkpoint files, manifests and argument parsing.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ddx = SimpleNamespace(
    **{
        name: import_module(f"ddxkit.{name}")
        for name in ("kb", "simulate", "data", "model", "train", "evaluate", "cli", "synthetic")
    }
)

NOVEL_ID = "novel"


@dataclass(frozen=True)
class Spec:
    name: str
    n_diseases: int
    cases: int
    min_per_disease: int
    dim: int
    batch: int
    epochs: int
    novel_cases: int = 0  # desk-cli only: cases of a disease the KB lacks
    novel_train_fraction: float = 0.25
    dropout: float = 0.7
    lr: float = 0.01
    train_fraction: float = 0.7

    @property
    def through_cli(self) -> bool:
        return self.novel_cases > 0


# Sizes keep each pass short, about 5 s for kb-200, 3.5 s for dim-1024 and
# 2 s for desk-cli on a 2-core VM, so that a run of 40 s holds 7 to 24
# passes: the machine's speed drifts by tens of percent over seconds, and a
# median over many passes spread through the run is what repeats.
SPECS = {
    # 10 cases per disease are enough at 6 epochs of batch 64: top-1 is
    # about 0.96 and moves by about 0.01 across seeds.
    "kb-200": Spec("kb-200", n_diseases=200, cases=2000, min_per_disease=5, dim=64, batch=64, epochs=6),
    # The acceptance hyperparameters: dim 1024, batch 64, 15 epochs.
    "dim-1024": Spec("dim-1024", n_diseases=20, cases=1500, min_per_disease=50, dim=1024, batch=64, epochs=15),
    # 80 novel cases: 20 train, about as few as the acceptance fixture's 14,
    # so the restricted model still misses the novel disease; 60 held out, so
    # one case moves the gap by under 0.02.
    "desk-cli": Spec(
        "desk-cli", n_diseases=20, cases=1000, min_per_disease=50, dim=64, batch=64, epochs=15, novel_cases=80
    ),
}

# The same pipelines at a size that runs in about a second, for the tests.
TINY = {
    "kb-200": replace(SPECS["kb-200"], n_diseases=12, cases=120, min_per_disease=5, epochs=1),
    "dim-1024": replace(SPECS["dim-1024"], n_diseases=6, cases=90, min_per_disease=5, dim=32, epochs=2),
    "desk-cli": replace(
        SPECS["desk-cli"], n_diseases=6, cases=60, min_per_disease=5, dim=16, epochs=2, novel_cases=20
    ),
}


def derive_seeds(seed: int) -> dict[str, int]:
    """KB, simulation, split, training and novel-case seeds from the workload seed."""
    names = ("kb", "sim", "split", "train", "novel")
    return dict(zip(names, (int(s) for s in np.random.SeedSequence(seed).generate_state(len(names)))))


@dataclass(frozen=True)
class Inputs:
    spec: Spec
    seeds: dict[str, int]
    kb_doc: str
    kb_diseases: frozenset[str]
    novel: tuple = ()  # ClinicalCase records of the novel disease


def make_inputs(spec: Spec, seed: int) -> Inputs:
    seeds = derive_seeds(seed)
    kb = ddx.synthetic.make_separable_kb(n_diseases=spec.n_diseases, seed=seeds["kb"])
    novel = ()
    if spec.through_cli:
        novel = tuple(
            ddx.synthetic.make_novel_disease_cases(kb, novel_id=NOVEL_ID, n_cases=spec.novel_cases, seed=seeds["novel"])
        )
    return Inputs(spec, seeds, ddx.kb.serialize_knowledge_base(kb), frozenset(d.id for d in kb.diseases), novel)


class Reference:
    """A fixed mix of interpreter and numpy work, timed beside every stage.

    On a shared 2-core VM the speed drifts by tens of percent within a
    minute, for interpreter and BLAS work alike. A stage's time divided by
    the reference kernel's time just before and after it cancels most of
    that drift; multiplied by REFERENCE_S it reads as seconds on the VM the
    baseline was measured on, at its usual speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        freqs = rng.uniform(0.01, 1.0, 3000)
        self.table = {(f"d{i % 200:03d}", f"f{i:04d}"): float(q) for i, q in enumerate(freqs)}
        self.x = rng.random((64, 512))
        self.w = rng.random((512, 64))
        # Temporaries stay under 128 KiB: larger ones are mmap-ed by malloc,
        # and their cost then depends on the heap the workload left behind.
        self.v = rng.random(8000)

    def time(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(4):
            for key in self.table:
                total += math.log(1e-3 + self.table[key])
            sorted(self.table, key=lambda k: (-self.table[k], k))
        v = self.v
        for _ in range(60):
            v = 0.9 * v + 0.1 * np.sqrt(v + 1e-8) + (self.x @ self.w).sum() * 1e-12
        return time.perf_counter() - t0


REFERENCE = Reference()
REFERENCE_S = 0.022  # the kernel's typical time on the 2-core VM the baseline was taken on; never change it


class Clock:
    """Times the pipeline: named stages, and the window from the first
    program call to the last. Harness work inside the window (splitting and
    writing inputs, and timing the reference kernel) is subtracted from it
    and hidden from the tracer. Each stage is also kept in reference seconds:
    its time scaled by REFERENCE_S over the kernel's time around it."""

    def __init__(self, tracer=None):
        self.stage_s: dict[str, float] = defaultdict(float)
        self.stage_ref_s: dict[str, float] = defaultdict(float)
        self.reference_s: list[float] = []
        self.tracer = tracer
        self.start = self.end = 0.0
        self.harness_s = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.harness_s

    @property
    def wall_ref_s(self) -> float:
        return self.wall_s * REFERENCE_S / statistics.median(self.reference_s)

    def reference(self) -> float:
        with self.harness():
            t = REFERENCE.time()
        self.reference_s.append(t)
        return t

    @contextlib.contextmanager
    def traced(self):
        """Record spans, when tracing, for program calls made inside."""
        with self.tracer.record() if self.tracer else contextlib.nullcontext():
            yield

    @contextlib.contextmanager
    def window(self):
        with self.traced():
            self.start = time.perf_counter()
            try:
                yield
            finally:
                self.end = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        before = self.reference()
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        after = self.reference()
        self.stage_s[name] += dt
        self.stage_ref_s[name] += dt * REFERENCE_S / ((before + after) / 2)

    @contextlib.contextmanager
    def harness(self):
        t0 = time.perf_counter()
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            try:
                yield
            finally:
                self.harness_s += time.perf_counter() - t0


@dataclass
class Ops:
    """Operations attempted and failed: cases, rankings, commands and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Iteration:
    """One pass of a workload's pipeline, with its checked outputs."""

    wall_s: float
    wall_ref_s: float
    stage_s: dict[str, float]
    stage_ref_s: dict[str, float]
    reference_s: list[float]
    work: dict[str, int]  # simulated cases, train samples, model- and expert-ranked cases
    accuracy: dict[str, float]
    digests: dict[str, str]
    outputs: dict[str, float]  # output-derived values for the per-layer report
    ops: Ops
    window: tuple[float, float] = (0.0, 0.0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _recording(predictor, sink: list):
    """Pass rankings through to the evaluator, keeping them for the checks."""

    def predict(pos, neg):
        result = predictor(pos, neg)
        sink.append(result[0])
        return result

    return predict


# --- checks -----------------------------------------------------------------


def is_distribution(entries, known) -> bool:
    """Sums to 1 within 1e-9, sorted by (-p, id), ids known and distinct."""
    if not entries:
        return False
    ids = [d for d, _ in entries]
    probs = [p for _, p in entries]
    keys = [(-p, d) for d, p in entries]
    return (
        abs(math.fsum(probs) - 1.0) <= 1e-9
        and all(p >= 0.0 for p in probs)
        and keys == sorted(keys)
        and len(set(ids)) == len(ids)
        and set(ids) <= known
    )


def check_labels(cases, known, ops: Ops) -> None:
    for c in cases:
        ops.check(is_distribution(c.ddx.entries, known), f"label of {c.id} is not a distribution")


def check_model_rankings(rankings, diseases: tuple[str, ...], ops: Ops) -> None:
    vocab = set(diseases)
    for i, ranked in enumerate(rankings):
        ok = is_distribution(ranked, vocab) and len(ranked) == len(diseases)
        ops.check(ok, f"model ranking {i} is not a distribution over every vocabulary disease")


def check_case_round_trip(text: str, ops: Ops):
    """read_cases(write_cases(x)) reproduces x and its bytes; returns x."""
    cases = ddx.data.read_cases(text)
    again = ddx.data.write_cases(cases)
    ops.check(again == text and ddx.data.read_cases(again).cases == cases.cases, "case file round trip differs")
    return cases


def check_checkpoint_round_trip(text: str, ops: Ops):
    """checkpoint_from_json(checkpoint_to_json(p)) is bit-exact; returns p."""
    p = ddx.model.checkpoint_from_json(text)
    q = ddx.model.checkpoint_from_json(ddx.model.checkpoint_to_json(p))
    same = p.vocab == q.vocab and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(p.blocks().values(), q.blocks().values())
    )
    ops.check(same and ddx.model.checkpoint_to_json(q) == text, "checkpoint round trip is not bit-exact")
    return p


def simulated_stats(cases) -> dict[str, float]:
    n = len(cases)
    return {
        "findings_per_case": sum(len(c.pos) + len(c.neg) for c in cases) / n,
        "ddx_size_mean": sum(len(c.ddx.entries) for c in cases) / n,
        "seed_top1_share": sum(c.ddx.top() == c.seed_disease for c in cases) / n,
    }


# --- library pipelines: kb-200 and dim-1024 ----------------------------------


def run_library(inputs: Inputs, clock: Clock) -> Iteration:
    spec, seeds = inputs.spec, inputs.seeds
    # A fresh parse per iteration: the KB's sorted-findings cache starts cold
    # every time, as it does for a caller that parses its KB once.
    with clock.traced():
        kb = ddx.kb.parse_knowledge_base(inputs.kb_doc)
    sim_cfg = ddx.simulate.SimConfig(
        cases_total=spec.cases, seed=seeds["sim"], min_cases_per_disease=spec.min_per_disease
    )
    train_cfg = ddx.train.TrainConfig(
        learning_rate=spec.lr,
        batch_size=spec.batch,
        epochs=spec.epochs,
        dropout_rate=spec.dropout,
        seed=seeds["train"],
    )
    model_ranked: list = []
    expert_ranked: list = []
    with clock.window():
        with clock.stage("simulate"):
            cases = ddx.simulate.simulate_dataset(kb, sim_cfg)
        sim = ddx.data.CaseSet(cases=tuple(cases), provenance=("sim",))
        train_set, test_set = ddx.data.split_train_test(sim, spec.train_fraction, seed=seeds["split"])
        vocab = ddx.data.build_vocabulary([sim], kb=kb)
        p0 = ddx.model.init_parameters(vocab, dim=spec.dim, seed=seeds["train"], kb=kb)
        with clock.stage("train"):
            params, _ = ddx.train.train(p0, train_set, train_cfg)
        with clock.stage("eval_model"):
            model_report = ddx.evaluate.evaluate(
                _recording(ddx.evaluate.model_predictor(params), model_ranked),
                test_set,
                ks=[1, 5],
                truth="seed-disease",
            )
        with clock.stage("eval_expert"):
            expert_report = ddx.evaluate.evaluate(
                _recording(ddx.evaluate.expert_predictor(kb, top_k=None), expert_ranked),
                test_set,
                ks=[1],
                truth="seed-disease",
            )

    ops = Ops()
    check_labels(cases, inputs.kb_diseases, ops)
    check_model_rankings(model_ranked, vocab.diseases, ops)
    for i, ranked in enumerate(expert_ranked):
        ops.check(is_distribution(ranked, inputs.kb_diseases), f"expert ranking {i} is not a distribution")
    case_text = ddx.data.write_cases(cases)
    check_case_round_trip(case_text, ops)
    ckpt_text = ddx.model.checkpoint_to_json(params)
    check_checkpoint_round_trip(ckpt_text, ops)

    return Iteration(
        wall_s=clock.wall_s,
        wall_ref_s=clock.wall_ref_s,
        stage_s=dict(clock.stage_s),
        stage_ref_s=dict(clock.stage_ref_s),
        reference_s=clock.reference_s,
        work={
            "simulate": len(cases),
            "train": len(train_set) * spec.epochs,
            "eval_model": len(model_ranked),
            "eval_expert": len(expert_ranked),
        },
        accuracy={
            "model_top1": model_report.accuracy[1],
            "model_top5": model_report.accuracy[5],
            "expert_top1": expert_report.accuracy[1],
        },
        digests={"cases": _sha256(case_text), "checkpoint": _sha256(ckpt_text)},
        outputs={
            **simulated_stats(cases),
            "case_bytes": len(case_text.encode("utf-8")),
            "checkpoint_bytes": len(ckpt_text.encode("utf-8")),
        },
        ops=ops,
        window=(clock.start, clock.end),
    )


# --- desk-cli: the vocabulary experiment through the command line ------------


def run_desk(inputs: Inputs, clock: Clock) -> Iteration:
    """Runs in the working directory, which must be empty."""
    spec, seeds = inputs.spec, inputs.seeds
    ops = Ops()
    Path("kb.json").write_text(inputs.kb_doc, encoding="utf-8")

    def ddx_cli(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ddx.cli.main([str(a) for a in argv])
        ops.check(rc == 0, f"ddx {' '.join(map(str, argv[:2]))} exited {rc}")

    common_train = (
        "--cases", "train.jsonl", "--kb", "kb.json", "--dim", spec.dim, "--batch", spec.batch,
        "--epochs", spec.epochs, "--dropout", spec.dropout, "--lr", spec.lr, "--seed", seeds["train"],
    )  # fmt: skip
    variants = {"restricted": ("--restrict-findings", "kb.json"), "full": ()}
    with clock.window():
        ddx_cli("kb", "validate", "kb.json")
        with clock.stage("simulate"):
            ddx_cli(
                "simulate", "--kb", "kb.json", "--cases", spec.cases, "--min-per-disease", spec.min_per_disease,
                "--seed", seeds["sim"], "--out", "sim.jsonl",
            )  # fmt: skip
        with clock.harness():
            sim_text = Path("sim.jsonl").read_text(encoding="utf-8")
            sim = ddx.data.read_cases(sim_text, "sim.jsonl")
            novel = ddx.data.CaseSet(cases=inputs.novel, provenance=("novel",))
            sim_train, sim_test = ddx.data.split_train_test(sim, spec.train_fraction, seed=seeds["split"])
            novel_train, novel_test = ddx.data.split_train_test(novel, spec.novel_train_fraction, seed=seeds["split"])
            train_set = ddx.data.merge([sim_train, novel_train])
            for name, cs in (("train", train_set), ("sim_test", sim_test), ("novel_test", novel_test)):
                ddx.data.write_cases_file(cs, f"{name}.jsonl")
        for variant, restrict in variants.items():
            with clock.stage("train"):
                ddx_cli("train", *common_train, *restrict, "--out", f"{variant}.ckpt")
        for variant in variants:
            with clock.stage("eval_model"):
                ddx_cli(
                    "eval", f"{variant}.ckpt", "--cases", "sim_test.jsonl", "--truth", "seed-disease",
                    "--topk", "1,5", "--out", f"eval-{variant}-sim.json",
                )  # fmt: skip
                ddx_cli(
                    "eval", f"{variant}.ckpt", "--cases", "novel_test.jsonl", "--truth", "seed-disease",
                    "--topk", "3", "--target-disease", NOVEL_ID, "--out", f"eval-{variant}-novel.json",
                )  # fmt: skip
        with clock.stage("eval_expert"):
            ddx_cli(
                "eval", "--engine", "expert", "--kb", "kb.json", "--ddx-top-k", 0, "--cases", "sim_test.jsonl",
                "--truth", "seed-disease", "--topk", "1", "--out", "eval-expert.json",
            )  # fmt: skip
        ddx_cli("predict", "full.ckpt", "--cases", "sim_test.jsonl", "--ddx-top-k", 0, "--out", "predict.jsonl")

    def report(name: str) -> dict:
        return json.loads(Path(f"eval-{name}.json").read_text(encoding="utf-8"))

    check_labels(sim, inputs.kb_diseases, ops)
    check_case_round_trip(sim_text, ops)
    ckpt_text = {v: Path(f"{v}.ckpt").read_text(encoding="utf-8") for v in variants}
    params = {v: check_checkpoint_round_trip(text, ops) for v, text in ckpt_text.items()}
    rankings = [
        [(e["disease"], e["p"]) for e in json.loads(line)["prediction"]]
        for line in Path("predict.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    ops.check(len(rankings) == len(sim_test), "predict did not rank every held-out case")
    check_model_rankings(rankings, params["full"].vocab.diseases, ops)

    full_sim, expert = report("full-sim"), report("expert")
    gap = report("full-novel")["target_accuracy"]["3"] - report("restricted-novel")["target_accuracy"]["3"]
    held_out = len(sim_test) + len(novel_test)
    return Iteration(
        wall_s=clock.wall_s,
        wall_ref_s=clock.wall_ref_s,
        stage_s=dict(clock.stage_s),
        stage_ref_s=dict(clock.stage_ref_s),
        reference_s=clock.reference_s,
        work={
            "simulate": len(sim),
            "train": len(variants) * len(train_set) * spec.epochs,
            "eval_model": len(variants) * held_out,
            "eval_expert": expert["n_cases"],
        },
        accuracy={
            "model_top1": full_sim["accuracy"]["1"],
            "model_top5": full_sim["accuracy"]["5"],
            "expert_top1": expert["accuracy"]["1"],
            "novel_gap_top3": gap,
        },
        digests={"cases": _sha256(sim_text), **{f"checkpoint_{v}": _sha256(t) for v, t in ckpt_text.items()}},
        outputs={
            **simulated_stats(sim),
            "case_bytes": len(sim_text.encode("utf-8")),
            "checkpoint_bytes": sum(len(t.encode("utf-8")) for t in ckpt_text.values()),
        },
        ops=ops,
        window=(clock.start, clock.end),
    )
