"""Spans around ddxkit functions, and the per-layer metrics taken from them.

The tracer wraps functions at the module attributes where callers look them
up: every `ddxkit` module whose namespace binds a wrapped function gets the
wrapper in its place, so `simulate.expert_inference` and
`expert.expert_inference` report to the same span name. Nothing under
`src/` changes; the wrappers live only while `Tracer.installed()` is open.

A name listed in WRAPPED that the package no longer defines is recorded as
missing. A metric is reported only when every span it needs was wrapped;
otherwise it is absent.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from importlib import import_module

# Per layer, the functions that get a span. Hot leaves such as kb.frequency,
# expert.score_disease and model.gather_rows are left out: they run millions
# of times per workload, and a wrapper on each call would cost more than the
# work it measures.
WRAPPED = {
    "kb": ("parse_knowledge_base", "validate_kb_document"),
    "expert": ("expert_inference",),
    "simulate": ("simulate_dataset", "simulate_case"),
    "data": (
        "read_cases",
        "read_cases_file",
        "write_cases",
        "write_cases_file",
        "build_vocabulary",
        "split_train_test",
    ),
    "model": (
        "init_parameters",
        "encode_case",
        "pooled_embedding",
        "make_dropout_plan",
        "predict_topk",
        "checkpoint_to_json",
        "save_checkpoint",
        "checkpoint_from_json",
        "load_checkpoint",
    ),
    "train": ("train", "encode_training_set", "backward", "adam_step"),
    "evaluate": ("evaluate",),
    "cli": ("main", "cmd_kb_validate", "cmd_simulate", "cmd_train", "cmd_eval", "cmd_predict"),
}

# Values read off return values at the same boundaries as the spans.
RESULT_HOOKS = {
    "model.encode_case": lambda r: r[1],  # findings skipped
    "evaluate.evaluate": lambda r: r.n_cases,
    "train.train": lambda r: r[1][-1].mean_loss,
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 at top level
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans in memory while `recording` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, list[float]] = {}
        self.wrapped: set[str] = set()
        self.missing: set[str] = set()
        self.recording = False
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self.values.setdefault(name, []).append(hook(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each WRAPPED function in the ddxkit modules."""
        for layer in WRAPPED:
            import_module(f"ddxkit.{layer}")
        modules = [m for n, m in sys.modules.items() if (n == "ddxkit" or n.startswith("ddxkit.")) and m]
        patches = []
        for layer, names in WRAPPED.items():
            home = import_module(f"ddxkit.{layer}")
            for attr in names:
                fn = getattr(home, attr, None)
                if not callable(fn):
                    self.missing.add(f"{layer}.{attr}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.add(f"{layer}.{attr}")
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            patches.append((module, key, fn))
                            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, fn in reversed(patches):
                setattr(module, key, fn)

    @contextlib.contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    @contextlib.contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was


class SpanStats:
    """Durations, self times and ancestry over a finished trace."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.duration = [s.end - s.start for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                child[s.parent] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def _outermost(self, names) -> list[int]:
        """Spans named in `names` with no ancestor also in `names`."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def caller_layer(self, i: int) -> str | None:
        """Layer of the nearest ancestor outside span i's own layer."""
        own = self.spans[i].layer
        p = self.spans[i].parent
        while p >= 0 and self.spans[p].layer == own:
            p = self.spans[p].parent
        return self.spans[p].layer if p >= 0 else None

    def count(self, names) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def total(self, names, caller: str | None = None, parent: str | None = None) -> float:
        return sum(
            self.duration[i]
            for i in self._outermost(names)
            if (caller is None or self.caller_layer(i) == caller)
            and (parent is None or (self.spans[i].parent >= 0 and self.spans[self.spans[i].parent].name == parent))
        )

    def self_total(self, names, where=None) -> float:
        return sum(self.self_time[i] for i, s in enumerate(self.spans) if s.name in names and (where is None or where(i)))

    def children(self, i: int) -> set[str]:
        return {s.name for s in self.spans if s.parent == i}

    def top_level_s(self, start: float, end: float) -> float:
        """Summed duration of top-level spans that began inside [start, end]."""
        return sum(self.duration[i] for i, s in enumerate(self.spans) if s.parent < 0 and start <= s.start <= end)


CLI_COMMANDS = {
    "cli.validate_s": "cli.cmd_kb_validate",
    "cli.simulate_s": "cli.cmd_simulate",
    "cli.train_s": "cli.cmd_train",
    "cli.eval_s": "cli.cmd_eval",
    "cli.predict_s": "cli.cmd_predict",
}


def layer_metrics(tracer: Tracer, outputs: dict) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics from a traced iteration, and the names reported absent.

    `outputs` carries values read off the workload's outputs rather than its
    spans: KB size, simulated-case statistics, and case and checkpoint bytes.
    """
    st = SpanStats(tracer)
    metrics: dict[str, dict] = {}
    absent: list[str] = []

    def put(name: str, unit: str, needs: tuple[str, ...], value) -> None:
        if not tracer.wrapped.issuperset(needs):
            absent.append(name)
        else:
            metrics[name] = {"value": float(value()), "unit": unit}

    def values(name: str) -> list[float]:
        return tracer.values.get(name, [])

    parse = ("kb.parse_knowledge_base", "kb.validate_kb_document")
    put("kb.parse_s", "s", parse, lambda: st.total(parse))
    put("kb.parse_calls", "count", parse, lambda: st.count(parse))

    inf = ("expert.expert_inference",)
    put("expert.inference_calls", "count", inf, lambda: st.count(inf))
    put("expert.inference_s", "s", inf, lambda: st.total(inf))
    put("expert.inference_in_simulate_s", "s", inf, lambda: st.total(inf, caller="simulate"))
    put("expert.inference_in_evaluate_s", "s", inf, lambda: st.total(inf, caller="evaluate"))
    put("expert.us_per_inference", "us", inf, lambda: 1e6 * st.total(inf) / max(st.count(inf), 1))
    put("expert.disease_scores", "count", inf, lambda: st.count(inf) * outputs["kb_diseases"])

    case = ("simulate.simulate_case",)
    put("simulate.case_self_s", "s", case, lambda: st.self_total(case))
    put("simulate.cases", "count", case, lambda: st.count(case))
    put("simulate.findings_per_case", "findings", (), lambda: outputs["findings_per_case"])
    put("simulate.ddx_size_mean", "diseases", (), lambda: outputs["ddx_size_mean"])
    put("simulate.seed_top1_share", "fraction", (), lambda: outputs["seed_top1_share"])

    write = ("data.write_cases", "data.write_cases_file")
    read = ("data.read_cases", "data.read_cases_file")
    put("data.write_cases_s", "s", write, lambda: st.total(write))
    put("data.read_cases_s", "s", read, lambda: st.total(read))
    put("data.case_bytes", "bytes", (), lambda: outputs["case_bytes"])
    for metric, fn in (("data.build_vocabulary_s", "data.build_vocabulary"), ("data.split_s", "data.split_train_test")):
        put(metric, "s", (fn,), lambda fn=fn: st.total((fn,)))

    for metric, fn in (
        ("model.init_parameters_s", "model.init_parameters"),
        ("model.encode_s", "model.encode_case"),
        ("model.dropout_mask_s", "model.make_dropout_plan"),
        ("model.predict_topk_s", "model.predict_topk"),
    ):
        put(metric, "s", (fn,), lambda fn=fn: st.total((fn,)))
    put("model.skipped_findings", "count", ("model.encode_case",), lambda: sum(values("model.encode_case")))
    pool = ("model.pooled_embedding",)
    put("model.pool_s", "s", pool + ("train.backward",), lambda: st.total(pool, parent="train.backward"))
    put("model.predict_calls", "count", ("model.predict_topk",), lambda: st.count(("model.predict_topk",)))
    save = ("model.save_checkpoint", "model.checkpoint_to_json")
    load = ("model.load_checkpoint", "model.checkpoint_from_json")
    put("model.checkpoint_save_s", "s", save, lambda: st.total(save))
    put("model.checkpoint_load_s", "s", load, lambda: st.total(load))
    put("model.checkpoint_bytes", "bytes", (), lambda: outputs["checkpoint_bytes"])

    put("train.backward_self_s", "s", ("train.backward",), lambda: st.self_total(("train.backward",)))
    put("train.adam_step_s", "s", ("train.adam_step",), lambda: st.total(("train.adam_step",)))
    put("train.steps", "count", ("train.adam_step",), lambda: st.count(("train.adam_step",)))
    put("train.encode_set_s", "s", ("train.encode_training_set",), lambda: st.total(("train.encode_training_set",)))
    put("train.final_loss", "nats", ("train.train",), lambda: (values("train.train") or [0.0])[-1])

    # An evaluate span ranks with the expert when one of its children is an
    # expert inference, and with the model otherwise.
    ev = ("evaluate.evaluate",)

    def by_expert(i: int) -> bool:
        return "expert.expert_inference" in st.children(i)

    put("evaluate.model_self_s", "s", ev + inf, lambda: st.self_total(ev, where=lambda i: not by_expert(i)))
    put("evaluate.expert_self_s", "s", ev + inf, lambda: st.self_total(ev, where=by_expert))
    put("evaluate.cases", "count", ev, lambda: sum(values("evaluate.evaluate")))

    for metric, fn in CLI_COMMANDS.items():
        put(metric, "s", (fn,), lambda fn=fn: st.total((fn,)))
    cli = tuple(f"cli.{n}" for n in WRAPPED["cli"])
    put("cli.self_s", "s", ("cli.main",), lambda: st.self_total(cli))

    metrics["trace.spans"] = {"value": float(len(st.spans)), "unit": "count"}
    return metrics, absent
