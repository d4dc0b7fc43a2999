"""Run a ddxkit benchmark workload and print its metrics.

    python3 bench/run.py --workload kb-200 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the workload's pipeline repeats until `--seconds` are used up
and the end-to-end metrics are medians over those passes, in reference
seconds (see workloads.Reference). With `--trace 1` the untraced passes get
half of `--seconds`, then one pass runs with spans around the package's
functions and the per-layer metrics come from it; no end-to-end number
comes from a traced pass. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. The line before it
holds the full report: every metric, raw timings, the environment, the
determinism digests and the per-pass samples.

OpenBLAS is pinned to one thread before numpy loads, and the program runs
with its default `threads=1`; both settings are recorded in the report.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("kb-200", "dim-1024", "desk-cli")
SETUP_SAMPLES = 5

# Every end-to-end metric: unit, better direction. BENCHMARK.json gates the
# ones a run can always report and that are never 0; novel_gap_top3 exists on
# desk-cli only, and failed_ops_share is the gated `failed` / `attempted` pair.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "simulate_cases_per_s": ("cases/s", "higher"),
    "train_samples_per_s": ("samples/s", "higher"),
    "eval_model_cases_per_s": ("cases/s", "higher"),
    "eval_expert_cases_per_s": ("cases/s", "higher"),
    "model_top1": ("fraction", "higher"),
    "model_top5": ("fraction", "higher"),
    "expert_top1": ("fraction", "higher"),
    "novel_gap_top3": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ops_share": ("fraction", "lower"),
}
THROUGHPUT = {
    "simulate_cases_per_s": "simulate",
    "train_samples_per_s": "train",
    "eval_model_cases_per_s": "eval_model",
    "eval_expert_cases_per_s": "eval_expert",
}

# Import ddxkit and parse the workload's KB in a fresh interpreter: the
# set-up a caller of the package pays before its first simulate call.
SETUP_PROGRAM = """
import sys, time
doc = sys.stdin.read()
t0 = time.perf_counter()
import ddxkit
ddxkit.parse_knowledge_base(doc)
print(time.perf_counter() - t0, ddxkit.__file__)
"""


def import_package() -> None:
    """Pin BLAS threads, then import ddxkit from this checkout's `src/`."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import ddxkit

    if not Path(ddxkit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ddxkit was imported from {ddxkit.__file__}, not from {SRC}")


def measure_setup(kb_doc: str) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, raw and in reference seconds."""
    from workloads import REFERENCE, REFERENCE_S

    before = REFERENCE.time()
    raw = _setup_once(kb_doc)
    return raw, raw * REFERENCE_S / ((before + REFERENCE.time()) / 2)


def _setup_once(kb_doc: str) -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM],
        input=kb_doc, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
    )  # fmt: skip
    elapsed, path = out.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise ImportError(f"set-up imported ddxkit from {path.strip()}, not from {SRC}")
    return float(elapsed)


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without leaving the checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ddxkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    import numpy

    info: dict = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"), config=blas.get("openblas configuration"))
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seeds: dict) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "program_threads": 1,
        "nproc": os.cpu_count(),
        "seeds": seeds,
    }


@contextlib.contextmanager
def scratch_dir(name: str):
    """An empty directory inside the checkout, made current and removed after."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    here = Path.cwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run_iteration(inputs, tracer=None):
    from workloads import Clock, run_desk, run_library

    clock = Clock(tracer)
    if not inputs.spec.through_cli:
        return run_library(inputs, clock)
    with scratch_dir(inputs.spec.name):
        return run_desk(inputs, clock)


def baseline_digests(workload: str, seed: int) -> dict | None:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    for run in json.loads(path.read_text()).get("runs", []):
        if run.get("workload") == workload and run.get("seed") == seed:
            return run.get("digests")
    return None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, setup_samples: int = SETUP_SAMPLES
) -> dict:
    """Run one workload; returns its report (see `summarize`)."""
    from tracing import SpanStats, Tracer, layer_metrics
    from workloads import SPECS, TINY, Ops, make_inputs

    spec = (TINY if tiny else SPECS)[name]
    inputs = make_inputs(spec, seed)

    # Passes repeat until the next one would overrun the budget; a traced run
    # spends half of it untraced, for the overhead's reference, then one
    # traced pass. Set-up samples are spread through the run the same way.
    budget = seconds / 2 if trace else seconds
    setup, iterations, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup.append(measure_setup(inputs.kb_doc))
        iterations.append(run_iteration(inputs))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > budget:
            break
    while len(setup) < setup_samples:
        setup.append(measure_setup(inputs.kb_doc))
    measured_s = time.perf_counter() - start

    # Same seed, same bytes: every iteration must reproduce the first one's
    # outputs. Each comparison is one more checked operation.
    determinism = Ops()
    for it in iterations[1:]:
        determinism.check(it.digests == iterations[0].digests, "outputs differ between iterations")
        determinism.check(it.accuracy == iterations[0].accuracy, "accuracy differs between iterations")

    report = summarize(name, seed, inputs, setup, iterations, determinism, measured_s)
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_iteration(inputs, tracer)
        per_layer, absent = layer_metrics(tracer, {"kb_diseases": len(inputs.kb_diseases), **traced.outputs})
        untraced_wall = statistics.median(it.wall_ref_s for it in iterations)
        per_layer["trace.overhead_s"] = {"value": traced.wall_ref_s - untraced_wall, "unit": "s"}
        stats = SpanStats(tracer)
        report.update(
            per_layer=per_layer,
            absent=absent,
            span_checks={
                "min_self_s": min(stats.self_time, default=0.0),
                "top_level_in_window_s": stats.top_level_s(*traced.window),
            },
            attempted=report["attempted"] + traced.ops.attempted,
            failed=report["failed"] + traced.ops.failed,
            failures=(report["failures"] + traced.ops.failures)[:20],
        )
        report["correct"] = report["failed"] == 0
        report["wall_s"]["traced"] = traced.wall_s
    return report


def timing_samples(setup, iterations, reference: bool) -> dict[str, list[float]]:
    """Per-pass set-up, wall and stage throughputs, in reference or raw seconds."""
    samples = {
        "setup_s": [r if reference else s for s, r in setup],
        "wall_s": [it.wall_ref_s if reference else it.wall_s for it in iterations],
    }
    for metric, stage in THROUGHPUT.items():
        samples[metric] = [it.work[stage] / (it.stage_ref_s if reference else it.stage_s)[stage] for it in iterations]
    return samples


def summarize(name, seed, inputs, setup, iterations, determinism, measured_s) -> dict:
    """The untraced passes' report: end-to-end medians, ops, environment and digests."""
    samples = timing_samples(setup, iterations, reference=True)
    raw = timing_samples(setup, iterations, reference=False)
    for metric in iterations[0].accuracy:
        samples[metric] = [it.accuracy[metric] for it in iterations]
    attempted = sum(it.ops.attempted for it in iterations) + determinism.attempted
    failed = sum(it.ops.failed for it in iterations) + determinism.failed

    values = {metric: statistics.median(xs) for metric, xs in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_ops_share"] = failed / attempted
    end_to_end = {
        m: {"value": values[m], "unit": END_TO_END[m][0], "better": END_TO_END[m][1]}
        for m in END_TO_END
        if m in values
    }
    digests = iterations[0].digests
    base = baseline_digests(name, seed)
    failures = [f for it in iterations for f in it.ops.failures] + determinism.failures
    return {
        "workload": name,
        "seed": seed,
        "iterations": len(iterations),
        "measured_s": measured_s,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "samples": samples,
        "raw": {m: statistics.median(xs) for m, xs in raw.items()},
        "raw_samples": raw,
        "reference_kernel_s": statistics.median(t for it in iterations for t in it.reference_s),
        "digests": digests,
        "digests_vs_baseline": None if base is None else ("same" if base == digests else "changed"),
        "per_layer": None,
        "absent": [],
        "computed": ["expert.disease_scores"],
        "span_checks": None,
        "wall_s": {"untraced": statistics.median(raw["wall_s"]), "traced": None},
        "env": environment(inputs.seeds),
    }


def gated(report: dict, trace: bool, spec: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, in its units."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = report["per_layer"] if trace else report["end_to_end"]
    return {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names if n in source}


def print_report(report: dict) -> None:
    print(f"{report['workload']}  seed {report['seed']}  "
          f"{report['iterations']} passes in {report['measured_s']:.1f} s  "
          f"ops {report['attempted'] - report['failed']}/{report['attempted']} ok")  # fmt: skip
    for name, m in report["end_to_end"].items():
        print(f"  {name:<26}{m['value']:>14.6g} {m['unit']:<10} {m['better']} is better")
    for name, m in (report["per_layer"] or {}).items():
        print(f"  {name:<34}{m['value']:>14.6g} {m['unit']}")
    for name in report["absent"]:
        print(f"  {name:<34}{'absent':>14}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        import_package()
    except ImportError as e:
        print(f"error: cannot import ddxkit from {SRC}: {e}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for report in reports:
        print_report(report)
        print(json.dumps({"report": report}, sort_keys=True))
    if len(reports) == 1:
        metrics = gated(reports[0], bool(args.trace), spec)
    else:
        metrics = {f"{r['workload']}/{n}": m for r in reports for n, m in gated(r, bool(args.trace), spec).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
