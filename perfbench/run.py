"""tensorgda benchmark: seeded workloads timed end to end, or per layer.

    python3 perfbench/run.py --workload faces-split --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` there, and nothing is installed.  One process runs one workload:
the inputs are built, one warm-up cycle follows, and cycles then repeat for
``--seconds``, each followed by a timed rebuild of the inputs.  Every
cycle's outputs are checked.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` cycles alternate between traced and untraced and
the result holds the per-layer figures (see ``perfbench/README.md``).  The
line before it carries the environment, output digests and exact counts.
Spans and results are kept under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

#: BLAS threads, pinned before numpy loads; the model bytes depend on it
BLAS_THREADS = 1
#: consecutive cycles per block behind ``cycle_s`` and ``train_s``
CYCLE_BLOCK = 4
#: fewest blocks behind a blocked figure: of cycles, and of queries for
#: ``classify_ms_p95``
MIN_BLOCKS = 3
#: fewest traced and untraced cycles in a traced run
MIN_TRACED = 3
#: longest a run goes on past ``--seconds`` to measure enough (say, when
#: cycles keep failing)
OVERTIME_S = 60.0
#: counts that must repeat exactly across cycles and across runs at one seed
EXACT_COUNTS = (
    "training.sweeps", "tensor.mode_product_calls", "hosvd.gram_modes",
    "datasets.frames_read", "training.scatter_calls",
    "training.objective_calls", "linalg.ratio_trace_eig_calls",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def import_package():
    """Import tensorgda from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "tensorgda" / "__init__.py").is_file():
        raise SystemExit(f"error: no tensorgda sources under {src}")
    sys.path.insert(0, str(src))
    import tensorgda

    if Path(tensorgda.__file__).resolve().parent != (src / "tensorgda").resolve():
        raise SystemExit(f"error: tensorgda imported from {tensorgda.__file__}")


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json, which fixes every metric's name and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorgda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class SetUps:
    """Builds the workload's inputs and times every build.

    The harness builds them once before the warm-up and once more after
    every cycle, so the builds behind ``setup_s`` are spread over the run
    as the cycles are.  Each build replaces the inputs, which are dropped
    first so that a build never holds two copies, and must hash to the
    first build's digest."""

    def __init__(self, w, seed, manifest, tracer):
        self.w, self.seed, self.manifest, self.tracer = w, seed, manifest, tracer
        self.seconds, self.problems = [], []
        self.inputs = self.digest = None
        self.build()

    def build(self) -> None:
        import workloads

        self.inputs = None
        start = perf_counter()
        if self.tracer is None:
            built = workloads.setup(self.w, self.seed, self.manifest)
        else:
            with self.tracer.traced(f"setup{len(self.seconds)}", root="harness.setup"):
                built = workloads.setup(self.w, self.seed, self.manifest)
        self.seconds.append(perf_counter() - start)
        digest = workloads.inputs_digest(built)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append(
                f"set-up {len(self.seconds) - 1} built different inputs from the same seed"
            )
        self.inputs = built


def run_cycles(w, setups, seed, seconds, scratch, tracer):
    """Warm-up cycle, then cycles until ``seconds`` have passed and enough
    were measured, each followed by a rebuild of the inputs.  Returns
    ``[(index, traced, outcome)]`` for the measured cycles, the warm-up
    outcome, and the attempted and failed counts."""
    import workloads

    cycle = workloads.serve_cycle if w.serve else workloads.split_cycle
    measured, first = [], None
    attempted = failed = 0
    deadline = None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        try:
            if traced:
                with tracer.traced(i):
                    out = cycle(w, setups.inputs, seed, scratch)
            else:
                out = cycle(w, setups.inputs, seed, scratch)
        except Exception:  # a failed cycle is counted and the run goes on
            traceback.print_exc()
            attempted += 1
            failed += 1
        else:
            attempted += 1 + len(out.latencies_s)
            if first is None:
                first = out
            elif out.fingerprint != first.fingerprint:
                out.problems.append("outputs differ from the first cycle's")
            out.problems += workloads.check_accuracy(w, 100.0 * out.correct / out.scored)
            for problem in out.problems:
                print(f"cycle {i}: {problem}", file=sys.stderr)
            failed += out.failed_queries + bool(out.problems)
            if out is not first:  # keep memory flat: only the first is digested
                out.model, out.report_text = None, ""
            if i > 0:
                measured.append((i, traced, out))
        setups.build()
        now = perf_counter()
        if deadline is None:
            deadline = now + seconds
        i += 1
        plain = [o for _, t, o in measured if not t]
        if tracer is None:
            enough = (
                len(plain) >= MIN_BLOCKS * CYCLE_BLOCK
                and sum(len(o.latencies_s) for o in plain)
                >= MIN_BLOCKS * stats.min_samples(95)
            )
        else:
            enough = min(len(plain), len(measured) - len(plain)) >= MIN_TRACED
        if now >= deadline and (enough or now >= deadline + OVERTIME_S):
            return measured, first, attempted, failed


def end_to_end(measured, setup_seconds) -> dict:
    outs = [o for _, _, o in measured]
    latencies = [s for o in outs for s in o.latencies_s]
    return {
        "cycle_s": stats.blocked_mean([o.cycle_s for o in outs], CYCLE_BLOCK),
        "train_s": stats.blocked_mean([o.train_s for o in outs], CYCLE_BLOCK),
        "classify_ms_p50": 1e3 * stats.percentile(latencies, 50),
        "classify_ms_p95": 1e3 * stats.blocked_percentile(latencies, 95),
        "accuracy_pct": 100.0 * sum(o.correct for o in outs) / sum(o.scored for o in outs),
        "setup_s": stats.median(setup_seconds),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w, measured, first, tracer, problems) -> dict:
    by_cycle = {}
    for sid, span in enumerate(tracer.spans):
        by_cycle.setdefault(span[4], {})[sid] = span
    cycles = [
        tracing.cycle_metrics(by_cycle[i], len(w.shape))
        for i, traced, _ in measured if traced
    ]
    setups = [tracing.setup_metrics(spans) for cycle, spans in by_cycle.items()
              if str(cycle).startswith("setup")]
    figures = {}
    for rows in (cycles, setups):
        for key in rows[0]:
            values = [row[key] for row in rows]
            if key in EXACT_COUNTS and len(set(values)) > 1:
                problems.append(f"{key} varies between repeats: {values}")
            figures[key] = values[0] if key in EXACT_COUNTS else stats.median(values)
    traced, plain = (
        stats.median([o.cycle_s for _, t, o in measured if t == kind])
        for kind in (True, False)
    )
    figures["trace.overhead_frac"] = traced / plain - 1.0
    figures["training.converged"] = int(first.converged)
    figures["model_io.bytes"] = first.model_bytes
    return figures


def compare_with_earlier(path: Path, record: dict, problems) -> None:
    """Counts and digests must repeat across runs of the same source at the
    same seed and BLAS thread count; ``path`` keeps what earlier runs saw."""
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if {k: earlier.get(k) for k in ("source", "blas_threads")} != {
        k: record[k] for k in ("source", "blas_threads")
    }:
        earlier = {}
    for group in ("digests", "counts"):
        seen = earlier.get(group, {})
        for key, value in record.get(group, {}).items():
            if key in seen and seen[key] != value:
                problems.append(f"{key} is {value}, an earlier run saw {seen[key]}")
            seen[key] = value
        if seen:
            earlier[group] = seen
    earlier.update(source=record["source"], blas_threads=record["blas_threads"])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(earlier, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    w = workloads.WORKLOADS[args.workload]
    declared = declared_metrics()
    tracer = tracing.Tracer() if args.trace else None
    origin = perf_counter()
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        start = perf_counter()
        manifest = workloads.prepare(w, args.seed, scratch)
        prepare_s = perf_counter() - start
        setups = SetUps(w, args.seed, manifest, tracer)
        measured, first, attempted, failed = run_cycles(
            w, setups, args.seed, args.seconds, scratch, tracer
        )
        problems = setups.problems
        if first is None:
            raise SystemExit("error: every cycle failed")
        record = {
            "source": source_digest(),
            "blas_threads": BLAS_THREADS,
            "digests": workloads.digests(first, scratch),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        figures = per_layer(w, measured, first, tracer, problems)
        record["counts"] = {k: figures[k] for k in EXACT_COUNTS}
        wanted = declared["per_layer"]
    else:
        figures = end_to_end(measured, setups.seconds)
        wanted = declared["end_to_end"]
    stem = f"{w.name}-seed{args.seed}"
    compare_with_earlier(OUT_DIR / f"{stem}-exact.json", record, problems)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if set(figures) != set(wanted):
        raise SystemExit(
            f"error: measured {sorted(set(figures) ^ set(wanted))} "
            "differently from BENCHMARK.json"
        )

    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": len(measured), "warmup_cycles": 1,
        "queries": sum(len(o.latencies_s) for _, _, o in measured),
        "setup_builds": len(setups.seconds), "prepare_s": prepare_s,
        "environment": environment(np),
        "digests": record["digests"], "counts": record.get("counts"),
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": figures[k], "unit": wanted[k]} for k in wanted},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8"
    )
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl.gz", origin)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
