"""The benchmark's workloads: seeded set-up and one repeatable cycle each.

Only the package's public entry points are called, and always through the
attribute of their defining module at call time, so the tracer's wrappers
see the harness's own calls too.

Every cycle of a run repeats the same work: a split workload evaluates the
fold of the run's seed, and the serve workload trains on the same gallery.
That makes accuracy, counts and output bytes exact per seed, and lets each
cycle be checked against the first.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tensorgda.datasets as datasets
import tensorgda.evaluation as evaluation
import tensorgda.model_io as model_io
from tensorgda.training import TrainingConfig


@dataclass(frozen=True)
class Workload:
    """``gallery_per_class`` is the split's train count per class, or the
    serve gallery's size per class; the serve workload's remaining draws
    per class are its held-out queries."""

    name: str
    method: str
    n_classes: int
    per_class: int
    shape: tuple
    separation: float
    gallery_per_class: int
    serve: bool = False
    on_disk: bool = False
    noise: float = 1.0

    @property
    def chance_pct(self) -> float:
        return 100.0 / self.n_classes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("faces-split", "gda", 40, 10, (56, 46), 0.3, 5),
        Workload("gait-split", "gda", 20, 10, (32, 22, 10), 0.22, 5, on_disk=True),
        Workload("faces-serve", "hopca", 40, 20, (56, 46), 0.3, 10, serve=True),
    )
}

#: a recognition rate this many times chance counts as working
ACCURACY_OVER_CHANCE = 10.0


@dataclass
class Inputs:
    """``data`` is the whole set (split) or the gallery (serve);
    ``queries``/``query_labels`` hold the serve queries, gallery first."""

    data: object
    queries: np.ndarray | None = None
    query_labels: np.ndarray | None = None


def _write_pgm(path: Path, frame: np.ndarray) -> None:
    height, width = frame.shape
    path.write_bytes(
        f"P5\n{width} {height}\n255\n".encode("ascii")
        + frame.astype(np.uint8).tobytes(order="C")
    )


def _write_frames(data, directory: Path) -> Path:
    """The set as 8-bit PGM frame directories plus a manifest, quantized
    the way ``tensorgda synth`` writes it."""
    lo, hi = float(data.samples.min()), float(data.samples.max())
    pixels = np.clip(np.rint((data.samples - lo) * (255.0 / (hi - lo))), 0, 255)
    lines = [f"@frames {data.sample_shape[-1]}"]
    for i in range(data.n_samples):
        name = f"sample_{i:04d}"
        (directory / name).mkdir()
        for t in range(data.sample_shape[-1]):
            _write_pgm(directory / name / f"frame_{t:03d}.pgm", pixels[..., t, i])
        lines.append(f"{name}\t{data.labels[i]}\t{data.subjects[i]}")
    manifest = directory / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def prepare(w: Workload, seed: int, directory: Path):
    """Untimed, once per run: the frames and manifest of an on-disk
    workload, written into ``directory``; ``None`` for the others."""
    if not w.on_disk:
        return None
    return _write_frames(_synthesize(w, seed), directory)


def setup(w: Workload, seed: int, manifest) -> Inputs:
    """Build the workload's inputs: synthesize them from ``seed``, or load
    the prepared manifest."""
    data = _synthesize(w, seed) if manifest is None else datasets.load_manifest(manifest)
    if not w.serve:
        return Inputs(data)
    in_gallery = data.subjects <= w.gallery_per_class
    order = np.concatenate([np.flatnonzero(in_gallery), np.flatnonzero(~in_gallery)])
    return Inputs(
        data.subset(np.flatnonzero(in_gallery)),
        data.samples[..., order],
        data.labels[order],
    )


def _synthesize(w: Workload, seed: int):
    return datasets.synth_gaussian_classes(
        w.n_classes, w.per_class, w.shape, w.separation, w.noise, seed=seed
    )


def inputs_digest(inputs: Inputs) -> str:
    digest = hashlib.sha256()
    for a in (inputs.data.samples, inputs.data.labels, inputs.queries, inputs.query_labels):
        if a is not None:
            digest.update(repr((a.dtype.str, a.shape)).encode())
            digest.update(np.ascontiguousarray(a))  # hashed in place, no copy
    return digest.hexdigest()


@dataclass
class Outcome:
    """One cycle's timings, answers and the problems its checks found."""

    cycle_s: float = 0.0
    train_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    failed_queries: int = 0
    correct: int = 0
    scored: int = 0
    problems: list = field(default_factory=list)
    model: object = None
    report_text: str = ""
    fingerprint: str = ""
    converged: bool = False
    model_bytes: int = 0


def _classify_all(model, samples, outcome: Outcome):
    """Classify every sample (last axis) one query at a time; returns the
    answers, ``None`` for a query that raised."""
    answers, latencies = [], []
    for i in range(samples.shape[-1]):
        x = samples[..., i]
        start = perf_counter()
        try:
            answer = evaluation.classify(model, x)
        except Exception as exc:  # a failed query is counted, not fatal
            print(f"query {i} raised {exc!r}", file=sys.stderr)
            answer = None
        latencies.append(perf_counter() - start)
        answers.append(answer)
    outcome.latencies_s = latencies
    outcome.failed_queries = sum(a is None for a in answers)
    return answers


def _predictions_text(answers, truth) -> str:
    """The ``tensorgda classify`` predictions table for these answers."""
    lines = ["index\tpredicted\tdistance\ttruth"]
    for i, (answer, t) in enumerate(zip(answers, truth)):
        label, dist = ("-", "-") if answer is None else (answer[0], repr(answer[2]))
        lines.append(f"{i}\t{label}\t{dist}\t{t}")
    return "\n".join(lines) + "\n"


def _finite_trace(trace) -> bool:
    return all(np.isfinite(v) for v in trace)


def split_cycle(w: Workload, inputs: Inputs, seed: int, directory: Path) -> Outcome:
    """One fold as ``tensorgda evaluate`` runs it, then the ``train`` +
    ``classify`` path on the same split."""
    data, config, out = inputs.data, TrainingConfig(), Outcome()
    start = perf_counter()
    report = evaluation.evaluate_split(
        data, w.method, config, w.gallery_per_class, trials=1, seed=seed
    )
    train_idx, test_idx = evaluation.split_indices(data, w.gallery_per_class, seed, 0)
    train_set = data.subset(train_idx)
    t0 = perf_counter()
    model = evaluation.train_method(w.method, train_set, config)
    out.train_s = perf_counter() - t0
    answers = _classify_all(model, data.samples[..., test_idx], out)
    out.cycle_s = perf_counter() - start

    truth = data.labels[test_idx]
    out.scored = len(answers)
    out.correct = sum(a is not None and a[0] == t for a, t in zip(answers, truth))
    accuracy = 100.0 * out.correct / out.scored
    if accuracy != report.trial_accuracies[0]:
        out.problems.append(
            f"train+classify accuracy {accuracy} differs from the fold's "
            f"{report.trial_accuracies[0]}"
        )
    for trace in (report.objective_traces[0], model.objective_trace):
        if not _finite_trace(trace):
            out.problems.append(f"non-finite objective trace {trace}")
    out.model = model
    out.converged = bool(
        model.subspace_change_trace
        and model.subspace_change_trace[-1] < config.conv_tol
    )
    out.report_text = model_io.report_to_text(report)
    out.fingerprint = _sha256(
        (out.report_text + _predictions_text(answers, truth)
         + repr(model.objective_trace)).encode()
    )
    return out


def serve_cycle(w: Workload, inputs: Inputs, seed: int, directory: Path) -> Outcome:
    """Train on the gallery, hand the model over through a file as
    ``tensorgda train`` -> ``classify`` does, then answer every query."""
    gallery, config, out = inputs.data, TrainingConfig(), Outcome()
    path = directory / "model.json"
    start = perf_counter()
    model = evaluation.train_method(w.method, gallery, config)
    out.train_s = perf_counter() - start
    model_io.save_model(model, path)
    loaded = model_io.load_model(path)
    answers = _classify_all(loaded, inputs.queries, out)
    out.cycle_s = perf_counter() - start

    if _bits(model.combined) != _bits(loaded.combined):
        out.problems.append("combined changed in the save/load round trip")
    if _bits([model.gallery]) != _bits([loaded.gallery]):
        out.problems.append("gallery changed in the save/load round trip")
    n_gallery = gallery.n_samples
    missed = [
        i for i, a in enumerate(answers[:n_gallery])
        if a is not None and (a[1] != i or a[2] != 0.0)
    ]
    if missed:
        out.problems.append(
            f"{len(missed)} gallery self-queries missed index or distance 0.0, "
            f"first {missed[0]}: {answers[missed[0]]}"
        )
    held_out = list(zip(answers[n_gallery:], inputs.query_labels[n_gallery:]))
    out.scored = len(held_out)
    out.correct = sum(a is not None and a[0] == t for a, t in held_out)
    out.model, out.model_bytes = model, path.stat().st_size
    out.report_text = _predictions_text(answers, inputs.query_labels)
    out.fingerprint = _sha256(out.report_text.encode())
    return out


def _bits(arrays) -> list:
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digests(first: Outcome, directory: Path) -> dict:
    """SHA-256 of the first cycle's model file and report text (the fold's
    report for a split workload, the predictions table for serving)."""
    path = directory / "digest_model.json"
    model_io.save_model(first.model, path)
    return {
        "model_sha256": _sha256(path.read_bytes()),
        "report_sha256": _sha256(first.report_text.encode("utf-8")),
    }


def check_accuracy(w: Workload, accuracy_pct: float) -> list:
    floor = ACCURACY_OVER_CHANCE * w.chance_pct
    if accuracy_pct < floor:
        return [f"accuracy {accuracy_pct}% is below {floor}% ({ACCURACY_OVER_CHANCE}x chance)"]
    return []
