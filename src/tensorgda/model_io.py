"""Serialization of trained models and experiment reports.

Model container: a single JSON document (sorted keys, no whitespace) with a
format-version tag.  Arrays are stored as base64 of their raw little-endian
float64 buffers in row-major (C) order, alongside their shapes, so a
save/load round trip is bit-exact and repeated saves of the same model are
byte-identical.  Stage timings are deliberately not serialized.  Loading
checks the document (exact key sets, known kind, base64 and buffer sizes,
shapes that fit ``sample_shape``) before it builds a model.

Report files: a line-oriented text document, ``key = value`` pairs followed
by ``[section]`` tables (tab-separated).  Floats are written with ``repr``
(shortest exact round trip), so reports are byte-reproducible; wall-clock
timings are excluded unless explicitly requested.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigurationError, DatasetError
from .evaluation import METHODS, ExperimentReport
from .training import GdaModel, TrainingConfig

MODEL_FORMAT = "tensorgda-model"
MODEL_VERSION = 2


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes(order="C")).decode("ascii"),
    }


def _check_keys(what: str, blob, expected: set) -> None:
    if not isinstance(blob, dict):
        raise TypeError(f"{what} must be an object")
    missing, unknown = sorted(expected - blob.keys()), sorted(blob.keys() - expected)
    if missing:
        raise ValueError(f"{what} lacks key(s) {', '.join(missing)}")
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(unknown)}")


def _decode_array(blob: dict) -> np.ndarray:
    _check_keys("array", blob, {"shape", "data"})
    buf = base64.b64decode(blob["data"], validate=True)
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(blob["shape"])


def _encode_labels(labels: np.ndarray) -> list:
    return [int(x) for x in labels]


def model_to_json(model: GdaModel) -> str:
    """Deterministic JSON text for a trained model."""
    document = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "vectorized": model.vectorized,
        "sample_shape": list(model.sample_shape),
        "combined": [_encode_array(p) for p in model.combined],
        "hosvd_factors": None
        if model.hosvd_factors is None
        else [_encode_array(f) for f in model.hosvd_factors],
        "disc_factors": None
        if model.disc_factors is None
        else [_encode_array(f) for f in model.disc_factors],
        "mean_vector": None
        if model.mean_vector is None
        else _encode_array(model.mean_vector),
        "gallery": _encode_array(model.gallery),
        "gallery_labels": _encode_labels(model.gallery_labels),
        "hosvd_ranks": None
        if model.hosvd_ranks is None
        else [int(r) for r in model.hosvd_ranks],
        "mode_energy": None
        if model.mode_energy is None
        else [float(e) for e in model.mode_energy],
        "objective_trace": [float(v) for v in model.objective_trace],
        "subspace_change_trace": [float(v) for v in model.subspace_change_trace],
        "config": None if model.config is None else asdict(model.config),
        "warnings": list(model.warnings),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _config_from_dict(blob: dict) -> TrainingConfig:
    _check_keys("config", blob, {f.name for f in fields(TrainingConfig)})
    return TrainingConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in blob.items()}
    )


def _known_kind(kind: str) -> str:
    if kind not in METHODS:
        raise ValueError(f"unknown kind {kind!r}")
    return kind


def _optional(decode):
    return lambda value: None if value is None else decode(value)


def _decode_arrays(blobs) -> list:
    return [_decode_array(b) for b in blobs]


# how each model field is read back from its JSON key of the same name
_DECODERS = {
    "kind": _known_kind,
    "sample_shape": tuple,
    "combined": _decode_arrays,
    "gallery": _decode_array,
    "gallery_labels": np.array,
    "vectorized": bool,
    "hosvd_factors": _optional(_decode_arrays),
    "disc_factors": _optional(_decode_arrays),
    "mean_vector": _optional(_decode_array),
    "hosvd_ranks": _optional(tuple),
    "mode_energy": _optional(tuple),
    "objective_trace": tuple,
    "subspace_change_trace": tuple,
    "config": _optional(_config_from_dict),
    "warnings": tuple,
}


def _check_shapes(model: GdaModel) -> None:
    """Projectors, gallery and mean vector must fit ``sample_shape``."""
    if model.vectorized:
        rows = [math.prod(model.sample_shape)]
    else:
        rows = list(model.sample_shape)
    got = [p.shape[0] if p.ndim == 2 else None for p in model.combined]
    if got != rows:
        raise ValueError(
            f"projector rows {got} do not fit sample_shape {list(model.sample_shape)}"
        )
    gallery_shape = model.projected_shape + (len(model.gallery_labels),)
    if model.gallery.shape != gallery_shape:
        raise ValueError(f"gallery shape {model.gallery.shape}, expected {gallery_shape}")
    mean = model.mean_vector
    if model.vectorized and mean is not None and mean.shape != (rows[0],):
        raise ValueError(f"mean vector shape {mean.shape}, expected {(rows[0],)}")


def save_model(model: GdaModel, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(model_to_json(model))
        handle.write("\n")


def load_model(path) -> GdaModel:
    try:
        with open(path, "r", encoding="ascii") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or non-ASCII bytes
        raise DatasetError(f"cannot load model from {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != MODEL_FORMAT:
        raise DatasetError(f"{path} is not a {MODEL_FORMAT} file")
    if document.get("version") != MODEL_VERSION:
        raise DatasetError(
            f"{path} has model version {document.get('version')}, "
            f"expected {MODEL_VERSION}"
        )
    try:
        _check_keys("model", document, {"format", "version", *_DECODERS})
        model = GdaModel(**{key: decode(document[key]) for key, decode in _DECODERS.items()})
        _check_shapes(model)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise DatasetError(f"{path} is not a valid model: {exc}") from None
    return model


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_text(report: ExperimentReport, include_timings: bool = False) -> str:
    """Canonical text form of a report.

    Field names are stable; timings appear only on request because they are
    not reproducible across runs.
    """
    lines = ["# tensorgda experiment report v1"]
    lines.append(f"protocol = {report.protocol}")
    lines.append(f"method = {report.method}")
    lines.append(f"seed = {report.seed}")
    if report.train_per_class is not None:
        lines.append(f"train_per_class = {report.train_per_class}")
    lines.append(f"trials = {len(report.trial_accuracies)}")
    lines.append(f"mean_accuracy = {_fmt(report.mean_accuracy)}")
    if report.macro_accuracy is not None:
        lines.append(f"macro_accuracy = {_fmt(report.macro_accuracy)}")
    lines.append("classes = " + " ".join(str(c) for c in report.classes))

    lines.append("[trials]")
    lines.append("index\taccuracy\tdims\tcompression_fraction")
    for i, acc in enumerate(report.trial_accuracies):
        dims = "x".join(str(d) for d in report.per_trial_dims[i])
        lines.append(
            f"{i}\t{_fmt(acc)}\t{dims}\t{_fmt(report.compression_fractions[i])}"
        )

    lines.append("[confusion]")
    for i, c in enumerate(report.classes):
        row = "\t".join(str(int(v)) for v in report.confusion[i])
        lines.append(f"{c}\t{row}")

    lines.append("[test_counts]")
    for c, count in zip(report.classes, report.test_counts):
        lines.append(f"{c}\t{count}")

    for i, trace in enumerate(report.objective_traces):
        if not trace:
            continue
        lines.append(f"[objective_trace {i}]")
        lines.append(" ".join(_fmt(float(v)) for v in trace))

    if include_timings:
        lines.append("[timings]")
        for key in sorted(report.timings):
            lines.append(f"{key} = {_fmt(report.timings[key])}")
    return "\n".join(lines) + "\n"


def save_report(report: ExperimentReport, path, include_timings: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_to_text(report, include_timings=include_timings))
