"""Serialization of trained models and experiment reports.

Model container: a single JSON document (sorted keys, no whitespace) with a
format-version tag.  It stores each fact once: the served projectors
``combined``, not the factors they were multiplied from, and no flag that
``kind`` implies.  Arrays are stored as base64 of their raw little-endian
float64 buffers in row-major (C) order, alongside their shapes, so a
save/load round trip is bit-exact and repeated saves of the same model are
byte-identical.  Stage timings are deliberately not serialized.  Loading
checks the document before it builds a model: exact key sets, the JSON type
of every value, a known kind, base64 and buffer sizes, finite arrays, shapes
that fit ``sample_shape``, and a ``mean_vector`` exactly when the kind is
vectorized.  A rejection names the key at fault.

Report files: a line-oriented text document, ``key = value`` pairs followed
by ``[section]`` tables (tab-separated).  Floats are written with ``repr``
(shortest exact round trip), and wall-clock timings are never written, so
reports are byte-reproducible.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError, DatasetError
from .evaluation import METHODS, ExperimentReport
from .training import GdaModel, TrainingConfig

MODEL_FORMAT = "tensorgda-model"
MODEL_VERSION = 3


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes(order="C")).decode("ascii"),
    }


def _int_list(values) -> list:
    return [int(v) for v in values]


def _float_list(values) -> list:
    return [float(v) for v in values]


def model_to_json(model: GdaModel) -> str:
    """Deterministic JSON text for a trained model."""
    document = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "sample_shape": list(model.sample_shape),
        "combined": [_encode_array(p) for p in model.combined],
        "mean_vector": _optional(_encode_array)(model.mean_vector),
        "gallery": _encode_array(model.gallery),
        "gallery_labels": _int_list(model.gallery_labels),
        "hosvd_ranks": _optional(_int_list)(model.hosvd_ranks),
        "mode_energy": _optional(_float_list)(model.mode_energy),
        "objective_trace": _float_list(model.objective_trace),
        "subspace_change_trace": _float_list(model.subspace_change_trace),
        "config": _optional(asdict)(model.config),
        "warnings": list(model.warnings),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _decode_object(blob, decoders: dict, header=()) -> dict:
    """The values of the JSON object ``blob``, each read by the decoder of
    its key.  The keys must be exactly ``header`` plus those of
    ``decoders``; an error names the key at fault."""
    if not isinstance(blob, dict):
        raise TypeError("must be an object")
    expected = {*header, *decoders}
    missing, unknown = sorted(expected - blob.keys()), sorted(blob.keys() - expected)
    if missing:
        raise ValueError(f"lacks key(s) {', '.join(missing)}")
    if unknown:
        raise ValueError(f"has unknown key(s) {', '.join(unknown)}")
    values = {}
    for key, decode in decoders.items():
        try:
            values[key] = decode(blob[key])
        except (TypeError, ValueError, OverflowError, ConfigurationError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _typed(accept, what: str):
    """A decoder that passes a JSON value through once ``accept`` holds."""
    def decode(value):
        if not accept(value):
            raise TypeError(f"must be {what}")
        return value
    return decode


def _list_of(accept, what: str):
    """A decoder of a JSON list whose entries all pass ``accept``, as a tuple."""
    def decode(value):
        if not isinstance(value, list) or not all(accept(v) for v in value):
            raise TypeError(f"must be a list of {what}")
        return tuple(value)
    return decode


_integer = _typed(_is_int, "an integer")
_number = _typed(_is_number, "a number")
_counts = _list_of(lambda v: _is_int(v) and v >= 1, "positive integers")
_numbers = _list_of(_is_number, "numbers")
_array_blobs = _list_of(lambda v: isinstance(v, dict), "arrays")


def _floats(value) -> tuple:
    return tuple(float(v) for v in _numbers(value))


_ARRAY_DECODERS = {
    "shape": _list_of(lambda v: _is_int(v) and v >= 0, "nonnegative integers"),
    "data": lambda value: base64.b64decode(value, validate=True),
}


def _decode_array(blob) -> np.ndarray:
    array = _decode_object(blob, _ARRAY_DECODERS)
    values = np.frombuffer(array["data"], dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("holds a non-finite value")
    return values.reshape(array["shape"])


def _known_kind(kind) -> str:
    if kind not in METHODS:
        raise ValueError(f"{kind!r} is not one of {', '.join(METHODS)}")
    return kind


# how each TrainingConfig value is read back from the config echo
_CONFIG_DECODERS = {
    "target_dims": _optional(_counts),
    "theta": _number,
    "hosvd_ranks": _optional(_counts),
    "max_iters": _integer,
    "conv_tol": _number,
    "ridge": _number,
    "pca_dims": _optional(_integer),
    "fisherface_pca_dims": _optional(_integer),
    "fisherface_lda_dims": _optional(_integer),
}

# how each model field is read back from its JSON key of the same name
_DECODERS = {
    "kind": _known_kind,
    "sample_shape": _counts,
    "combined": lambda value: [_decode_array(b) for b in _array_blobs(value)],
    "gallery": _decode_array,
    "gallery_labels": lambda value: np.array(_list_of(_is_int, "integers")(value)),
    "mean_vector": _optional(_decode_array),
    "hosvd_ranks": _optional(_counts),
    "mode_energy": _optional(_floats),
    "objective_trace": _floats,
    "subspace_change_trace": _floats,
    "config": _optional(
        lambda blob: TrainingConfig(**_decode_object(blob, _CONFIG_DECODERS))
    ),
    "warnings": _list_of(lambda w: isinstance(w, str), "strings"),
}


def _check_consistency(model: GdaModel) -> None:
    """Projectors, gallery and mean vector must fit ``sample_shape``, and
    only the vectorized kinds carry a mean vector."""
    if model.vectorized:
        rows = [math.prod(model.sample_shape)]
    else:
        rows = list(model.sample_shape)
    got = [p.shape[0] if p.ndim == 2 else None for p in model.combined]
    if got != rows:
        raise ValueError(
            f"combined: projector rows {got} do not fit sample_shape "
            f"{list(model.sample_shape)}"
        )
    gallery_shape = model.projected_shape + (len(model.gallery_labels),)
    if model.gallery.shape != gallery_shape:
        raise ValueError(f"gallery: shape {model.gallery.shape}, expected {gallery_shape}")
    mean = model.mean_vector
    if not model.vectorized and mean is not None:
        raise ValueError(f"mean_vector: must be null for kind {model.kind!r}")
    if model.vectorized and (mean is None or mean.shape != (rows[0],)):
        found = "null" if mean is None else f"shape {mean.shape}"
        raise ValueError(
            f"mean_vector: kind {model.kind!r} needs shape {(rows[0],)}, got {found}"
        )


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
    version = document.get("version")
    if not _is_int(version) or version != MODEL_VERSION:
        raise DatasetError(
            f"{path} has model version {version!r}, expected {MODEL_VERSION}"
        )
    try:
        model = GdaModel(**_decode_object(document, _DECODERS, ("format", "version")))
        _check_consistency(model)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path} is not a valid model: {exc}") from None
    return model


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_text(report: ExperimentReport) -> str:
    """Canonical text form of a report.

    Field names are stable.  The report's wall-clock ``timings`` are never
    written, because they are not reproducible across runs.
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
    return "\n".join(lines) + "\n"


def save_report(report: ExperimentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_to_text(report))
