"""Serialization of trained models and experiment reports.

Model container: one line of JSON (sorted keys, no whitespace) with a
format-version tag, then the raw bytes of the model's arrays.  The header
stores each fact once: the served projectors ``combined``, not the factors
they were multiplied from, and no flag that ``kind`` implies.  Each array
appears in the header as its shape alone; its little-endian float64 buffer,
in row-major (C) order, follows the newline, the arrays back to back in the
order ``combined[0]``, ``combined[1]``, ..., ``gallery``, ``mean_vector``
(when not null).  Lengths follow from shapes, so there is no offset to go
wrong.  A save/load round trip is bit-exact and repeated saves of the same
model are byte-identical: a model holds no clock reading.  Loading checks
the header before it allocates an array: exact key sets, the JSON type of
every value, a known kind, and shapes whose sizes add up to exactly the
bytes after the header.  It then reads each array straight into its own
buffer and checks that its entries are finite, that the shapes fit
``sample_shape``, and that there is a ``mean_vector`` exactly when the kind
is vectorized.  A rejection names the key at fault.

Report files: a line-oriented text document, ``key = value`` pairs followed
by ``[section]`` tables (tab-separated).  Floats are written with ``repr``
(shortest exact round trip), and a report holds no clock reading, so
reports are byte-reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from .errors import ConfigurationError, DatasetError
from .evaluation import METHODS, ExperimentReport
from .training import GdaModel, TrainingConfig, _is_number

MODEL_FORMAT = "tensorgda-model"
MODEL_VERSION = 5


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _shape_of(a: np.ndarray) -> dict:
    return {"shape": list(a.shape)}


def _int_list(values) -> list:
    return [int(v) for v in values]


def _float_list(values) -> list:
    return [float(v) for v in values]


def model_header(model: GdaModel) -> str:
    """The deterministic JSON header line of a model file, without its
    newline; the arrays in it are shapes only."""
    document = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "sample_shape": list(model.sample_shape),
        "combined": [_shape_of(p) for p in model.combined],
        "mean_vector": _optional(_shape_of)(model.mean_vector),
        "gallery": _shape_of(model.gallery),
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
    return _is_number(value, numbers.Integral)


def _list_of(accept, what: str):
    """A decoder of a JSON list whose entries all pass ``accept``, as a tuple."""
    def decode(value):
        if not isinstance(value, list) or not all(accept(v) for v in value):
            raise TypeError(f"must be a list of {what}")
        return tuple(value)
    return decode


_counts = _list_of(lambda v: _is_int(v) and v >= 1, "positive integers")
_numbers = _list_of(_is_number, "numbers")
_array_blobs = _list_of(lambda v: isinstance(v, dict), "arrays")


def _floats(value) -> tuple:
    return tuple(float(v) for v in _numbers(value))


_SHAPE_DECODERS = {
    "shape": _list_of(lambda v: _is_int(v) and v >= 0, "nonnegative integers"),
}


def _decode_shape(blob) -> tuple:
    return _decode_object(blob, _SHAPE_DECODERS)["shape"]


def _known_kind(kind) -> str:
    if kind not in METHODS:
        raise ValueError(f"{kind!r} is not one of {', '.join(METHODS)}")
    return kind


def _config_value(key: str):
    """A decoder of the config echo's ``key``: ``TrainingConfig`` checks the
    value alone, a JSON list read as a tuple."""
    def decode(value):
        value = tuple(value) if isinstance(value, list) else value
        return getattr(TrainingConfig(**{key: value}), key)
    return decode


# how each model field is read back from its JSON key of the same name;
# an array's key yields its shape, which ``_read_payload`` swaps for the array
_DECODERS = {
    "kind": _known_kind,
    "sample_shape": _counts,
    "combined": lambda value: [_decode_shape(b) for b in _array_blobs(value)],
    "gallery": _decode_shape,
    "gallery_labels": lambda value: np.array(_list_of(_is_int, "integers")(value)),
    "mean_vector": _optional(_decode_shape),
    "hosvd_ranks": _optional(_counts),
    "mode_energy": _optional(_floats),
    "objective_trace": _floats,
    "subspace_change_trace": _floats,
    "config": _optional(
        lambda blob: TrainingConfig(**_decode_object(
            blob, {f.name: _config_value(f.name) for f in fields(TrainingConfig)}
        ))
    ),
    "warnings": _list_of(lambda w: isinstance(w, str), "strings"),
}


def _payload(model: GdaModel) -> list:
    """The model's arrays in the order their bytes follow the header."""
    mean = [] if model.mean_vector is None else [model.mean_vector]
    return [*model.combined, model.gallery, *mean]


def _read_array(handle, shape: tuple) -> np.ndarray:
    array = np.empty(shape, "<f8")
    if handle.readinto(array) != array.nbytes:
        raise ValueError("the file ends inside it")
    if not np.isfinite(array).all():
        raise ValueError("holds a non-finite value")
    return array.astype(np.float64, copy=False)


def _read_payload(handle, values: dict) -> None:
    """Swap the array shapes in the decoded header ``values`` for the
    arrays stored after the header, once their sizes are known to add up
    to exactly the bytes left in the file."""
    shapes = [*values["combined"], values["gallery"], values["mean_vector"]]
    need = sum(8 * math.prod(shape) for shape in shapes if shape is not None)
    have = os.fstat(handle.fileno()).st_size - handle.tell()
    if need != have:
        raise ValueError(f"the header's arrays take {need} bytes, {have} follow it")
    read = partial(_read_array, handle)
    for key, decode in (  # in payload order
        ("combined", lambda shapes: [read(s) for s in shapes]),
        ("gallery", read),
        ("mean_vector", _optional(read)),
    ):
        try:
            values[key] = decode(values[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None


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
    with open(path, "wb") as handle:
        handle.write(model_header(model).encode("ascii") + b"\n")
        for array in _payload(model):
            handle.write(np.ascontiguousarray(array, "<f8").data)


def _read_model(handle, path) -> GdaModel:
    try:  # a header never holds a raw newline: JSON escapes it in strings
        document = json.loads(handle.readline().decode("ascii"))
    except ValueError as exc:  # bad JSON or non-ASCII bytes
        raise DatasetError(f"cannot load model from {path}: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != MODEL_FORMAT:
        raise DatasetError(f"{path} is not a {MODEL_FORMAT} file")
    version = document.get("version")
    if not _is_int(version) or version != MODEL_VERSION:
        raise DatasetError(
            f"{path} has model version {version!r}, expected {MODEL_VERSION}"
        )
    try:
        values = _decode_object(document, _DECODERS, ("format", "version"))
        _read_payload(handle, values)
        model = GdaModel(**values)
        _check_consistency(model)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path} is not a valid model: {exc}") from None
    return model


def load_model(path) -> GdaModel:
    try:
        with open(path, "rb") as handle:
            return _read_model(handle, path)
    except OSError as exc:
        raise DatasetError(f"cannot load model from {path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_text(report: ExperimentReport) -> str:
    """Canonical text form of a report.

    Field names are stable.  Every value is deterministic given the data,
    config and seed, so equal runs write equal text.
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
