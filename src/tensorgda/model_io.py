"""Serialization of trained models, and the text of both reports.

Model container: one line of JSON (sorted keys, no whitespace) with a
format-version tag, then the raw bytes of the model's arrays.  The header
stores each fact once: the served projectors ``combined``, not the factors
they were multiplied from, and no flag that ``kind`` implies.  Each array
appears in the header as its shape alone; its little-endian float64 buffer,
in row-major (C) order, follows the newline, the arrays back to back in the
order ``combined[0]``, ``combined[1]``, ..., ``gallery``.  The gallery is
the model's ``(n, d)`` row matrix, one flattened entry per row, so both
directions move its bytes as they are, with no copy.  Lengths follow from
shapes, so there is no offset to go wrong.  A save/load round trip is
bit-exact and repeated saves of the same model are byte-identical: a model
holds no clock reading.  No kind stores a mean: projection is linear, so a
shift shared by the gallery and the queries leaves every distance as it is.
Loading checks the header before it allocates an array: exact key sets, the
JSON type of every value, a known kind, labels that fit 64-bit integers,
and shapes whose sizes add up to exactly the bytes after the header.  It
then reads each array straight into its own buffer and checks that its
entries are finite and that the shapes fit ``sample_shape``.  A rejection
names the key at fault.

Reports: the experiment report (:func:`report_to_text`) and the compression
report of ``tensorgda compress`` share one line-oriented layout, written by
:func:`format_report`: a ``# tensorgda <name> report v1`` title line,
``key = value`` pairs, then ``[section]`` tables with tab-separated rows.
Floats are written with ``repr`` (shortest exact round trip), and a report
holds no clock reading, so reports are byte-reproducible.
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
MODEL_VERSION = 10


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _each(convert):
    """``convert`` applied to each entry of a list."""
    def convert_each(values) -> list:
        if not isinstance(values, (list, tuple)):
            raise TypeError("must be a list")
        return [convert(v) for v in values]
    return convert_each


def _shape_of(a: np.ndarray) -> dict:
    return {"shape": list(a.shape)}


def _int_list(values) -> list:
    return [int(v) for v in values]


def _float_list(values) -> list:
    return [float(v) for v in values]


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
# labels are held as 64-bit integers, as the manifest reads them
_labels = _list_of(lambda v: _is_int(v) and -2**63 <= v < 2**63, "64-bit integers")


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


def _decode_config(blob) -> TrainingConfig:
    decoders = {f.name: _config_value(f.name) for f in fields(TrainingConfig)}
    return TrainingConfig(**_decode_object(blob, decoders))


# each header key but the arrays', named after the model field it stores,
# with the writer of its JSON value and the checked reader of that value
_FIELDS = {
    "kind": (str, _known_kind),
    "sample_shape": (_int_list, _counts),
    "gallery_labels": (_int_list, lambda value: np.array(_labels(value), np.int64)),
    "hosvd_ranks": (_optional(_int_list), _optional(_counts)),
    "mode_energy": (_optional(_float_list), _optional(_floats)),
    "objective_trace": (_float_list, _floats),
    "subspace_change_trace": (_float_list, _floats),
    "config": (_optional(asdict), _optional(_decode_config)),
    "warnings": (list, _list_of(lambda w: isinstance(w, str), "strings")),
}

# the array keys, in the order their buffers follow the header, each with
# how a function of one array applies to the key's value: to each array of a
# list, or to the one array
_PAYLOAD = {"combined": _each, "gallery": lambda convert: convert}

# an array's key holds its shape, which ``_read_payload`` swaps for the array
_FIELDS.update((key, (lift(_shape_of), lift(_decode_shape))) for key, lift in _PAYLOAD.items())


def model_header(model: GdaModel) -> str:
    """The deterministic JSON header line of a model file, without its
    newline; the arrays in it are shapes only."""
    document = {key: encode(getattr(model, key)) for key, (encode, _) in _FIELDS.items()}
    document.update(format=MODEL_FORMAT, version=MODEL_VERSION)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _payload(values: dict) -> list:
    """The arrays under the array keys of ``values`` (of decoded header
    values, their shapes) in payload order."""
    arrays = []
    for key, lift in _PAYLOAD.items():
        lift(arrays.append)(values[key])
    return arrays


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
    need = sum(8 * math.prod(shape) for shape in _payload(values))
    have = os.fstat(handle.fileno()).st_size - handle.tell()
    if need != have:
        raise ValueError(f"the header's arrays take {need} bytes, {have} follow it")
    read = partial(_read_array, handle)
    for key, lift in _PAYLOAD.items():
        try:
            values[key] = lift(read)(values[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None


def _check_consistency(model: GdaModel) -> None:
    """Projectors and gallery must fit ``sample_shape``."""
    rows = [math.prod(model.sample_shape)] if model.vectorized else list(model.sample_shape)
    got = [p.shape[0] if p.ndim == 2 else None for p in model.combined]
    if got != rows:
        raise ValueError(f"combined: projector rows {got} do not fit sample_shape "
                         f"{list(model.sample_shape)}")
    gallery_shape = (len(model.gallery_labels), math.prod(model.projected_shape))
    if model.gallery.shape != gallery_shape:
        raise ValueError(f"gallery: shape {model.gallery.shape}, expected {gallery_shape}")


def write_file(path, chunks) -> None:
    """Write the byte strings ``chunks`` to the file ``path``, in order.
    A file that cannot be opened fails with ``open``'s error, which names
    it; a write or flush that fails, say on a full disk, names no file, so
    it raises a ``DatasetError`` that names ``path``."""
    handle = open(path, "wb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
    except OSError as exc:
        raise DatasetError(f"cannot write {os.fspath(path)}: {exc.strerror or exc}") from exc


def save_model(model: GdaModel, path) -> None:
    """Write ``model`` as one header line and its arrays' bytes, each array
    passed to the file as the buffer it is, with no copy."""
    arrays = (np.ascontiguousarray(a, "<f8").data for a in _payload(vars(model)))
    write_file(path, [model_header(model).encode("ascii") + b"\n", *arrays])


def _read_model(handle, path) -> GdaModel:
    try:  # a header never holds a raw newline: JSON escapes it in strings
        document = json.loads(handle.readline().decode("ascii"))
    except ValueError as exc:  # bad JSON or non-ASCII bytes
        raise DatasetError(f"cannot load model from {path}: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != MODEL_FORMAT:
        raise DatasetError(f"{path} is not a {MODEL_FORMAT} file")
    version = document.get("version")
    if not _is_int(version) or version != MODEL_VERSION:
        raise DatasetError(f"{path} has model version {version!r}, expected {MODEL_VERSION}")
    try:
        decoders = {key: decode for key, (_, decode) in _FIELDS.items()}
        values = _decode_object(document, decoders, ("format", "version"))
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


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return str(value)


def format_report(name: str, pairs: dict, sections) -> str:
    """The text of a ``# tensorgda <name> report v1``: one ``key = value``
    line for each entry of ``pairs`` whose value is not None, then for each
    ``(section, rows)`` of ``sections`` a ``[section]`` line and one line per
    row, its cells tab-separated.  A float is written with ``repr``, a tuple
    (a shape) as its entries joined by ``x``, anything else with ``str``."""
    lines = [f"# tensorgda {name} report v1"]
    lines += [f"{key} = {_cell(value)}" for key, value in pairs.items() if value is not None]
    for section, rows in sections:
        lines.append(f"[{section}]")
        lines += ["\t".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_text(report: ExperimentReport) -> str:
    """Canonical text form of a report.

    Field names are stable.  Every value is deterministic given the data,
    config and seed, so equal runs write equal text.
    """
    trials = zip(report.trial_accuracies, report.per_trial_dims, report.compression_fractions)
    return format_report("experiment", {
        "protocol": report.protocol,
        "method": report.method,
        "seed": report.seed,
        "train_per_class": report.train_per_class,
        "trials": len(report.trial_accuracies),
        "mean_accuracy": report.mean_accuracy,
        "macro_accuracy": report.macro_accuracy,
        "classes": " ".join(str(c) for c in report.classes),
    }, [
        ("trials", [
            ["index", "accuracy", "dims", "compression_fraction"],
            *([i, *trial] for i, trial in enumerate(trials)),
        ]),
        ("confusion", ([c, *row] for c, row in zip(report.classes, report.confusion))),
        ("test_counts", zip(report.classes, report.test_counts)),
        *((f"objective_trace {i}", [[" ".join(_cell(float(v)) for v in trace)]])
          for i, trace in enumerate(report.objective_traces) if trace),
    ])


def save_report(report: ExperimentReport, path) -> None:
    write_file(path, [report_to_text(report).encode("utf-8")])
