"""Dataset ingestion: PGM images, frame sequences, manifests, synthesis.

Supported image format is portable graymap only, plain P2 or binary P5 with
maxval up to 255.  File pixels are row-major; ``load_image`` returns an
``H x W`` matrix indexed (row, column).  A frame directory becomes an
``H x W x T`` tensor with frames stacked in lexicographic filename order.

A manifest is a line-oriented text file: one ``path<TAB>label[<TAB>subject]``
entry per line, ``#`` comments, and optional ``@key value`` directives
(``@frames`` for the expected sequence length, ``@trim-seed`` to delete
surplus frames deterministically).  Paths are resolved against the manifest's
directory.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import DatasetError, DimensionError, PgmParseError
from .training import LabeledTensorSet

_WHITESPACE = b" \t\r\n\v\f"


class _PgmScanner:
    """Token scanner over PGM header/ASCII sections, tracking byte offsets."""

    def __init__(self, payload: bytes):
        self.payload = payload
        self.pos = 0

    def skip_separators(self) -> None:
        while self.pos < len(self.payload):
            byte = self.payload[self.pos]
            if byte == ord("#"):
                newline = self.payload.find(b"\n", self.pos)
                self.pos = len(self.payload) if newline < 0 else newline + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.payload):
            raise PgmParseError("unexpected end of file", self.pos)
        start = self.pos
        while (
            self.pos < len(self.payload)
            and self.payload[self.pos] not in _WHITESPACE
            and self.payload[self.pos] != ord("#")
        ):
            self.pos += 1
        return self.payload[start : self.pos]

    def integer(self, what: str) -> int:
        self.skip_separators()
        start = self.pos
        raw = self.token()
        try:
            return int(raw)
        except ValueError:
            raise PgmParseError(f"invalid {what} {raw!r}", start) from None


def parse_pgm(payload: bytes) -> np.ndarray:
    """Decode PGM bytes into an ``H x W`` float matrix of 0..maxval values."""
    scanner = _PgmScanner(payload)
    magic = scanner.token()
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r}", 0)
    width = scanner.integer("width")
    height = scanner.integer("height")
    maxval = scanner.integer("maxval")
    if width <= 0 or height <= 0:
        raise PgmParseError(f"invalid dimensions {width}x{height}", scanner.pos)
    if not 0 < maxval <= 255:
        raise PgmParseError(f"maxval {maxval} outside 1..255", scanner.pos)
    count = width * height

    if magic == b"P5":
        if scanner.pos >= len(payload):
            raise PgmParseError("missing raster", scanner.pos)
        scanner.pos += 1  # single whitespace byte after maxval
        raster = payload[scanner.pos : scanner.pos + count]
        if len(raster) < count:
            raise PgmParseError(
                f"raster truncated: {len(raster)} of {count} bytes",
                scanner.pos + len(raster),
            )
        pixels = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i] = scanner.integer("pixel")
        pixels = values
    pixels = np.asarray(pixels, dtype=np.float64)
    if np.any(pixels > maxval):
        raise PgmParseError("pixel exceeds declared maxval", scanner.pos)
    return pixels.reshape(height, width)


def load_image(path) -> np.ndarray:
    """Load a P2/P5 graymap file as an ``H x W`` matrix."""
    path = Path(path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_pgm(payload)
    except PgmParseError as exc:
        raise PgmParseError(f"{path}: {exc.message}", exc.offset) from None


def save_pgm(path, matrix: np.ndarray, binary: bool = True) -> None:
    """Write an integer-valued matrix in 0..255 as a P5 (or P2) graymap."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {matrix.shape}")
    rounded = np.rint(matrix)
    if np.any(rounded != matrix) or matrix.min() < 0 or matrix.max() > 255:
        raise DatasetError("pixel values must be integers in 0..255")
    height, width = matrix.shape
    pixels = rounded.astype(np.uint8)
    with open(path, "wb") as handle:
        if binary:
            handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            handle.write(pixels.tobytes(order="C"))
        else:
            handle.write(f"P2\n{width} {height}\n255\n".encode("ascii"))
            for row in pixels:
                handle.write((" ".join(str(int(v)) for v in row) + "\n").encode("ascii"))


def load_sequence(directory, expected_t: int | None = None, seed: int | None = None) -> np.ndarray:
    """Stack a directory of equal-size frames into an ``H x W x T`` tensor.

    Frames load in lexicographic filename order.  When ``expected_t`` is
    given, surplus frames are deleted via :func:`trim_to_length` (requires
    ``seed``); too few frames is an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory} is not a directory")
    names = sorted(p.name for p in directory.iterdir() if p.is_file())
    if not names:
        raise DatasetError(f"{directory} contains no frames")
    frames = []
    shape = None
    for name in names:
        frame = load_image(directory / name)
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise DatasetError(
                f"frame {directory / name} has size {frame.shape}, expected {shape}"
            )
        frames.append(frame)
    sequence = np.stack(frames, axis=2)
    if expected_t is not None:
        t = sequence.shape[2]
        if t < expected_t:
            raise DatasetError(
                f"{directory} holds {t} frames, fewer than the expected {expected_t}"
            )
        if t > expected_t:
            if seed is None:
                raise DatasetError(
                    f"{directory} holds {t} frames, more than {expected_t}; "
                    "provide a trim seed or pre-trim the sequence"
                )
            sequence = trim_to_length(sequence, expected_t, seed)
    return sequence


def trim_to_length(sequence: np.ndarray, t: int, seed: int) -> np.ndarray:
    """Delete surplus frames (last axis), chosen by a seeded generator,
    keeping the survivors in their original order."""
    sequence = np.asarray(sequence, dtype=np.float64)
    current = sequence.shape[-1]
    if current < t:
        raise DimensionError(f"cannot trim {current} frames down to {t}")
    if current == t:
        return sequence
    rng = np.random.default_rng(seed)
    doomed = set(rng.choice(current, size=current - t, replace=False).tolist())
    keep = [i for i in range(current) if i not in doomed]
    return sequence[..., keep]


def synth_gaussian_classes(
    n_classes: int,
    per_class: int,
    shape,
    class_separation: float,
    noise: float,
    seed: int = 0,
) -> LabeledTensorSet:
    """Gaussian blobs in tensor space for desk-scale benchmarks.

    Each class draws one mean tensor (standard normal scaled by
    ``class_separation``); samples add independent noise of the given
    amplitude.  Labels are 1..C; subjects number the samples within each
    class 1..per_class, giving a leave-one-out-friendly structure where
    every subject appears once per class.
    """
    if n_classes < 1 or per_class < 1:
        raise DatasetError("need at least one class and one sample per class")
    shape = tuple(int(s) for s in shape)
    rng = np.random.default_rng(seed)
    samples = []
    labels = []
    subjects = []
    for c in range(1, n_classes + 1):
        center = class_separation * rng.standard_normal(shape)
        for s in range(1, per_class + 1):
            samples.append(center + noise * rng.standard_normal(shape))
            labels.append(c)
            subjects.append(s)
    return LabeledTensorSet.from_samples(samples, labels, subjects)


def _directive_int(path, lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DatasetError(f"{path}:{lineno}: @{key} {value!r} is not an integer") from None


def load_manifest(path) -> LabeledTensorSet:
    """Load a manifest of image files and/or frame directories."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from exc
    root = path.parent
    frames = None
    trim_seed = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise DatasetError(f"{path}:{lineno}: malformed directive {line!r}")
            key, value = parts[0].lower(), parts[1].strip()
            if key == "frames":
                frames = _directive_int(path, lineno, key, value)
            elif key in ("trim-seed", "trim_seed"):
                trim_seed = _directive_int(path, lineno, key, value)
            elif key == "root":
                root = Path(value) if os.path.isabs(value) else path.parent / value
            else:
                raise DatasetError(f"{path}:{lineno}: unknown directive @{key}")
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise DatasetError(
                f"{path}:{lineno}: expected path<TAB>label[<TAB>subject]"
            )
        entry_path = root / fields[0]
        try:
            label = int(fields[1])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: label {fields[1]!r} is not an integer")
        subject = fields[2] if len(fields) > 2 else None
        entries.append((lineno, entry_path, label, subject))
    if not entries:
        raise DatasetError(f"manifest {path} lists no samples")

    samples = []
    labels = []
    subjects = []
    shape = None
    for lineno, entry_path, label, subject in entries:
        if entry_path.is_dir():
            sample = load_sequence(entry_path, expected_t=frames, seed=trim_seed)
        else:
            sample = load_image(entry_path)
        if shape is None:
            shape = sample.shape
        elif sample.shape != shape:
            raise DatasetError(
                f"{path}:{lineno}: sample {entry_path} has shape {sample.shape}, "
                f"expected {shape}"
            )
        samples.append(sample)
        labels.append(label)
        subjects.append(subject)
    have_subjects = any(s is not None for s in subjects)
    if have_subjects and not all(s is not None for s in subjects):
        raise DatasetError(f"manifest {path} mixes entries with and without subjects")
    return LabeledTensorSet.from_samples(
        samples, labels, subjects if have_subjects else None
    )
