"""Dataset ingestion: PGM images, frame sequences, manifests, synthesis.

Supported image format is portable graymap only, plain P2 or binary P5 with
maxval up to 255; ``save_pgm`` writes P5 only.  Header fields and plain
pixels are unsigned decimal digits, and a ``#`` comment runs to the end of
its line.  In a P5 header, comments may follow the maxval directly, each
running through its newline; exactly one whitespace byte then ends the
header, and any other byte there is an error.  File pixels are row-major;
``load_image`` returns an ``H x W`` matrix indexed (row, column).  A frame
directory becomes an ``H x W x T`` tensor: its files, symlinks followed,
stacked in lexicographic filename order.  Entries that are not files, such
as subdirectories, are skipped.  Every stack built here is held with its
last axis outermost in memory, so each frame of a sequence and each sample
of a set is written as one contiguous block (see ``LabeledTensorSet``).

A manifest is a line-oriented text file: one ``path<TAB>label[<TAB>subject]``
entry per line, ``#`` comments, and optional ``@key value`` directives
(``@frames`` for the expected sequence length, ``@trim-seed`` to delete
surplus frames deterministically).  Paths are resolved against the manifest's
directory.  Labels and directive integers are ASCII decimal digits after at
most one leading ``-``.  :func:`save_dataset` writes a set in this format.
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import re
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DatasetError, DimensionError, PgmParseError
from .model_io import write_file
from .training import LabeledTensorSet

# one token after a run of separators: whitespace, and ``#`` comments that
# each run to the end of their line.  Matched at a position, never searched,
# and no separator can be read two ways, so each byte is scanned once.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]*)")
# the comments a P5 header may hold between its maxval and the whitespace
# byte that ends it, each again running to the end of its line
_MAXVAL_COMMENTS = re.compile(rb"(?:#[^\n]*(?:\n|\Z))*")
# the bytes ``\s`` matches in a bytes pattern
_WHITESPACE = b" \t\n\r\f\v"
# how much of a bad token an error message quotes
_ECHO_BYTES = 32
# bytes asked of each read of a graymap file: a whole frame in one read
_READ_BYTES = 1 << 16


def _unsigned(payload: bytes, end: int, names) -> tuple:
    """The tokens after offset ``end`` read as unsigned decimal ints, one per
    entry of ``names`` (which names them in errors), and the offset just
    past the last."""
    values = []
    for what in names:
        match = _TOKEN.match(payload, end)
        raw, end = match[1], match.end()
        if not raw.isdigit():  # ASCII digits only: no sign, underscore or space
            if not raw:
                problem = "unexpected end of file"
            elif len(raw) > _ECHO_BYTES:
                problem = f"invalid {what} {raw[:_ECHO_BYTES]!r}... ({len(raw)} bytes)"
            else:
                problem = f"invalid {what} {raw!r}"
            raise PgmParseError(problem, match.start(1))
        try:
            values.append(int(raw))
        except ValueError:  # more digits than int() converts
            raise PgmParseError(f"invalid {what}: {len(raw)} digits", match.start(1)) from None
    return values, end


def _scan_header(payload: bytes) -> tuple:
    """``(magic, width, height, maxval, end)`` of a graymap's checked header:
    ``end`` is the offset just past the maxval of a P2, and just past the
    whitespace byte that ends the header of a P5, where its raster starts."""
    match = _TOKEN.match(payload)
    magic, end = match[1], match.end()
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r}", 0)
    (width, height, maxval), end = _unsigned(payload, end, ("width", "height", "maxval"))
    if width == 0 or height == 0:
        raise PgmParseError(f"invalid dimensions {width}x{height}", end)
    if not 0 < maxval <= 255:
        raise PgmParseError(f"maxval {maxval} outside 1..255", end)
    if magic == b"P5":
        # comments right after the maxval, then one whitespace byte
        end = _MAXVAL_COMMENTS.match(payload, end).end()
        if end >= len(payload):
            raise PgmParseError("missing raster", end)
        if payload[end] not in _WHITESPACE:
            raise PgmParseError(
                f"expected whitespace before the raster, got {payload[end:end + 1]!r}", end
            )
        end += 1
    return magic, width, height, maxval, end


# the header bytes of the last P5 graymap parsed, through the whitespace
# byte that ends it, and its (width, height, maxval).  The frames of a
# sequence share one header, and a header's scan reads none of the bytes
# after it, so a payload that starts with these bytes skips the scan.
_last_p5 = (None, 0, 0, 0)


def parse_pgm(payload: bytes) -> np.ndarray:
    """Decode PGM bytes into an ``H x W`` float matrix of 0..maxval values."""
    global _last_p5
    header, width, height, maxval = _last_p5
    if header is not None and payload.startswith(header):
        magic, end = b"P5", len(header)
    else:
        magic, width, height, maxval, end = _scan_header(payload)
        if magic == b"P5":
            _last_p5 = (bytes(payload[:end]), width, height, maxval)
    count = width * height

    if magic == b"P5":
        raster = payload[end : end + count]
        end += len(raster)
        if len(raster) < count:
            raise PgmParseError(f"raster truncated: {len(raster)} of {count} bytes", end)
        pixels = np.frombuffer(raster, dtype=np.uint8)
    else:
        # token by token, so a header larger than the file fails at its end,
        # not at an allocation; numpy keeps a pixel beyond int64 as a Python
        # int or a float, either of which the maxval check still compares
        pixels, end = _unsigned(payload, end, itertools.repeat("pixel", count))
        pixels = np.array(pixels)
    # no byte of a P5 raster exceeds a maxval of 255
    if (magic == b"P2" or maxval < 255) and pixels.max() > maxval:
        raise PgmParseError("pixel exceeds declared maxval", end)
    return pixels.astype(np.float64).reshape(height, width)


def _read_file(path) -> bytes:
    """The bytes of the file at ``path``, read to its end through a bare
    descriptor, with no file object; errors are ``open``'s."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_BYTES):
            chunks.append(chunk)
    except IsADirectoryError as exc:  # a directory opens, and its read names no file
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def load_image(path) -> np.ndarray:
    """Load a P2/P5 graymap file as an ``H x W`` matrix."""
    path = os.fspath(path)  # a str or bytes path, never a file descriptor
    try:
        payload = _read_file(path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_pgm(payload)
    except PgmParseError as exc:
        raise PgmParseError(f"{path}: {exc.message}", exc.offset) from None


def save_pgm(path, matrix: np.ndarray) -> None:
    """Write an integer-valued matrix in 0..255 as a P5 graymap."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {matrix.shape}")
    rounded = np.rint(matrix)
    if np.any(rounded != matrix) or matrix.min() < 0 or matrix.max() > 255:
        raise DatasetError("pixel values must be integers in 0..255")
    height, width = matrix.shape
    write_file(path, [f"P5\n{width} {height}\n255\n".encode("ascii"),
                      rounded.astype(np.uint8).tobytes(order="C")])


def save_sample(directory, stem: str, sample: np.ndarray) -> str:
    """Write one sample into ``directory`` the way :func:`load_manifest`
    reads it back, and return its manifest path: an order-2 sample as the
    graymap ``stem.pgm``, an order-3 sample as the frame directory ``stem``
    of ``frame_000.pgm``, ... along its last axis, creating ``directory``
    as needed.  Any other order is rejected before anything is created."""
    sample = np.asarray(sample)
    if sample.ndim not in (2, 3):
        raise ConfigurationError(
            f"sample files hold order-2 or order-3 samples, got order {sample.ndim}"
        )
    directory = Path(directory)
    if sample.ndim == 2:
        directory.mkdir(parents=True, exist_ok=True)
        save_pgm(directory / f"{stem}.pgm", sample)
        return f"{stem}.pgm"
    (directory / stem).mkdir(parents=True, exist_ok=True)
    for t in range(sample.shape[-1]):
        save_pgm(directory / stem / f"frame_{t:03d}.pgm", sample[..., t])
    return stem


# the errors ``pathlib`` reads as no such entry: a missing or dangling
# path, a file where a directory should be, and a symlink loop
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _is_frame(entry: os.DirEntry) -> bool:
    """Whether a directory entry is a file, symlinks followed, as
    ``Path.is_file`` answers it."""
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in _ABSENT:
            return False
        raise


def load_sequence(directory, expected_t: int | None = None, seed: int | None = None) -> np.ndarray:
    """Stack a directory of equal-size frames into an ``H x W x T`` tensor,
    the ``np.moveaxis`` view of a ``T x H x W`` array: each frame one
    contiguous block.

    Frames are the directory's files, symlinks followed; other entries are
    skipped.  They load in lexicographic filename order, one
    :func:`load_image` call each.  When
    ``expected_t`` is given, surplus frames are deleted via
    :func:`trim_to_length` (requires ``seed``); too few frames is an error.
    """
    directory = Path(directory)
    try:
        with os.scandir(directory) as entries:
            names = sorted(entry.name for entry in entries if _is_frame(entry))
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if isinstance(exc, OSError) and exc.errno not in _ABSENT:
            raise
        raise DatasetError(f"{directory} is not a directory") from None
    if not names:
        raise DatasetError(f"{directory} contains no frames")
    prefix = os.path.join(directory, "")
    frames = None  # (T, H, W): each frame one contiguous block
    for t, name in enumerate(names):
        frame = load_image(prefix + name)
        if frames is None:
            frames = np.empty((len(names),) + frame.shape)
        elif frame.shape != frames.shape[1:]:
            raise DatasetError(
                f"frame {prefix}{name} has size {frame.shape}, expected {frames.shape[1:]}"
            )
        frames[t] = frame
    sequence = np.moveaxis(frames, 0, -1)
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
    if t < 1:
        raise DimensionError(f"cannot trim to {t} frames: the length must be at least 1")
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
        raise ConfigurationError("need at least one class and one sample per class")
    if not (math.isfinite(class_separation) and math.isfinite(noise)):
        raise ConfigurationError(
            f"class separation and noise must be finite, got {class_separation!r} and {noise!r}"
        )
    shape = tuple(int(s) for s in shape)
    rng = np.random.default_rng(seed)
    samples = np.empty((n_classes * per_class,) + shape)
    for c in range(n_classes):
        center = class_separation * rng.standard_normal(shape)
        for s in range(per_class):
            samples[c * per_class + s] = center + noise * rng.standard_normal(shape)
    labels = np.repeat(np.arange(1, n_classes + 1), per_class)
    return LabeledTensorSet(
        np.moveaxis(samples, 0, -1), labels, np.tile(np.arange(1, per_class + 1), n_classes)
    )


# a manifest integer, by the graymap's digit rule plus an optional minus
_INTEGER = re.compile(r"-?[0-9]+")


def _manifest_int(text: str) -> int:
    """``text`` as an integer: ASCII digits after at most one leading ``-``,
    so no ``+``, underscore or space; ``ValueError`` otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _directive_int(path, lineno: int, key: str, value: str) -> int:
    try:
        return _manifest_int(value)
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
                if frames < 1:
                    raise DatasetError(f"{path}:{lineno}: @{key} {value!r} is not positive")
            elif key in ("trim-seed", "trim_seed"):
                trim_seed = _directive_int(path, lineno, key, value)
                if trim_seed < 0:
                    raise DatasetError(f"{path}:{lineno}: @{key} {value!r} is negative")
            elif key == "root":
                root = Path(value) if os.path.isabs(value) else path.parent / value
            else:
                raise DatasetError(f"{path}:{lineno}: unknown directive @{key}")
            continue
        fields = line.split("\t")
        if not 2 <= len(fields) <= 3:
            raise DatasetError(
                f"{path}:{lineno}: expected path<TAB>label[<TAB>subject]"
            )
        entry_path = root / fields[0]
        try:
            label = _manifest_int(fields[1])
            np.int64(label)  # labels are held as 64-bit integers
        except (ValueError, OverflowError):
            raise DatasetError(
                f"{path}:{lineno}: label {fields[1]!r} is not a 64-bit integer"
            ) from None
        subject = fields[2] if len(fields) > 2 else None
        entries.append((lineno, entry_path, label, subject))
    if not entries:
        raise DatasetError(f"manifest {path} lists no samples")

    samples = None  # (m,) + sample_shape: each sample one contiguous block
    for i, (lineno, entry_path, _, _) in enumerate(entries):
        if entry_path.is_dir():
            sample = load_sequence(entry_path, expected_t=frames, seed=trim_seed)
        else:
            sample = load_image(entry_path)
        if samples is None:
            samples = np.empty((len(entries),) + sample.shape)
        elif sample.shape != samples.shape[1:]:
            raise DatasetError(
                f"{path}:{lineno}: sample {entry_path} has shape {sample.shape}, "
                f"expected {samples.shape[1:]}"
            )
        samples[i] = sample
    _, _, labels, subjects = zip(*entries)
    have_subjects = any(s is not None for s in subjects)
    if have_subjects and not all(s is not None for s in subjects):
        raise DatasetError(f"manifest {path} mixes entries with and without subjects")
    return LabeledTensorSet(np.moveaxis(samples, 0, -1), labels,
                            subjects if have_subjects else None)


def save_dataset(data: LabeledTensorSet, directory) -> Path:
    """Write ``data`` as :func:`load_manifest` reads it and return its
    ``manifest.tsv``: values scaled from the set's min..max to 0..255 and
    rounded, one :func:`save_sample` file per sample, listed in order."""
    directory = Path(directory)
    lo = float(data.samples.min())
    hi = float(data.samples.max())
    scale = 255.0 / (hi - lo) if hi > lo else 1.0
    quantized = np.clip(np.rint((data.samples - lo) * scale), 0, 255)
    lines = ["# generated synthetic dataset"]
    if data.order == 3:
        lines.append(f"@frames {data.sample_shape[-1]}")
    for i in range(data.n_samples):
        name = save_sample(directory, f"sample_{i:04d}", quantized[..., i])
        subject = "" if data.subjects is None else f"\t{data.subjects[i]}"
        lines.append(f"{name}\t{data.labels[i]}{subject}")
    manifest = directory / "manifest.tsv"
    write_file(manifest, [("\n".join(lines) + "\n").encode("utf-8")])
    return manifest
