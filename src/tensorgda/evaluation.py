"""Classification of projected samples and the two evaluation protocols.

Classification is nearest neighbor under the tensor Frobenius distance in
the projected space; ties go to the lowest gallery index.  Protocols:
seeded random per-class splits ("train-m" style) averaged over trials, and
subject-wise leave-one-out.  Splits depend only on (seed, trial, labels), so
different methods evaluated with the same seed see identical splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import training
from .errors import ConfigurationError, DatasetError
from .hosvd import hopca_compression_fraction
from .training import (
    GdaModel,
    LabeledTensorSet,
    TrainingConfig,
    train_fisherface,
    train_gda,
    train_hopca,
    train_mda,
    train_pca,
)

_TRAINERS = {
    "gda": train_gda,
    "mda": train_mda,
    "hopca": train_hopca,
    "pca": train_pca,
    "fisherface": train_fisherface,
}
METHODS = tuple(_TRAINERS)


def train_method(method: str, data: LabeledTensorSet, config: TrainingConfig) -> GdaModel:
    """Dispatch one of the named methods on a training set."""
    if method not in _TRAINERS:
        raise ConfigurationError(f"unknown method {method!r}; choose from {METHODS}")
    return _TRAINERS[method](data, config)


def classify(model: GdaModel, x: np.ndarray):
    """Nearest-neighbor label of one sample: :func:`classify_many` on a
    stack of one.

    Returns ``(label, best_index, distance)``.  The distance comes from a
    float64 direct difference after a float32 GEMM screen, so a query equal
    to a gallery sample lands at exactly 0.0, and equidistant entries
    resolve to the lowest index.  Its bits equal those :func:`classify_many` returns for
    the same sample in any batch.
    """
    labels, indices, distances = classify_many(model, np.asarray(x)[..., None])
    return labels[0], int(indices[0]), float(distances[0])


_EPS32 = float(np.finfo(np.float32).eps)
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)
_MAX32 = float(np.finfo(np.float32).max)


def classify_many(model: GdaModel, samples: np.ndarray):
    """Nearest-neighbor labels of a stack of samples (sample axis last).

    Returns ``(labels, indices, distances)`` with one entry per sample.  A
    distance is ``sqrt(sum((g - z)**2))`` by direct difference of the
    projected query ``z`` and the gallery entry ``g`` in float64, so a query
    equal to a gallery sample lands at exactly 0.0.  Among equal returned
    distances the lowest gallery index wins.  A returned distance depends
    only on ``(z, g)``, never on the other queries or entries, so its bits
    do not depend on how the samples are batched.

    Only a few entries are computed directly.  The stack is projected by one
    :meth:`GdaModel.project` call, exactly as the gallery was, each query
    one row flattened in C order like the gallery's, and each block of
    query rows is screened against every gallery row at once by one float32
    GEMM about the row mean ``mu``: ``a_j = |g_j - mu|^2 - 2 fl32(z - mu) .
    fl32(g_j - mu)``, with the norm and the subtraction in float64, which is
    ``|z - g_j|^2 - |z - mu|^2`` up to rounding (the expansion used by exact
    brute-force k-NN, Johnson, Douze & Jegou, IEEE Trans. Big Data 2019; a
    low-precision screen with a high-precision check as in Higham & Mary,
    Acta Numerica 2022).  Centring scales the rounding by the gallery's
    spread, not by its offset from the origin.  The candidates are the
    entries with ``a_j <= min(a) + slack``, the slack taken per query from
    the scalars ``|z - mu|^2`` and ``min(a)``; their contiguous gallery rows
    are recomputed directly.

    Why no excluded entry can equal or beat the winner.  Let ``x = z - mu``
    and ``y_j = g_j - mu`` exactly, so ``delta_j = |z - g_j|^2 = |x - y_j|^2``
    whatever ``mu`` is.  Let ``d <= 2^22`` be the projected size, ``u`` and
    ``v = eps32/2`` the float64 and float32 unit roundoffs, ``g_k = k*v/(1 -
    k*v)`` and ``M' = |x|^2 + max_j |y_j|^2``, so ``2|x||y_j| <= M'`` and
    ``delta_j <= 2M'``.  To first order:

    - the cached norm sums ``d`` squares of rounded differences: it is
      within ``(d + 2) u M'`` of ``|y_j|^2``;
    - each float32 operand is its exact value rounded twice, by the float64
      centring and by the cast, so each product is off by ``2(u + v)``
      relative; by the dot-product bound (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., section 3.1), which holds for any
      summation order and so for any BLAS thread count, the float32 sum
      adds ``g_d`` times ``sum_i |x_i y_ji| <= M'/2``; doubled, the product
      is within ``(d + 2) v M' + 2u M'`` of ``2 x.y_j``;
    - a cast that underflows is off by up to ``eta32/2``, with ``eta32``
      the smallest float32 subnormal; against the other operand and doubled
      that is at most ``eta32 sqrt(2 d M') <= 2v M' + d eta32^2/(4v)``, and each
      float32 product that underflows adds ``eta32/2``, ``d eta32`` doubled;
    - the float64 subtraction adds ``2u M'``.

    So ``|a_j - (delta_j - |x|^2)| <= (d + 4) v M' + (d + 6) u M' + d eta32``.
    The direct sum adds ``d`` nonnegative terms, each within three float64
    roundings, so it is within ``2 (d + 2) u M'`` of ``delta_j``.  Let ``k``
    be the screen's argmin.  An excluded ``e`` then has a direct sum above
    ``k``'s by more than the slack less twice each bound, and a margin of
    ``8u * 2M'`` on top makes the correctly rounded ``sqrt`` of ``e``'s
    strictly larger; rounding ``min(a) + slack`` costs another ``2u M'``.
    The sum is ``(2d + 8) v M' + (6d + 38) u M' + 2d eta32``.  The slack
    ``2 (d + 4) (eps32 M' + eta32)`` is ``(4d + 16) v M' + (2d + 8) eta32``,
    twice the float32 part, which covers the float64 terms (``u = 2^-29
    v``), the higher-order ones and the rounding of ``M'`` itself; its
    ``eta32`` term covers ``2d eta32``, the ``eta32^2`` term and float64
    underflow.  So every excluded entry is strictly farther than ``k``, and
    ``k`` is a candidate.  When ``4M'`` is below float32's largest value,
    every float32 operand, product and partial sum is below it too.

    A query whose screen minimum is not finite, or whose ``4M'`` is not below
    float32's largest value (a NaN or inf query, an entry or query too far
    from ``mu`` for float32), is answered by the full direct scan instead.
    """
    if model.gallery.size == 0:
        raise DatasetError("model has an empty gallery")
    gallery, (mean, sq_norms, max_sq_norm, rows32) = model.gallery, model.screen
    projected = model.project(samples)
    slack_factor = 2.0 * (gallery.shape[1] + 4)
    indices = np.empty(len(projected), dtype=np.intp)
    distances = np.empty(len(projected))
    # each of a block's float64 transients, its centred rows (d wide) and its
    # screen lines (n wide), stays within _PROJECT_BYTES
    step = max(1, training._PROJECT_BYTES // (8 * max(gallery.shape)))
    for start in range(0, len(projected), step):
        queries = projected[start : start + step]
        # a query or entry beyond float32's range fails the bound below,
        # and then its screen row is never read
        with np.errstate(over="ignore", invalid="ignore"):
            centred = queries - mean
            screen = sq_norms - 2.0 * (centred.astype(np.float32) @ rows32.T)
            for row, (z, x, line) in enumerate(zip(queries, centred, screen), start):
                smallest, scale = float(line.min()), float(x @ x) + max_sq_norm
                if math.isfinite(smallest) and scale < _MAX32 / 4:
                    slack = slack_factor * (_EPS32 * scale + _ETA32)
                    candidates = (line <= smallest + slack).nonzero()[0]
                else:
                    candidates = np.arange(len(gallery))
                indices[row], distances[row] = _nearest(gallery, z, candidates)
    return model.gallery_labels[indices], indices, distances


def _nearest(gallery: np.ndarray, z: np.ndarray, candidates: np.ndarray):
    """``(index, distance)`` of the direct-difference nearest candidate row
    of ``gallery``; the lowest index wins among equal distances.  Each
    distance is one contiguous row reduction, so it depends only on
    ``(z, g_j)``."""
    deltas = gallery[candidates] - z
    distances = np.sqrt(np.add.reduce(np.square(deltas, out=deltas), axis=1))
    best = int(distances.argmin())
    return candidates[best], distances[best]


@dataclass
class ExperimentReport:
    """Results of one evaluation run.

    ``trial_accuracies`` holds one entry per trial (split protocol) or per
    held-out subject (leave-one-out).  ``mean_accuracy`` is the headline
    figure: the trial mean for splits, the per-sample (micro) accuracy for
    leave-one-out, where ``macro_accuracy`` additionally averages the
    per-subject accuracies.  The confusion matrix aggregates all trials;
    its rows (true classes, sorted) sum to ``test_counts``.  ``warnings``
    holds each fold's model warnings, one tuple per fold; the report text
    leaves them out.  Every field is deterministic given the data, config
    and seed; none is a clock reading.
    """

    protocol: str
    method: str
    seed: int
    classes: tuple
    trial_accuracies: tuple
    mean_accuracy: float
    macro_accuracy: float | None
    confusion: np.ndarray
    per_trial_dims: tuple
    compression_fractions: tuple
    objective_traces: tuple
    warnings: tuple
    train_per_class: int | None = None

    @property
    def test_counts(self) -> tuple:
        """Test samples per class: the row sums of ``confusion``."""
        return tuple(int(x) for x in self.confusion.sum(axis=1))


def _count_correct(model: GdaModel, test: LabeledTensorSet, classes, confusion) -> int:
    predictions, _, _ = classify_many(model, test.samples)
    cells = np.searchsorted(classes, test.labels), np.searchsorted(classes, predictions)
    np.add.at(confusion, cells, 1)
    return int(np.count_nonzero(predictions == test.labels))


def split_indices(data: LabeledTensorSet, train_per_class: int, seed: int, trial: int):
    """Seeded per-class split; returns (train, test) index arrays.

    Depends only on the labels, seed, and trial number, never on the method
    under evaluation, so method sweeps share identical splits.
    """
    rng = np.random.default_rng([seed, trial])
    train, test = [], []
    for c in data.classes:
        members = np.flatnonzero(data.labels == c)
        if len(members) <= train_per_class:
            raise ConfigurationError(
                f"class {c} has {len(members)} samples; "
                f"need more than {train_per_class}"
            )
        chosen = rng.permutation(members)
        train.extend(sorted(chosen[:train_per_class]))
        test.extend(sorted(chosen[train_per_class:]))
    return np.array(sorted(train)), np.array(sorted(test))


def _run_folds(
    data: LabeledTensorSet, method: str, config: TrainingConfig, folds, **report_fields
) -> ExperimentReport:
    """Train on each ``(train_idx, test_idx)`` fold and classify its test
    samples.  The report's headline is the mean fold accuracy;
    ``report_fields`` fills the protocol-specific fields.

    Each subset lives only through the call it is built for: the training
    subset is freed before the test subset is built, and a fold's model
    before the next fold trains, so no fold holds two of these at once."""
    classes = tuple(data.classes.tolist())
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    accuracies = []
    dims_per_fold = []
    fractions = []
    traces = []
    warnings = []
    for train_idx, test_idx in folds:
        model = train_method(method, data.subset(train_idx), config)
        correct = _count_correct(model, data.subset(test_idx), classes, confusion)
        accuracies.append(100.0 * correct / len(test_idx))
        dims_per_fold.append(model.projected_shape)
        # storage of the projected gallery plus the projectors, relative to
        # raw; a vectorized model's one projector is the order-1 case
        fractions.append(hopca_compression_fraction(
            len(train_idx),
            [c.shape[0] for c in model.combined],
            [c.shape[1] for c in model.combined],
        ))
        traces.append(model.objective_trace)
        warnings.append(model.warnings)
        del model
    return ExperimentReport(
        method=method,
        classes=classes,
        trial_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
        per_trial_dims=tuple(dims_per_fold),
        compression_fractions=tuple(fractions),
        objective_traces=tuple(traces),
        warnings=tuple(warnings),
        **report_fields,
    )


def evaluate_split(
    data: LabeledTensorSet,
    method: str,
    config: TrainingConfig,
    train_per_class: int,
    trials: int = 10,
    seed: int = 0,
) -> ExperimentReport:
    """Random per-class splits, averaged over ``trials`` seeded repetitions."""
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    if train_per_class < 1:
        raise ConfigurationError("train_per_class must be at least 1")
    folds = (split_indices(data, train_per_class, seed, trial) for trial in range(trials))
    return _run_folds(
        data, method, config, folds, protocol="split", seed=seed,
        macro_accuracy=None, train_per_class=train_per_class,
    )


def evaluate_loo(
    data: LabeledTensorSet, method: str, config: TrainingConfig, seed: int = 0
) -> ExperimentReport:
    """Subject-wise leave-one-out: one fold per subject, training on all
    other subjects' samples.  The headline is the per-sample accuracy; the
    mean over subjects is the macro accuracy."""
    if data.subjects is None:
        raise DatasetError("leave-one-out needs subject annotations")
    subjects = np.unique(data.subjects)
    if len(subjects) < 2:
        raise DatasetError("leave-one-out needs at least 2 subjects")
    folds = (
        (np.flatnonzero(data.subjects != s), np.flatnonzero(data.subjects == s))
        for s in subjects
    )
    report = _run_folds(
        data, method, config, folds, protocol="loo", seed=seed, macro_accuracy=None
    )
    correct = int(np.trace(report.confusion))
    return replace(
        report,
        mean_accuracy=100.0 * correct / int(report.confusion.sum()),
        macro_accuracy=report.mean_accuracy,
    )


def export_projection_2d(model: GdaModel, data: LabeledTensorSet, plane: str = "pair"):
    """Project every sample onto a 2D plane for visualization.

    Planes for order-2 data under multilinear models: ``"1x2"`` uses the
    first left direction against the first two right directions,
    ``"2x1"`` the first two left directions against the first right one.
    ``"pair"`` takes the first two entries of the projected representation
    (column-major) and works for any model with at least two projected
    coordinates.  Returns a list of ``(x, y, label)`` rows in sample order.
    """
    if plane in ("1x2", "2x1"):
        if len(model.combined) != 2:
            raise ConfigurationError(
                f"plane {plane!r} needs a multilinear model over order-2 data"
            )
        left, right = model.combined
        need_left, need_right = (1, 2) if plane == "1x2" else (2, 1)
        if left.shape[1] < need_left or right.shape[1] < need_right:
            raise ConfigurationError(
                f"plane {plane!r} needs at least {need_left}x{need_right} "
                f"projected dims, model has {left.shape[1]}x{right.shape[1]}"
            )
        model = replace(model, combined=[left[:, :need_left], right[:, :need_right]])
    elif plane != "pair":
        raise ConfigurationError(f"unknown plane {plane!r}; choose 1x2, 2x1 or pair")
    elif np.prod(model.projected_shape) < 2:
        raise ConfigurationError("plane 'pair' needs at least 2 projected coordinates")
    # the rows' columns that hold the first two column-major coordinates
    shape = model.projected_shape
    pair = np.ravel_multi_index(np.unravel_index([0, 1], shape, order="F"), shape)
    z = model.project(data.samples)[:, pair]
    return [(float(x), float(y), label) for (x, y), label in zip(z, data.labels)]

