"""Classification of projected samples and the two evaluation protocols.

Classification is nearest neighbor under the tensor Frobenius distance in
the projected space; ties go to the lowest gallery index.  Protocols:
seeded random per-class splits ("train-m" style) averaged over trials, and
subject-wise leave-one-out.  Splits depend only on (seed, trial, labels), so
different methods evaluated with the same seed see identical splits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import training
from .errors import ConfigurationError, DatasetError
from .hosvd import hopca_compression_fraction, pca_compression_fraction
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
    "pca": lambda data, config: train_pca(data, dims=config.pca_dims),
    "fisherface": lambda data, config: train_fisherface(
        data,
        pca_dims=config.fisherface_pca_dims,
        lda_dims=config.fisherface_lda_dims,
        ridge=config.ridge,
    ),
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
    direct difference after a GEMM screen, so a query equal to a gallery
    sample lands at exactly 0.0, and equidistant entries resolve to the
    lowest index.  Its bits equal those :func:`classify_many` returns for
    the same sample in any batch.
    """
    labels, indices, distances = classify_many(model, np.asarray(x)[..., None])
    return labels[0], int(indices[0]), float(distances[0])


_EPS = np.finfo(np.float64).eps
_ETA = np.finfo(np.float64).smallest_subnormal


def classify_many(model: GdaModel, samples: np.ndarray):
    """Nearest-neighbor labels of a stack of samples (sample axis last).

    Returns ``(labels, indices, distances)`` with one entry per sample.  A
    distance is ``sqrt(sum((g - z)**2))`` by direct difference of the
    projected query ``z`` and the gallery entry ``g``, so a query equal to a
    gallery sample lands at exactly 0.0.  Among equal returned distances the
    lowest gallery index wins.  A returned distance depends only on
    ``(z, g)``, never on the other queries or entries, so its bits do not
    depend on how the samples are batched.

    Only a few entries are computed directly.  The stack is projected by one
    :meth:`GdaModel.project` call, exactly as the gallery was, and each block
    of queries is screened against every entry at once by one GEMM:
    ``a_j = |g_j|^2 - 2 z.g_j``, which is ``|z - g_j|^2 - |z|^2`` up to
    rounding (the expansion used by exact brute-force k-NN; Johnson,
    Douze & Jegou, IEEE Trans. Big Data 2019).  The candidates are the
    entries with ``a_j <= min(a) + slack``; they are recomputed directly.

    Why no excluded entry can equal or beat the winner.  Let ``d`` be the
    projected size, ``u = eps/2`` the unit roundoff, ``g_k = k*u/(1 - k*u)``
    and ``M = |z|^2 + max_j |g_j|^2``, so ``2|z||g_j| <= M`` and the exact
    ``delta_j = |z - g_j|^2 <= 2M``.  By the dot-product bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1),
    which holds for any summation order, the doubled GEMM product and the
    cached norm are each off by at most ``g_d * M``, and the subtraction adds at
    most ``2u*M``: ``|a_j - (delta_j - |z|^2)| <= 2 g_(d+1) M``.  The direct
    sum adds ``d`` nonnegative terms, each within three roundings, so it is
    within ``g_(d+2) delta_j <= 2 g_(d+2) M`` of ``delta_j``.  Let ``k`` be the
    screen's argmin.  An excluded ``e`` then has a direct sum above ``k``'s by
    more than ``slack - 4 g_(d+1) M - 4 g_(d+2) M``, and a margin of
    ``8u * 2M`` on top makes the correctly rounded ``sqrt`` of ``e``'s
    strictly larger; rounding ``min(a) + slack`` costs another ``2u*M``.  The
    sum is about ``(8d + 32) u M``.  The slack ``8 (d + 4) eps M`` is
    ``(16d + 64) u M``, twice that, which covers the higher-order terms.  Its
    ``8 (d + 4) eta`` term, with ``eta`` the smallest subnormal, covers the
    absolute error of at most ``eta/2`` per operation that gradual underflow
    adds.  So every excluded entry is strictly farther than ``k``, and ``k``
    is a candidate.

    A query whose screen minimum is not finite, or whose ``M`` is within a
    factor 4 of overflow (a NaN or inf query, an overflowing norm), is
    answered by the full direct scan instead.
    """
    if model.gallery.size == 0:
        raise DatasetError("model has an empty gallery")
    gallery, sq_norms, max_sq_norm = model.gallery_matrix()
    # one query per row, flattened in C order like the gallery's columns
    projected = model.project(samples).reshape(gallery.shape[0], -1).T
    count = len(projected)
    slack_factor = 8.0 * (gallery.shape[0] + 4)
    indices = np.empty(count, dtype=np.intp)
    distances = np.empty(count)
    for start in range(0, count, training._QUERY_BLOCK):
        queries = projected[start : start + training._QUERY_BLOCK]
        screen = sq_norms - 2.0 * (queries @ gallery)
        smallest = screen.min(axis=1)
        scale = np.einsum("ij,ij->i", queries, queries) + max_sq_norm
        bounded = np.isfinite(smallest) & np.isfinite(4.0 * scale)
        slack = slack_factor * (_EPS * scale + _ETA)
        for row, z in enumerate(queries):
            if bounded[row]:
                candidates = np.flatnonzero(screen[row] <= smallest[row] + slack[row])
            else:
                candidates = np.arange(gallery.shape[1])
            indices[start + row], distances[start + row] = _nearest(gallery, z, candidates)
    return model.gallery_labels[indices], indices, distances


def _nearest(gallery: np.ndarray, z: np.ndarray, candidates: np.ndarray):
    """``(index, distance)`` of the direct-difference nearest candidate
    column of ``gallery``; the lowest index wins among equal distances.
    Each distance is one contiguous row reduction, so it depends only on
    ``(z, g_j)``."""
    deltas = gallery.T[candidates] - z
    distances = np.sqrt(np.sum(deltas * deltas, axis=1))
    best = int(np.argmin(distances))
    return candidates[best], distances[best]


@dataclass
class ExperimentReport:
    """Results of one evaluation run.

    ``trial_accuracies`` holds one entry per trial (split protocol) or per
    held-out subject (leave-one-out).  ``mean_accuracy`` is the headline
    figure: the trial mean for splits, the per-sample (micro) accuracy for
    leave-one-out, where ``macro_accuracy`` additionally averages the
    per-subject accuracies.  The confusion matrix aggregates all trials;
    its rows (true classes, sorted) sum to ``test_counts``.  ``timings``
    holds wall-clock seconds per stage and is excluded from the canonical
    serialization so that report files are byte-reproducible.
    """

    protocol: str
    method: str
    seed: int
    classes: tuple
    trial_accuracies: tuple
    mean_accuracy: float
    macro_accuracy: float | None
    confusion: np.ndarray
    test_counts: tuple
    per_trial_dims: tuple
    compression_fractions: tuple
    objective_traces: tuple
    train_per_class: int | None = None
    timings: dict = field(default_factory=dict, compare=False)


def _count_correct(model: GdaModel, test: LabeledTensorSet, classes, confusion) -> int:
    class_index = {c: i for i, c in enumerate(classes)}
    correct = 0
    predictions, _, _ = classify_many(model, test.samples)
    for predicted, truth in zip(predictions, test.labels):
        confusion[class_index[truth], class_index[predicted]] += 1
        if predicted == truth:
            correct += 1
    return correct


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
    ``report_fields`` fills the protocol-specific fields."""
    classes = tuple(data.classes.tolist())
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    accuracies = []
    dims_per_fold = []
    fractions = []
    traces = []
    timings = {"train_s": 0.0, "classify_s": 0.0}
    for train_idx, test_idx in folds:
        train_set = data.subset(train_idx)
        test_set = data.subset(test_idx)
        t0 = time.perf_counter()
        model = train_method(method, train_set, config)
        timings["train_s"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        correct = _count_correct(model, test_set, classes, confusion)
        timings["classify_s"] += time.perf_counter() - t0
        accuracies.append(100.0 * correct / test_set.n_samples)
        dims_per_fold.append(model.projected_shape)
        # storage of the projected gallery plus the projectors, relative to raw
        if model.vectorized:
            fractions.append(pca_compression_fraction(
                train_set.n_samples, int(np.prod(model.sample_shape)),
                model.projected_shape[0],
            ))
        else:
            fractions.append(hopca_compression_fraction(
                train_set.n_samples, model.sample_shape, model.projected_shape
            ))
        traces.append(model.objective_trace)
    return ExperimentReport(
        method=method,
        classes=classes,
        trial_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
        test_counts=tuple(int(x) for x in confusion.sum(axis=1)),
        per_trial_dims=tuple(dims_per_fold),
        compression_fractions=tuple(fractions),
        objective_traces=tuple(traces),
        timings=timings,
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
        if model.vectorized or len(model.combined) != 2:
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
        u, v = left[:, :need_left], right[:, :need_right]
        # one sample per row; a 1x2 or 2x1 matrix ravels alike in C and F order
        z = np.matmul(np.matmul(u.T, np.moveaxis(data.samples, -1, 0)), v).reshape(-1, 2)
    elif plane == "pair":
        if np.prod(model.projected_shape) < 2:
            raise ConfigurationError("plane 'pair' needs at least 2 projected coordinates")
        # the first two column-major coordinates of each sample, one per row
        z = model.project(data.samples).reshape(-1, data.n_samples, order="F")[:2].T
    else:
        raise ConfigurationError(f"unknown plane {plane!r}; choose 1x2, 2x1 or pair")
    return [(float(x), float(y), label) for (x, y), label in zip(z, data.labels)]


def write_projection_csv(rows, path) -> None:
    """Write 2D projection rows as comma-separated text with a header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,y,label\n")
        for x, y, label in rows:
            handle.write(f"{x!r},{y!r},{label}\n")
