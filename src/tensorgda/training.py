"""Discriminant training for labeled tensor sets.

The full pipeline stacks the samples into an (N+1)-order tensor, reduces
each data mode with an energy-thresholded HOSVD (never the sample mode),
then alternates per-mode eigen updates of discriminant factors U_k that
maximize the ratio of between-class to within-class scatter of the core
tensors.  The served projectors are the per-mode products V_k @ U_k.

Variants run one stage each: ``train_mda`` only the discriminant stage, so
its projectors are the U_k, and ``train_hopca`` only the HOSVD stage, so
its projectors are the leading columns of the V_k and it never builds the
core tensors.  ``train_pca`` / ``train_fisherface`` are the classical
vectorizing baselines.

Everything here is deterministic: identical data and config produce
bit-identical models.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tensor
from .errors import ConfigurationError, DatasetError, DimensionError, SingularityError
from .hosvd import hosvd
from .linalg import ratio_trace_eig, svd


class LabeledTensorSet:
    """Same-shape tensor samples with integer class labels.

    Samples are stacked along the last axis of ``samples`` (shape
    ``sample_shape + (m,)``); ``subjects`` optionally tags each sample with
    an acquisition subject for leave-one-out protocols.  The package's
    builders hold the stack sample-major: each sample is one contiguous
    block, and ``samples`` is the ``np.moveaxis`` view of an ``(m,) +
    sample_shape`` array, as :meth:`subset`'s fancy indexing also returns
    it.  Any layout is accepted, and no output bit depends on it.
    """

    def __init__(self, samples: np.ndarray, labels, subjects=None):
        samples = np.asarray(samples, dtype=np.float64)
        labels = np.asarray(labels)
        if samples.ndim < 2:
            raise DimensionError("samples array must be sample_shape + (m,)")
        if labels.ndim != 1 or labels.shape[0] != samples.shape[-1]:
            raise DimensionError(
                f"{samples.shape[-1]} samples but {labels.shape} labels"
            )
        if samples.shape[-1] == 0:
            raise DatasetError("empty sample set")
        if subjects is not None:
            subjects = np.asarray(subjects)
            if subjects.shape != labels.shape:
                raise DimensionError("subjects must align with labels")
        self.samples = samples
        self.labels = labels
        self.subjects = subjects

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    @property
    def sample_shape(self) -> tuple:
        return self.samples.shape[:-1]

    @property
    def order(self) -> int:
        return self.samples.ndim - 1

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> np.ndarray:
        """Sample count per class, aligned with ``classes``."""
        return np.array(
            [int(np.sum(self.labels == c)) for c in self.classes]
        )

    def sample(self, i: int) -> np.ndarray:
        return self.samples[..., i]

    def subset(self, indices) -> "LabeledTensorSet":
        indices = np.asarray(indices, dtype=int)
        return LabeledTensorSet(
            self.samples[..., indices],
            self.labels[indices],
            None if self.subjects is None else self.subjects[indices],
        )


def _is_number(value, kind=numbers.Real) -> bool:
    """A number of the abstract type ``kind`` that is not a ``bool``."""
    return isinstance(value, kind) and not isinstance(value, bool)


# the TrainingConfig fields that hold counts; the last two hold one per mode
_COUNTS = ("max_iters", "pca_dims", "fisherface_pca_dims", "fisherface_lda_dims",
           "target_dims", "hosvd_ranks")


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the multilinear trainers and the vectorizing baselines.

    ``target_dims`` defaults per mode to ``min(J_k, C - 1)`` where ``J_k``
    is the post-HOSVD extent.  ``theta`` drives HOSVD rank selection unless
    explicit ``hosvd_ranks`` are given.  The discriminant sweeps stop after
    ``max_iters`` sweeps, or earlier once the objective settles: after a
    sweep whose objective moved by at most ``conv_tol`` relative to the
    previous one (see :func:`k_mode_optimize`).

    This class owns every default and all validation of these knobs.
    """

    target_dims: tuple | None = None
    theta: float = 0.98
    hosvd_ranks: tuple | None = None
    max_iters: int = 10
    conv_tol: float = 1e-3
    ridge: float = 1e-6
    pca_dims: int | None = None
    fisherface_pca_dims: int | None = None
    fisherface_lda_dims: int | None = None

    def __post_init__(self):
        if not (_is_number(self.theta) and 0.0 < self.theta <= 1.0):
            raise ConfigurationError(f"theta must lie in (0, 1], got {self.theta!r}")
        for name in _COUNTS:
            value = getattr(self, name)
            if value is None and name != "max_iters":
                continue
            per_mode = name in ("target_dims", "hosvd_ranks")
            if per_mode and not isinstance(value, (tuple, list)):
                raise ConfigurationError(f"{name} must be a sequence of integers, got {value!r}")
            label, entries = (f"{name} entries", value) if per_mode else (name, (value,))
            if not all(_is_number(v, numbers.Integral) and v >= 1 for v in entries):
                raise ConfigurationError(
                    f"{label} must be at least 1 and integral, not bool, got {value!r}"
                )
        for name in ("conv_tol", "ridge"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and nonnegative, got {value!r}")


# queries screened at a time: bounds the transients
_QUERY_BLOCK = 256

# input bytes that GdaModel.project projects at a time, and gallery bytes
# that GdaModel.screen centres at a time, at least one sample: the
# transients stay a few blocks however long the stack, and no output bit
# depends on it, since each sample gets its own BLAS calls
_PROJECT_BYTES = 1 << 20


@dataclass(frozen=True)
class GdaModel:
    """A trained projector set plus the projected training gallery.

    For multilinear kinds ``combined[k]`` is the mode-``k`` projector: for
    gda ``V_k @ U_k``, the product of the HOSVD basis and the discriminant
    factor (only the product is kept); for mda ``U_k``; for hopca the
    leading ``d_k`` columns of ``V_k``.  For vectorized kinds
    (pca/fisherface) ``combined`` holds a single matrix applied to the raw
    column-major sample vector: no kind subtracts a mean, since a
    nearest-neighbour distance cannot see a shift shared by the gallery and
    the query.  Every field is a deterministic fact of the training run;
    none is a clock reading.  ``gallery`` is one C-contiguous ``(n, d)``
    float64 matrix, ``d = prod(projected_shape)``: row ``j`` is training
    sample ``j`` projected and flattened in C order, as :meth:`project_rows`
    returns it.  A model is immutable: derive a changed one with
    :func:`dataclasses.replace`, which builds its own :attr:`screen`.
    """

    kind: str
    sample_shape: tuple
    combined: list
    gallery: np.ndarray
    gallery_labels: np.ndarray
    hosvd_ranks: tuple | None = None
    mode_energy: tuple | None = None
    objective_trace: tuple = ()
    subspace_change_trace: tuple = ()
    config: TrainingConfig | None = None
    warnings: tuple = ()

    @cached_property
    def screen(self) -> tuple:
        """``(mean, sq_norms, max_sq_norm, rows32)``, the classifier's view of
        the gallery rows, built once per model: the row mean; the float64
        squared norms of the centred rows ``g_j - mean`` and their maximum;
        and the centred rows rounded to one C-contiguous ``(n, d)`` float32
        matrix."""
        rows32 = np.empty(self.gallery.shape, dtype=np.float32)
        sq_norms = np.empty(len(self.gallery))
        # a gallery beyond float32's range (or not finite) gets a norm that
        # sends every query to the direct scan, which never reads what these
        # arrays hold
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.gallery.mean(axis=0)
            # _PROJECT_BYTES of rows at a time: no full float64 centred copy
            step = max(1, _PROJECT_BYTES // max(1, 8 * self.gallery.shape[1]))
            for start in range(0, len(rows32), step):
                rows = slice(start, start + step)
                block = self.gallery[rows] - mean
                sq_norms[rows] = np.einsum("ij,ij->i", block, block)
                rows32[rows] = block
        return mean, sq_norms, float(sq_norms.max()), rows32

    @property
    def vectorized(self) -> bool:
        """pca/fisherface: samples are projected as column-major vectors."""
        return self.kind in ("pca", "fisherface")

    @property
    def projected_shape(self) -> tuple:
        return tuple(p.shape[1] for p in self.combined)

    def project(self, samples: np.ndarray) -> np.ndarray:
        """Samples stacked on the last axis, ``sample_shape + (m,)``, projected
        to a ``projected_shape + (m,)`` stack (vectorized kinds: the
        column-major vector) held sample-major: it is the ``np.moveaxis``
        view of one C-contiguous ``(m,) + projected_shape`` array, so each
        projected sample is one contiguous block, a gallery row in C order.
        Blocks of at most ``_PROJECT_BYTES`` of float64 input, and at least
        one sample, are projected at a time, each converted and copied
        alone, so the transients do not grow with ``m``.  A sample's bits
        depend neither on the batch it comes in nor on the block size."""
        samples = np.asarray(samples)
        if samples.shape[:-1] != self.sample_shape:
            raise DimensionError(f"samples of shape {samples.shape} do not stack the "
                                 f"training shape {self.sample_shape} on the last axis")
        factors = [(p.T, k) for k, p in enumerate(self.combined)]
        projected = np.empty(samples.shape[-1:] + self.projected_shape)
        projected = projected.transpose(*range(1, projected.ndim), 0)
        step = max(1, _PROJECT_BYTES // (8 * max(1, math.prod(self.sample_shape))))
        for start in range(0, samples.shape[-1], step):
            chunk = slice(start, start + step)
            block = samples[..., chunk]
            if self.vectorized:
                block = block.reshape(-1, block.shape[-1], order="F")
            projected[..., chunk] = tensor._per_sample_products(block, factors)
        return projected

    def project_rows(self, samples: np.ndarray) -> np.ndarray:
        """:meth:`project` of ``samples`` as one ``(m, d)`` row per sample,
        flattened in C order as the gallery's rows are: a view, no copy."""
        stack = self.project(samples)
        rows = stack.transpose(-1, *range(stack.ndim - 1))
        return rows.reshape(len(rows), math.prod(stack.shape[:-1]))


def class_means(data: LabeledTensorSet):
    """Per-class mean tensors (ordered by sorted class label) and the
    global mean.  The global mean is summed along a contiguous sample axis
    whatever the stack's layout: numpy sums such an axis pairwise, but a
    strided one, as in a sample-major stack, one sample at a time, in other
    bits.  A class's fancy-indexed samples are sample-major in any layout."""
    means = [
        np.mean(data.samples[..., data.labels == c], axis=-1)
        for c in data.classes
    ]
    return means, np.mean(np.ascontiguousarray(data.samples), axis=-1)


def deviation_stacks(data: LabeledTensorSet) -> tuple:
    """The deviations behind both scatters, each stacked along a new last
    axis: the within-class deviations ``X_i - M_c(i)`` in sample order, and
    the class-mean deviations ``sqrt(n_c) * (M_c - M)`` in class order."""
    per_class, global_mean = class_means(data)
    # one class at a time into a C-contiguous copy: no full-size gathered means
    within = data.samples.copy()
    for c, mean in zip(data.classes, per_class):
        within[..., data.labels == c] -= mean[..., None]
    per_class = np.stack(per_class, axis=-1)
    between = (per_class - global_mean[..., None]) * np.sqrt(data.class_counts())
    return within, between


def scatter_matrices(
    data: LabeledTensorSet, projectors, mode: int, stacks=None
) -> tuple:
    """``(s_b, s_w)``, the between/within scatter along ``mode`` under the
    other modes' projectors.

    ``projectors`` lists one matrix per mode; the entry at ``mode`` is
    ignored.  ``stacks`` is the :func:`deviation_stacks` pair, built from
    ``data`` when omitted.  Each stack is projected along every other mode
    by one multi-mode product, and its scatter is one GEMM ``F @ F.T``.  ``F``
    is the mode-``mode`` unfolding up to a column order the sum does not see:
    the projected stack with that mode moved first, a view for mode 0.
    This equals the textbook form that sandwiches the Kronecker product of
    the other projectors, without ever materializing it.
    """
    n = data.order
    if not 0 <= mode < n:
        raise DimensionError(f"mode {mode} invalid for order-{n} data")
    for j in range(n):
        if j != mode and projectors[j].shape[0] != data.sample_shape[j]:
            raise DimensionError(
                f"projector for mode {j} has {projectors[j].shape[0]} rows, "
                f"expected {data.sample_shape[j]}"
            )
    others = [(projectors[j].T, j) for j in range(n) if j != mode]

    def scatter(stack):
        flat = np.moveaxis(tensor.multi_mode_product(stack, others), mode, 0)
        flat = flat.reshape(len(flat), -1)
        return flat @ flat.T

    within, between = deviation_stacks(data) if stacks is None else stacks
    return scatter(between), scatter(within)


def eval_objective(pair: tuple, u: np.ndarray) -> float:
    """``tr(U^T S_b U) / tr(U^T S_w U)`` on one mode's ``(s_b, s_w)`` pair, or
    ``inf`` for a zero denominator; :func:`k_mode_optimize` records it
    through this module global, which ``perfbench/tracing.py`` wraps."""
    s_b, s_w = pair
    denominator = float(np.sum(u * (s_w @ u)))
    if denominator == 0.0:
        return float("inf")
    return float(np.sum(u * (s_b @ u))) / denominator


@dataclass(frozen=True)
class KModeResult:
    """``stop_reason`` is ``"tolerance"`` when the objective settled within
    ``conv_tol``, ``"sweep_cap"`` when ``max_iters`` sweeps ran without that.
    ``subspace_change_trace`` is a diagnostic only: the largest per-mode
    Frobenius change of ``U @ U.T`` in each sweep.  ``objective_trace``
    holds one entry more than the sweeps that ran."""

    factors: list
    objective_trace: tuple
    subspace_change_trace: tuple
    stop_reason: str


def _relative_change(previous: float, current: float) -> float:
    """``|current - previous| / |previous|``, the quantity the stop rule
    bounds by ``conv_tol``: ``nan`` when either value is not finite (never
    settled), ``inf`` for a move away from zero."""
    if not (math.isfinite(previous) and math.isfinite(current)):
        return math.nan
    change = abs(current - previous)
    return change / abs(previous) if previous else (math.inf if change else 0.0)


def default_target_dims(sample_shape, n_classes: int) -> tuple:
    """Per-mode default: the vector-LDA rank bound ``C - 1``, capped by the
    mode extent."""
    return tuple(min(int(s), max(n_classes - 1, 1)) for s in sample_shape)


def _target_dims(config: TrainingConfig, extents, n_classes: int, after_hosvd=False) -> tuple:
    """``config.target_dims``, else the per-mode default, checked to give
    one dim per mode that fits that mode's extent: the dims a HOSVD stage
    kept when ``after_hosvd``, else the samples' own."""
    dims = tuple(config.target_dims or default_target_dims(extents, n_classes))
    if len(dims) != len(extents):
        raise ConfigurationError(f"expected {len(extents)} target dims, got {len(dims)}")
    for k, d in enumerate(dims):
        if d > extents[k]:
            limit = (
                f"the {extents[k]} dims kept for mode {k}; raise theta or the HOSVD ranks"
                if after_hosvd else f"the sample extent {extents[k]} of mode {k}"
            )
            raise ConfigurationError(f"target dim {d} exceeds {limit}")
    return dims


def k_mode_optimize(
    core_data: LabeledTensorSet, config: TrainingConfig, stacks=None
) -> KModeResult:
    """Alternating per-mode eigen updates of the discriminant factors.

    Factors start as truncated identities (the top HOSVD directions when a
    HOSVD stage preceded).  Each sweep updates modes in order, each update
    seeing the already-refreshed factors of lower modes; every pair comes
    from one :func:`deviation_stacks` pair, ``stacks``, built from
    ``core_data`` when omitted.  Given, the sweeps read of ``core_data``
    only its labels and sample shape, so a caller may drop the core once
    its stacks exist and pass any set of that shape and those labels, such
    as the within stack's.  The objective is read from pairs
    already built: first from sweep 1's first pair, then after each sweep
    from the last mode's pair under its new factor (no other factor has
    moved since).  Iteration stops once a sweep moves the objective ``Psi``
    by at most ``conv_tol`` relative, ``|Psi_s - Psi_{s-1}| <= conv_tol *
    |Psi_{s-1}|`` (the MPCA rule of Lu, Plataniotis & Venetsanopoulos,
    IEEE TNN 2008), or at ``max_iters`` sweeps.  A non-finite objective
    never counts as settled.
    """
    n = core_data.order
    shape = core_data.sample_shape
    dims = _target_dims(config, shape, core_data.n_classes)
    factors = [np.eye(shape[k])[:, : dims[k]] for k in range(n)]
    if stacks is None:
        stacks = deviation_stacks(core_data)
    objective_trace = []
    change_trace = []
    stop_reason = "sweep_cap"
    for _ in range(config.max_iters):
        previous = [u @ u.T for u in factors]
        for k in range(n):
            pair = scatter_matrices(core_data, factors, k, stacks=stacks)
            if not objective_trace:
                objective_trace.append(eval_objective(pair, factors[k]))
            try:
                factors[k] = ratio_trace_eig(*pair, dims[k], config.ridge)
            except SingularityError as exc:
                raise SingularityError(f"mode {k}: {exc}") from exc
        objective_trace.append(eval_objective(pair, factors[n - 1]))
        change_trace.append(max(
            float(np.linalg.norm(factors[k] @ factors[k].T - previous[k]))
            for k in range(n)
        ))
        if _relative_change(*objective_trace[-2:]) <= config.conv_tol:
            stop_reason = "tolerance"
            break
    return KModeResult(
        factors=factors,
        objective_trace=tuple(objective_trace),
        subspace_change_trace=tuple(change_trace),
        stop_reason=stop_reason,
    )


def _singleton_warnings(data: LabeledTensorSet) -> tuple:
    counts = data.class_counts()
    return tuple(
        f"class {c} has a single sample; its within-class scatter is zero"
        for c, n_c in zip(data.classes, counts)
        if n_c == 1
    )


def _fitted(data: LabeledTensorSet, kind: str, combined: list, warnings=(), **facts) -> GdaModel:
    """A model of ``kind`` serving ``combined``, warned of singleton classes
    ahead of ``warnings``, whose gallery is ``data`` projected by
    :meth:`GdaModel.project_rows`."""
    model = GdaModel(
        kind=kind,
        sample_shape=data.sample_shape,
        combined=combined,
        gallery=np.empty(0),
        gallery_labels=data.labels.copy(),
        warnings=_singleton_warnings(data) + tuple(warnings),
        **facts,
    )
    return replace(model, gallery=model.project_rows(data.samples))


def hosvd_stage(data: LabeledTensorSet, config: TrainingConfig):
    """HOSVD of the data modes of the stacked samples, truncated to
    ``config.hosvd_ranks`` when given, else by ``config.theta``."""
    if config.hosvd_ranks is not None:
        return hosvd(data.samples, ranks=config.hosvd_ranks)
    return hosvd(data.samples, theta=config.theta)


def _train_multilinear(data: LabeledTensorSet, config: TrainingConfig, kind: str) -> GdaModel:
    if data.n_samples < 2 or data.n_classes < 2:
        raise ConfigurationError("training needs at least 2 samples and 2 classes")
    if kind == "mda":
        kept, mode_energy = data.sample_shape, (1.0,) * data.order
    else:
        decomposition = hosvd_stage(data, config)
        bases, kept, mode_energy = (
            decomposition.factors, decomposition.kept_ranks, decomposition.mode_energy)
    dims = _target_dims(config, kept, data.n_classes, after_hosvd=kind != "mda")
    facts = dict(hosvd_ranks=tuple(kept), mode_energy=tuple(mode_energy), config=config)
    if kind == "hopca":  # C-contiguous like every projector: project's BLAS calls see the layout
        leading = [np.ascontiguousarray(v[:, :d]) for v, d in zip(bases, dims)]
        return _fitted(data, kind, leading, **facts)

    if kind == "mda":
        stacks = deviation_stacks(data)
    else:
        # the sweeps read the core only through its deviation stacks: once
        # they exist, dropping the decomposition frees its cached core
        stacks = deviation_stacks(LabeledTensorSet(decomposition.core, data.labels))
        del decomposition
    # the within stack has the core's shape and labels, all the sweeps read of it
    result = k_mode_optimize(LabeledTensorSet(stacks[0], data.labels), config, stacks=stacks)
    del stacks  # freed before the gallery is projected
    warnings = []
    if result.stop_reason == "sweep_cap":
        warnings.append(
            f"the discriminant sweeps reached the cap of max_iters = "
            f"{config.max_iters} before the objective settled: the last sweep "
            f"changed it by {_relative_change(*result.objective_trace[-2:]):.3g} "
            f"relative, conv_tol = {config.conv_tol!r}"
        )
    combined = result.factors if kind == "mda" else [v @ u for v, u in zip(bases, result.factors)]
    return _fitted(data, kind, combined, warnings, objective_trace=result.objective_trace,
                   subspace_change_trace=result.subspace_change_trace, **facts)


def train_gda(data: LabeledTensorSet, config: TrainingConfig | None = None) -> GdaModel:
    """HOSVD reduction followed by alternating discriminant optimization."""
    return _train_multilinear(data, config or TrainingConfig(), "gda")


def train_mda(data: LabeledTensorSet, config: TrainingConfig | None = None) -> GdaModel:
    """Discriminant optimization on the raw tensors (no HOSVD stage)."""
    return _train_multilinear(data, config or TrainingConfig(), "mda")


def train_hopca(data: LabeledTensorSet, config: TrainingConfig | None = None) -> GdaModel:
    """Unsupervised multilinear baseline: HOSVD projectors only."""
    return _train_multilinear(data, config or TrainingConfig(), "hopca")


def vector_pca(data: LabeledTensorSet, dims: int | None = None, name: str = "pca dims"):
    """Vector PCA of the samples, each vectorized in column-major order.

    Returns the mean vector, the centered sample columns and the top
    ``dims`` principal directions (default: all ``min(m - 1, length)``),
    taken from the thin SVD of the centered data matrix.
    """
    vectors = data.samples.reshape(-1, data.n_samples, order="F")
    length, m = vectors.shape
    limit = min(m - 1, length)
    if dims is None:
        dims = limit
    if not 1 <= dims <= limit:
        raise ConfigurationError(
            f"{name} must lie in [1, {limit}] for {m} samples of length "
            f"{length}, got {dims}"
        )
    mean_vector = np.mean(vectors, axis=1)
    centered = vectors - mean_vector[:, None]
    return mean_vector, centered, svd(centered).u[:, :dims]


def train_pca(data: LabeledTensorSet, config: TrainingConfig | None = None) -> GdaModel:
    """Vectorizing PCA baseline: the top ``config.pca_dims`` principal
    directions of the centered sample vectors."""
    config = config or TrainingConfig()
    _, _, basis = vector_pca(data, config.pca_dims)
    return _fitted(data, "pca", [basis])


def train_fisherface(data: LabeledTensorSet, config: TrainingConfig | None = None) -> GdaModel:
    """PCA to ``config.fisherface_pca_dims`` (default ``m - C``) then vector
    discriminant analysis to ``config.fisherface_lda_dims`` (default
    ``C - 1``) with ``config.ridge`` on the reduced vectors, whose scatters
    come from :func:`scatter_matrices` on an order-1 set."""
    config = config or TrainingConfig()
    n_classes = data.n_classes
    if n_classes < 2:
        raise ConfigurationError("fisherface needs at least 2 classes")
    pca_dims = config.fisherface_pca_dims or data.n_samples - n_classes
    if pca_dims < 1:
        raise ConfigurationError(
            f"fisherface needs more samples than classes, got {data.n_samples} "
            f"samples in {n_classes} classes"
        )
    _, centered, pca_basis = vector_pca(data, pca_dims, "fisherface pca dims")
    lda_dims = config.fisherface_lda_dims or n_classes - 1
    if not 1 <= lda_dims <= min(n_classes - 1, pca_dims):
        raise ConfigurationError(
            f"fisherface lda dims must lie in [1, {min(n_classes - 1, pca_dims)}]"
        )
    reduced = LabeledTensorSet(pca_basis.T @ centered, data.labels)
    lda_basis = ratio_trace_eig(*scatter_matrices(reduced, [None], 0), lda_dims, config.ridge)
    return _fitted(data, "fisherface", [pca_basis @ lda_basis])
