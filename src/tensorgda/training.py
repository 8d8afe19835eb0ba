"""Discriminant training for labeled tensor sets.

The full pipeline stacks the samples into an (N+1)-order tensor, reduces
each data mode with an energy-thresholded HOSVD (the sample mode is exempt),
then alternates per-mode eigen updates of discriminant factors U_k that
maximize the ratio of between-class to within-class scatter of the core
tensors.  The served projectors are the per-mode products V_k @ U_k.

Variants: ``train_mda`` skips the HOSVD stage (identity V_k), ``train_hopca``
skips the discriminant stage (truncated-identity U_k), and ``train_pca`` /
``train_fisherface`` are the classical vectorizing baselines.

Everything here is deterministic: identical data and config produce
bit-identical models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor
from .errors import ConfigurationError, DatasetError, DimensionError, SingularityError
from .hosvd import hosvd
from .linalg import ratio_trace_eig, svd


class LabeledTensorSet:
    """Same-shape tensor samples with integer class labels.

    Samples are stacked along the last axis of ``samples`` (shape
    ``sample_shape + (m,)``); ``subjects`` optionally tags each sample with
    an acquisition subject for leave-one-out protocols.
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

    @classmethod
    def from_samples(cls, samples, labels, subjects=None) -> "LabeledTensorSet":
        """Stack a list of same-shape tensors into a set."""
        arrays = [np.asarray(s, dtype=np.float64) for s in samples]
        if not arrays:
            raise DatasetError("empty sample set")
        shape = arrays[0].shape
        for i, a in enumerate(arrays):
            if a.shape != shape:
                raise DimensionError(
                    f"sample {i} has shape {a.shape}, expected {shape}"
                )
        return cls(np.stack(arrays, axis=-1), labels, subjects)

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


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the multilinear trainers and the vectorizing baselines.

    ``target_dims`` defaults per mode to ``min(J_k, C - 1)`` where ``J_k``
    is the post-HOSVD extent.  ``theta`` drives HOSVD rank selection unless
    explicit ``hosvd_ranks`` are given.  Convergence is declared when the
    largest per-mode change of the projection operator ``U @ U.T`` drops
    below ``conv_tol`` (Frobenius norm).

    This class owns every default and all validation of these knobs.
    """

    target_dims: tuple | None = None
    theta: float = 0.98
    hosvd_ranks: tuple | None = None
    max_iters: int = 10
    conv_tol: float = 1e-6
    ridge: float = 1e-6
    pca_dims: int | None = None
    fisherface_pca_dims: int | None = None
    fisherface_lda_dims: int | None = None

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in (0, 1], got {self.theta}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        for name in ("conv_tol", "ridge"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ScatterPair:
    """Between-class and within-class scatter along one mode."""

    s_b: np.ndarray
    s_w: np.ndarray


# samples projected, or queries screened, at a time: bounds the transients
_QUERY_BLOCK = 256


@dataclass
class GdaModel:
    """A trained projector set plus the projected training gallery.

    For multilinear kinds (gda/mda/hopca) ``combined[k]`` is the mode-``k``
    projector ``V_k @ U_k``, the product of the HOSVD basis and the
    discriminant factor; only the product is kept.  For vectorized kinds
    (pca/fisherface) ``combined`` holds a single matrix applied to the
    vectorized sample minus ``mean_vector``, which only they carry.
    ``stage_seconds`` carries wall-clock stage timings and is never
    serialized.  ``gallery`` holds one projected sample per index of its
    last axis; treat it as immutable and assign a new array to change it.
    """

    kind: str
    sample_shape: tuple
    combined: list
    gallery: np.ndarray
    gallery_labels: np.ndarray
    mean_vector: np.ndarray | None = None
    hosvd_ranks: tuple | None = None
    mode_energy: tuple | None = None
    objective_trace: tuple = ()
    subspace_change_trace: tuple = ()
    config: TrainingConfig | None = None
    warnings: tuple = ()
    stage_seconds: dict = field(default_factory=dict, compare=False)
    _gallery_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def gallery_matrix(self) -> tuple:
        """``(matrix, sq_norms, max_sq_norm)``: the gallery as a ``(d, n)``
        matrix, one column per sample flattened in C order (a view of a
        C-contiguous gallery), its column squared norms and their maximum.
        Cached for the gallery array it was built from, so assigning a new
        ``gallery`` rebuilds it."""
        cache = self._gallery_cache
        if cache is None or cache[0] is not self.gallery:
            matrix = self.gallery.reshape(-1, self.gallery.shape[-1])
            sq_norms = np.einsum("ij,ij->j", matrix, matrix)
            cache = (self.gallery, matrix, sq_norms, float(sq_norms.max()))
            self._gallery_cache = cache
        return cache[1:]

    @property
    def vectorized(self) -> bool:
        """pca/fisherface: samples are projected as mean-centered vectors."""
        return self.kind in ("pca", "fisherface")

    @property
    def projected_shape(self) -> tuple:
        if self.vectorized:
            return (self.combined[0].shape[1],)
        return tuple(p.shape[1] for p in self.combined)

    def project(self, samples: np.ndarray) -> np.ndarray:
        """Samples stacked on the last axis, ``sample_shape + (m,)``, projected
        to one C-contiguous ``projected_shape + (m,)`` stack, ``_QUERY_BLOCK``
        samples at a time (vectorized kinds: the mean-centered column-major
        vector).  A sample's bits do not depend on the batch it comes in."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape[:-1] != self.sample_shape:
            raise DimensionError(f"samples of shape {samples.shape} do not stack the "
                                 f"training shape {self.sample_shape} on the last axis")
        factors = [(p.T, k) for k, p in enumerate(self.combined)]
        projected = np.empty(self.projected_shape + samples.shape[-1:])
        for start in range(0, samples.shape[-1], _QUERY_BLOCK):
            chunk = slice(start, start + _QUERY_BLOCK)
            block = samples[..., chunk]
            if self.vectorized:
                block = block.reshape(-1, block.shape[-1], order="F") - self.mean_vector[:, None]
            projected[..., chunk] = tensor._per_sample_products(block, factors)
        return projected


def class_means(data: LabeledTensorSet):
    """Per-class mean tensors (ordered by sorted class label) and the
    global mean."""
    means = [
        np.mean(data.samples[..., data.labels == c], axis=-1)
        for c in data.classes
    ]
    return means, np.mean(data.samples, axis=-1)


def deviation_stacks(data: LabeledTensorSet) -> tuple:
    """The deviations behind both scatters, each stacked along a new last
    axis: the within-class deviations ``X_i - M_c(i)`` in sample order, and
    the class-mean deviations ``sqrt(n_c) * (M_c - M)`` in class order."""
    per_class, global_mean = class_means(data)
    per_class = np.stack(per_class, axis=-1)
    within = data.samples - per_class[..., np.searchsorted(data.classes, data.labels)]
    between = (per_class - global_mean[..., None]) * np.sqrt(data.class_counts())
    return within, between


def scatter_matrices(
    data: LabeledTensorSet, projectors, mode: int, stacks=None
) -> ScatterPair:
    """Between/within scatter along ``mode`` under the other modes'
    projectors.

    ``projectors`` lists one matrix per mode; the entry at ``mode`` is
    ignored.  ``stacks`` is the :func:`deviation_stacks` pair, built from
    ``data`` when omitted.  Each stack is projected along every other mode
    by one multi-mode product, and its scatter is one GEMM ``F @ F.T`` on
    the mode-``mode`` unfolding ``F``.
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
        flat = tensor.unfold(tensor.multi_mode_product(stack, others), mode)
        return flat @ flat.T

    within, between = deviation_stacks(data) if stacks is None else stacks
    return ScatterPair(s_b=scatter(between), s_w=scatter(within))


def eval_objective(pair: ScatterPair, u: np.ndarray) -> float:
    """``tr(U^T S_b U) / tr(U^T S_w U)`` on one mode's scatter pair, or ``inf``
    for a zero denominator; :func:`k_mode_optimize` records it through this
    module global, which ``perfbench/tracing.py`` wraps."""
    denominator = float(np.sum(u * (pair.s_w @ u)))
    if denominator == 0.0:
        return float("inf")
    return float(np.sum(u * (pair.s_b @ u))) / denominator


@dataclass(frozen=True)
class KModeResult:
    factors: list
    objective_trace: tuple
    subspace_change_trace: tuple
    sweeps: int


def default_target_dims(sample_shape, n_classes: int) -> tuple:
    """Per-mode default: the vector-LDA rank bound ``C - 1``, capped by the
    mode extent."""
    return tuple(min(int(s), max(n_classes - 1, 1)) for s in sample_shape)


def k_mode_optimize(core_data: LabeledTensorSet, config: TrainingConfig) -> KModeResult:
    """Alternating per-mode eigen updates of the discriminant factors.

    Factors start as truncated identities (the top HOSVD directions when a
    HOSVD stage preceded).  Each sweep updates modes in order, each update
    seeing the already-refreshed factors of lower modes; every pair comes
    from deviation stacks built once.  The objective is read from pairs
    already built: first from sweep 1's first pair, then after each sweep
    from the last mode's pair under its new factor (no other factor has
    moved since).  Iteration stops at ``max_iters`` sweeps or when every
    mode's projection operator moves less than ``conv_tol``.
    """
    n = core_data.order
    shape = core_data.sample_shape
    dims = config.target_dims or default_target_dims(shape, core_data.n_classes)
    if len(dims) != n:
        raise ConfigurationError(f"expected {n} target dims, got {len(dims)}")
    for k, d in enumerate(dims):
        if not 1 <= d <= shape[k]:
            raise ConfigurationError(
                f"target dim {d} out of range for mode {k} of extent {shape[k]}"
            )

    factors = [np.eye(shape[k])[:, : dims[k]] for k in range(n)]
    stacks = deviation_stacks(core_data)
    objective_trace = []
    change_trace = []
    sweeps = 0
    for _ in range(config.max_iters):
        previous = [u @ u.T for u in factors]
        for k in range(n):
            pair = scatter_matrices(core_data, factors, k, stacks=stacks)
            if not objective_trace:
                objective_trace.append(eval_objective(pair, factors[k]))
            try:
                factors[k] = ratio_trace_eig(pair.s_b, pair.s_w, dims[k], config.ridge)
            except SingularityError as exc:
                raise SingularityError(f"mode {k}: {exc}") from exc
        sweeps += 1
        objective_trace.append(eval_objective(pair, factors[n - 1]))
        change = max(
            float(np.linalg.norm(factors[k] @ factors[k].T - previous[k]))
            for k in range(n)
        )
        change_trace.append(change)
        if change < config.conv_tol:
            break
    return KModeResult(
        factors=factors,
        objective_trace=tuple(objective_trace),
        subspace_change_trace=tuple(change_trace),
        sweeps=sweeps,
    )


def _singleton_warnings(data: LabeledTensorSet) -> tuple:
    counts = data.class_counts()
    return tuple(
        f"class {c} has a single sample; its within-class scatter is zero"
        for c, n_c in zip(data.classes, counts)
        if n_c == 1
    )


def hosvd_stage(data: LabeledTensorSet, config: TrainingConfig):
    """HOSVD of the stacked samples with the sample mode exempt, truncated
    to ``config.hosvd_ranks`` when given, else by ``config.theta``."""
    n = data.order
    ranks = None
    if config.hosvd_ranks is not None:
        if len(config.hosvd_ranks) != n:
            raise ConfigurationError(
                f"expected {n} HOSVD ranks, got {len(config.hosvd_ranks)}"
            )
        ranks = list(config.hosvd_ranks) + [data.n_samples]
    return hosvd(
        data.samples,
        ranks=ranks,
        theta=config.theta if ranks is None else None,
        exempt_modes={n},
    )


def _train_multilinear(data: LabeledTensorSet, config: TrainingConfig, kind: str) -> GdaModel:
    if data.n_samples < 2 or data.n_classes < 2:
        raise ConfigurationError("training needs at least 2 samples and 2 classes")
    n = data.order
    stage_seconds = {}

    t0 = time.perf_counter()
    if kind in ("gda", "hopca"):
        decomposition = hosvd_stage(data, config)
        hosvd_factors = list(decomposition.factors[:n])
        kept = decomposition.kept_ranks[:n]
        mode_energy = decomposition.mode_energy[:n]
        core_data = LabeledTensorSet(decomposition.core, data.labels, data.subjects)
    else:  # mda: identity stage
        hosvd_factors = [np.eye(s) for s in data.sample_shape]
        kept = data.sample_shape
        mode_energy = tuple(1.0 for _ in range(n))
        core_data = data
    stage_seconds["hosvd"] = time.perf_counter() - t0

    dims = config.target_dims or default_target_dims(kept, data.n_classes)
    for k, d in enumerate(dims):
        if d > kept[k]:
            raise ConfigurationError(
                f"target dim {d} exceeds the {kept[k]} dims kept for mode {k}; "
                "raise theta or the HOSVD ranks"
            )

    t0 = time.perf_counter()
    if kind == "hopca":
        disc = [np.eye(kept[k])[:, : dims[k]] for k in range(n)]
        objective_trace: tuple = ()
        change_trace: tuple = ()
    else:
        result = k_mode_optimize(core_data, replace(config, target_dims=tuple(dims)))
        disc = result.factors
        objective_trace = result.objective_trace
        change_trace = result.subspace_change_trace
    stage_seconds["optimize"] = time.perf_counter() - t0

    combined = [hosvd_factors[k] @ disc[k] for k in range(n)]
    model = GdaModel(
        kind=kind,
        sample_shape=data.sample_shape,
        combined=combined,
        gallery=np.empty(0),
        gallery_labels=data.labels.copy(),
        hosvd_ranks=tuple(kept),
        mode_energy=tuple(mode_energy),
        objective_trace=objective_trace,
        subspace_change_trace=change_trace,
        config=config,
        warnings=_singleton_warnings(data),
        stage_seconds=stage_seconds,
    )
    model.gallery = model.project(data.samples)
    return model


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


def train_pca(data: LabeledTensorSet, dims: int | None = None) -> GdaModel:
    """Vectorizing PCA baseline (top principal directions of the centered
    sample vectors)."""
    t0 = time.perf_counter()
    mean_vector, _, basis = vector_pca(data, dims)
    model = GdaModel(
        kind="pca",
        sample_shape=data.sample_shape,
        combined=[basis],
        gallery=np.empty(0),
        gallery_labels=data.labels.copy(),
        mean_vector=mean_vector,
        warnings=_singleton_warnings(data),
        stage_seconds={"optimize": time.perf_counter() - t0},
    )
    model.gallery = model.project(data.samples)
    return model


def train_fisherface(
    data: LabeledTensorSet,
    pca_dims: int | None = None,
    lda_dims: int | None = None,
    ridge: float = 1e-6,
) -> GdaModel:
    """PCA to ``pca_dims`` (default ``m - C``) then vector discriminant
    analysis to ``lda_dims`` (default ``C - 1``) on the reduced vectors,
    whose scatters come from :func:`scatter_matrices` on an order-1 set."""
    t0 = time.perf_counter()
    n_classes = data.n_classes
    if n_classes < 2:
        raise ConfigurationError("fisherface needs at least 2 classes")
    if pca_dims is None:
        pca_dims = data.n_samples - n_classes
    mean_vector, centered, pca_basis = vector_pca(data, pca_dims, "fisherface pca dims")
    if lda_dims is None:
        lda_dims = n_classes - 1
    if not 1 <= lda_dims <= min(n_classes - 1, pca_dims):
        raise ConfigurationError(
            f"fisherface lda dims must lie in [1, {min(n_classes - 1, pca_dims)}]"
        )
    reduced = LabeledTensorSet(pca_basis.T @ centered, data.labels)
    pair = scatter_matrices(reduced, [None], 0)
    lda_basis = ratio_trace_eig(pair.s_b, pair.s_w, lda_dims, ridge)

    combined = pca_basis @ lda_basis
    model = GdaModel(
        kind="fisherface",
        sample_shape=data.sample_shape,
        combined=[combined],
        gallery=np.empty(0),
        gallery_labels=data.labels.copy(),
        mean_vector=mean_vector,
        warnings=_singleton_warnings(data),
        stage_seconds={"optimize": time.perf_counter() - t0},
    )
    model.gallery = model.project(data.samples)
    return model
