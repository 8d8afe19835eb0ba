"""Bounds on the memory that training, evaluation and projection hold.

Each bound is on the peak of the bytes ``tracemalloc`` traces (numpy
reports its array buffers there) above those live when the call starts,
so it counts every copy the call makes, whatever the BLAS thread count.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import tensorgda.evaluation as ev
import tensorgda.training as tr
from tensorgda.datasets import synth_gaussian_classes
from tensorgda.training import LabeledTensorSet, TrainingConfig


class Traced:
    """Traces allocations inside a ``with`` block: :meth:`live` during it
    and ``peak`` after it count the bytes above those live when it began."""

    def __enter__(self):
        gc.collect()
        self.was_tracing = tracemalloc.is_tracing()
        if not self.was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self.start = tracemalloc.get_traced_memory()[0]
        return self

    def live(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.start

    def __exit__(self, *exc_info):
        self.peak = tracemalloc.get_traced_memory()[1] - self.start
        if not self.was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Run each method once, so that no lazy import lands in a measured peak."""
    data = synth_gaussian_classes(3, 4, (6, 5, 4), 3.0, 1.0, seed=1)
    for method in ev.METHODS:
        ev.evaluate_split(data, method, TrainingConfig(), 2, trials=1)


# at its peak a gda training holds the training set, the within-class
# deviations of the core and one sweep's projected deviations; a second
# copy of the set, such as the core beside the deviations, crosses this
BOUND_TIMES_TRAINING_SET = 3.25


@pytest.mark.parametrize("shape, classes, per_class", [
    ((24, 16, 8), 10, 8),
    ((32, 22, 10), 20, 5),  # a gait-split fold's training set
])
def test_training_peak_is_bounded_by_the_training_set(shape, classes, per_class):
    data = synth_gaussian_classes(classes, per_class, shape, 0.3, 1.0, seed=3)
    with Traced() as traced:
        tr.train_gda(data, TrainingConfig())
    assert traced.peak < BOUND_TIMES_TRAINING_SET * data.samples.nbytes


@pytest.mark.parametrize("method", ["gda", "hopca", "pca"])
def test_a_fold_never_holds_its_training_and_test_subsets_at_once(method, monkeypatch):
    data = synth_gaussian_classes(8, 10, (16, 12, 8), 0.5, 1.0, seed=4)
    subset_bytes = data.samples.nbytes // 2  # a 5/5 split
    # the buffer of every subset built while the fold runs
    subsets = []
    subset = LabeledTensorSet.subset

    def recorded_subset(self, indices):
        built = subset(self, indices)
        subsets.append(weakref.ref(built.samples))
        return built

    def alive():
        return [s for s in (ref() for ref in subsets) if s is not None]

    train, classify_many = ev.train_method, ev.classify_many
    live_at_training = []

    def train_alone(method, train_set, config):
        live_at_training.append(traced.live())
        assert [s is train_set.samples for s in alive()] == [True]
        return train(method, train_set, config)

    def classify_alone(model, samples):
        assert [s is samples for s in alive()] == [True]
        return classify_many(model, samples)

    monkeypatch.setattr(LabeledTensorSet, "subset", recorded_subset)
    monkeypatch.setattr(ev, "train_method", train_alone)
    monkeypatch.setattr(ev, "classify_many", classify_alone)
    with Traced() as traced:
        report = ev.evaluate_split(data, method, TrainingConfig(), 5, trials=1, seed=0)
    assert len(subsets) == 2 and alive() == []
    # training starts with its own subset live and the test subset not yet built
    assert live_at_training[0] < 1.25 * subset_bytes
    assert report.test_counts == (5,) * 8


@pytest.mark.parametrize("method", ["gda", "mda", "pca"])
def test_more_trials_hold_no_more_memory(method):
    """Each fold's model is freed before the next fold trains."""
    data = synth_gaussian_classes(10, 16, (24, 16, 8), 0.3, 1.0, seed=5)
    peaks = []
    for trials in (1, 3):
        with Traced() as traced:
            ev.evaluate_split(data, method, TrainingConfig(), 8, trials=trials)
        peaks.append(traced.peak)
    one, three = peaks
    assert three <= 1.02 * one


@pytest.mark.parametrize("method", ["gda", "hopca", "pca"])
def test_projection_transient_does_not_grow_with_the_stack(method):
    data = synth_gaussian_classes(3, 4, (64, 64), 3.0, 1.0, seed=6)
    model = ev.train_method(method, data, TrainingConfig())
    block = tr._PROJECT_BYTES // data.samples[..., 0].nbytes  # samples at a time
    rng = np.random.default_rng(7)
    transients = []
    for blocks in (2, 8):
        samples = rng.standard_normal(data.sample_shape + (blocks * block,))
        with Traced() as traced:
            projected = model.project(samples)
        transients.append(traced.peak - projected.nbytes)
        del samples, projected
    short, long = transients
    assert long <= short + 64 * 1024
    assert short < 4 * tr._PROJECT_BYTES
