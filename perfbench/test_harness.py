"""Self-test of the harness's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402


def test_rank_is_smallest_rank_covering_the_fraction():
    for n in range(1, 400):
        for q in (50, 90, 95, 99):
            r = stats.rank(n, q)
            assert r * 100 >= q * n and (r == 1 or (r - 1) * 100 < q * n)


def test_p95_needs_200_samples_for_ten_beyond():
    assert stats.rank(200, 95) == 190
    assert stats.samples_beyond(200, 95) == 10
    assert stats.min_samples(95) == 200
    assert stats.percentile(list(range(200, 0, -1)), 95) == 190
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)


def test_blocked_p95_is_the_median_of_per_block_p95():
    blocks = [list(range(1, 201)), [10 * v for v in range(1, 201)], list(range(2, 202))]
    values = [v for block in blocks for v in block] + [10**6] * 199
    assert stats.blocked_percentile(values, 95) == 191
    with pytest.raises(ValueError):
        stats.blocked_percentile(list(range(199)), 95)


def test_blocked_mean_is_the_median_of_block_means():
    values = [1.0, 3.0, 2.0, 2.0, 10.0, 10.0, 4.0, 4.0, 100.0]
    assert stats.blocked_mean(values, 2) == (2.0 + 4.0) / 2
    assert stats.blocked_mean(values, 4) == (2.0 + 7.0) / 2
    with pytest.raises(ValueError):
        stats.blocked_mean(values[:3], 4)


def test_p50_is_the_lower_middle_value():
    assert stats.percentile(list(range(1, 21)), 50) == 10
    assert stats.percentile(list(range(1, 22)), 50) == 11


def test_covered_merges_overlapping_and_nested_intervals():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert tracing.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def span(name, start, end, parent, mode=None, cycle=1):
    return (name, start, end, parent, cycle, mode)


def test_self_time_subtracts_children_and_partitions_the_root():
    own = {
        0: span("harness.cycle", 0.0, 10.0, -1),
        1: span("evaluation.train_method", 1.0, 6.0, 0),
        2: span("hosvd.hosvd", 1.5, 3.0, 1),
        3: span("linalg.svd", 2.0, 2.5, 2),
        4: span("evaluation.classify", 7.0, 8.0, 0),
    }
    selfs = tracing.self_times(own)
    assert selfs == {0: 4.0, 1: 3.5, 2: 1.0, 3: 0.5, 4: 1.0}
    assert sum(selfs.values()) == 10.0


def test_cycle_metrics_assign_modes_and_add_up():
    own = {
        0: span("harness.cycle", 0.0, 20.0, -1),
        1: span("evaluation.train_method", 0.0, 19.0, 0),
        2: span("hosvd.hosvd", 0.0, 3.0, 1),
        3: span("linalg.svd", 0.0, 1.0, 2),
        4: span("linalg.sym_eig", 1.0, 3.0, 2),
        5: span("training.k_mode_optimize", 3.0, 18.0, 1),
        6: span("training.eval_objective", 3.0, 4.0, 5),
        7: span("training.scatter_matrices", 4.0, 6.0, 5, mode=0),
        8: span("linalg.ratio_trace_eig", 6.0, 7.0, 5),
        9: span("training.scatter_matrices", 7.0, 10.0, 5, mode=1),
        10: span("linalg.ratio_trace_eig", 10.0, 12.0, 5),
        11: span("training.eval_objective", 12.0, 13.0, 5),
        12: span("training.project", 18.0, 19.0, 1),
    }
    m = tracing.cycle_metrics(own, n_modes=2)
    assert (m["hosvd.basis_s.m0"], m["hosvd.basis_s.m1"], m["hosvd.basis_s.m2"]) == (1.0, 2.0, 0.0)
    assert m["hosvd.gram_modes"] == 1
    assert (m["training.scatter_s.m0"], m["training.scatter_s.m1"]) == (2.0, 3.0)
    assert (m["linalg.ratio_trace_eig_s.m0"], m["linalg.ratio_trace_eig_s.m1"]) == (1.0, 2.0)
    assert m["training.sweeps"] == 1
    assert m["training.gallery_s"] == 1.0
    assert m["trace.cycle_s"] == 20.0
    assert m["harness.self_s"] == 1.0
    assert m["training.self_s"] == 13.0
    assert m["evaluation.self_s"] == 0.0 and m["hosvd.self_s"] == 0.0
    assert m["linalg.self_s"] == 6.0


def test_tracer_records_nested_spans_and_restores_the_package():
    import tensorgda.tensor as tensor
    import tensorgda.training as training
    from tensorgda.datasets import synth_gaussian_classes

    original = tensor.mode_product
    project = vars(training.GdaModel)["project"]
    data = synth_gaussian_classes(3, 3, (4, 3), 4.0, 1.0, seed=0)
    tracer = tracing.Tracer()
    with tracer.traced(1):
        model = training.train_gda(data)
    assert tensor.mode_product is original
    assert vars(training.GdaModel)["project"] is project
    own = {sid: s for sid, s in enumerate(tracer.spans)}
    names = {s[0] for s in own.values()}
    assert {"hosvd.hosvd", "training.k_mode_optimize", "tensor.mode_product",
            "training.scatter_matrices", "linalg.svd"} <= names
    m = tracing.cycle_metrics(own, n_modes=2)
    assert m["training.sweeps"] == len(model.objective_trace) - 1
    untraced = training.train_gda(data)
    assert np.array_equal(model.gallery, untraced.gallery)
