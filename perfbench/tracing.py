"""Spans recorded from outside the package.

The tracer replaces the module attributes through which the package's
layers call each other with timing wrappers.  Each wrapper records one span
``(name, start, end, parent, cycle, mode)``; spans stay in memory and are
written as gzipped JSON lines when the run ends.  A span's name is
``<layer>.<function>``, where the layer is the module that defines the
function, so ``linalg.svd`` is the SVD as called from the HOSVD.

A span's self time is its duration minus the part of it that its child
spans cover; the self times of a cycle's spans partition the cycle's root
span, which is how per-layer times are made to add up to ``cycle_s``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from time import perf_counter

from stats import median

ROOT_SPAN = "harness.cycle"


def _patch_points():
    """``(owner, attribute, span name, index of the mode argument)`` for
    every wrapped call.  ``tensorgda.hosvd`` on the package is the function,
    so the module is taken from ``sys.modules``."""
    training = sys.modules["tensorgda.training"]
    hosvd = sys.modules["tensorgda.hosvd"]
    evaluation = sys.modules["tensorgda.evaluation"]
    return [
        (training, "hosvd", "hosvd.hosvd", None),
        (training, "k_mode_optimize", "training.k_mode_optimize", None),
        (training, "scatter_matrices", "training.scatter_matrices", 2),
        (training, "ratio_trace_eig", "linalg.ratio_trace_eig", None),
        (training, "eval_objective", "training.eval_objective", None),
        (training.GdaModel, "project", "training.project", None),
        (evaluation, "evaluate_split", "evaluation.evaluate_split", None),
        (evaluation, "train_method", "evaluation.train_method", None),
        (evaluation, "classify", "evaluation.classify", None),
        (hosvd, "svd", "linalg.svd", None),
        (hosvd, "sym_eig", "linalg.sym_eig", None),
        (sys.modules["tensorgda.tensor"], "mode_product", "tensor.mode_product", None),
        (sys.modules["tensorgda.datasets"], "load_manifest", "datasets.load_manifest", None),
        (sys.modules["tensorgda.datasets"], "load_image", "datasets.load_image", None),
        (sys.modules["tensorgda.model_io"], "save_model", "model_io.save_model", None),
        (sys.modules["tensorgda.model_io"], "load_model", "model_io.load_model", None),
    ]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cycle = None
        self._originals = []

    def _wrap(self, fn, name, mode_index):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            mode = None
            if mode_index is not None:
                mode = kwargs.get("mode", args[mode_index] if len(args) > mode_index else None)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.cycle, mode)

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, mode_index in _patch_points():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, mode_index))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced(self, cycle, root=ROOT_SPAN):
        """Record everything inside the block as cycle ``cycle`` under one
        root span of the harness's own."""
        self.cycle = cycle
        self.install()
        try:
            with self.span(root):
                yield
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, start, end, parent, self.cycle, None)

    def write(self, path, origin: float) -> None:
        """Spans as gzipped JSON lines, times in seconds since ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, cycle, mode) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "cycle": cycle,
                    "mode": mode,
                }) + "\n")


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(own: dict) -> dict:
    """Self time of every span in ``own`` (span id -> span)."""
    children = {}
    for span in own.values():
        children.setdefault(span[3], []).append((span[1], span[2]))
    return {
        sid: (span[2] - span[1]) - covered(children.get(sid, ()))
        for sid, span in own.items()
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: layers whose self time is reported; ``tensor`` is all ``mode_product``
#: and ``model_io`` all save/load, which have metrics of their own
SELF_LAYERS = ("harness", "evaluation", "training", "hosvd", "linalg")


def cycle_metrics(own: dict, n_modes: int) -> dict:
    """Per-layer figures of one traced cycle from its spans (id -> span).

    Per-mode numbers come from the ``mode`` argument of
    ``scatter_matrices`` and from call order otherwise: the HOSVD solves
    its modes in order, and each sweep solves one ratio problem per mode.
    """
    selfs = self_times(own)
    by_parent, by_name = {}, {}
    for sid, s in own.items():
        by_parent.setdefault(s[3], []).append(sid)
        by_name.setdefault(s[0], []).append(sid)

    def dur(sid):
        return own[sid][2] - own[sid][1]

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur(sid) for sid in named(name))

    def kids(sid, name):
        return sorted((c for c in by_parent.get(sid, ()) if own[c][0] == name),
                      key=lambda c: own[c][1])

    m = {}
    modes = range(max(n_modes, 3))
    basis = {k: 0.0 for k in modes}
    gram = []
    for h in named("hosvd.hosvd"):
        solves = sorted(kids(h, "linalg.svd") + kids(h, "linalg.sym_eig"),
                        key=lambda c: own[c][1])
        for k, c in enumerate(solves):
            basis[k] += dur(c)
        gram.append(len(kids(h, "linalg.sym_eig")))
    m["hosvd.s"] = total("hosvd.hosvd")
    for k in modes:
        m[f"hosvd.basis_s.m{k}"] = basis[k]
    m["hosvd.gram_modes"] = max(gram, default=0)

    scatter = {k: 0.0 for k in modes}
    for sid in named("training.scatter_matrices"):
        scatter[own[sid][5]] += dur(sid)
    eig = {k: 0.0 for k in modes}
    sweeps = []
    for opt in named("training.k_mode_optimize"):
        for i, c in enumerate(kids(opt, "linalg.ratio_trace_eig")):
            eig[i % n_modes] += dur(c)
        sweeps.append(len(kids(opt, "training.eval_objective")) - 1)
    m["training.optimize_s"] = total("training.k_mode_optimize")
    m["training.sweeps"] = max(sweeps, default=0)
    for k in modes:
        m[f"training.scatter_s.m{k}"] = scatter[k]
    m["training.scatter_calls"] = len(named("training.scatter_matrices"))
    m["training.objective_s"] = total("training.eval_objective")
    m["training.objective_calls"] = len(named("training.eval_objective"))
    m["training.gallery_s"] = sum(
        dur(sid) for sid in named("training.project")
        if own[own[sid][3]][0] == "evaluation.train_method"
    )
    for k in modes:
        m[f"linalg.ratio_trace_eig_s.m{k}"] = eig[k]
    m["linalg.ratio_trace_eig_calls"] = len(named("linalg.ratio_trace_eig"))

    m["tensor.mode_product_calls"] = len(named("tensor.mode_product"))
    m["tensor.mode_product_s"] = total("tensor.mode_product")

    project_ms, distance_ms = [], []
    for q in named("evaluation.classify"):
        inner = sum(dur(c) for c in kids(q, "training.project"))
        project_ms.append(1e3 * inner)
        distance_ms.append(1e3 * (dur(q) - inner))
    m["evaluation.train_s"] = total("evaluation.train_method")
    m["evaluation.classify_s"] = total("evaluation.classify")
    m["evaluation.query_project_ms"] = median(project_ms) if project_ms else 0.0
    m["evaluation.query_distance_ms"] = median(distance_ms) if distance_ms else 0.0

    m["model_io.save_s"] = total("model_io.save_model")
    m["model_io.load_s"] = total("model_io.load_model")

    layer_self = {}
    for sid, s in own.items():
        layer = layer_of(s[0])
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[sid]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["trace.cycle_s"] = total(ROOT_SPAN)
    if abs(m["trace.cycle_s"] - sum(layer_self.values())) > 1e-9 * len(own):
        raise ValueError("self times do not add up to the cycle's duration")
    return m


def setup_metrics(own: dict) -> dict:
    """Dataset figures of one traced set-up from its spans (id -> span)."""
    spans = own.values()
    return {
        "datasets.load_manifest_s": sum(
            s[2] - s[1] for s in spans if s[0] == "datasets.load_manifest"
        ),
        "datasets.frames_read": sum(1 for s in spans if s[0] == "datasets.load_image"),
    }
