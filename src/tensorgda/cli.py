"""Batch command-line front end.

Subcommands: ``train``, ``evaluate``, ``classify``, ``compress``,
``visualize``, ``synth``.  Data comes from a manifest file or an inline
synthetic spec (``--synth "c=10,per_class=10,shape=8x8,separation=8,noise=1"``).
A ``--config`` file of ``key = value`` lines can set any long flag; explicit
command-line flags win.

Exit codes: 0 success, 2 usage/configuration, 3 data (including an input
file that cannot be read or decoded and an output file that cannot be
written), 4 numeric failure.
All outputs are deterministic given the inputs and ``--seed``.  The
library reads no clock: each command times itself at this boundary and
prints one wall-clock line to stdout (``train`` its training, ``evaluate``
each method's protocol run, ``compress`` its HOSVD), never into a file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import tensor
from .datasets import load_manifest, save_sample, synth_gaussian_classes
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DatasetError,
    DegenerateModeError,
    DimensionError,
    NumericInputError,
    SingularityError,
    TensorGdaError,
)
from .evaluation import (
    METHODS,
    classify_many,
    evaluate_loo,
    evaluate_split,
    export_projection_2d,
    train_method,
    write_projection_csv,
)
from .hosvd import hopca_compression_fraction, psnr
from .model_io import load_model, save_model, save_report
from .training import TrainingConfig, hosvd_stage, vector_pca

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def parse_dims(text: str) -> tuple:
    """Parse an ``AxBxC`` dimension list."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigurationError(f"cannot parse dims {text!r}; expected e.g. 4x4x2")
    if not dims or min(dims) < 1:
        raise ConfigurationError(f"dims must be positive, got {text!r}")
    return dims


def parse_synth_spec(text: str) -> dict:
    """Parse ``key=value`` pairs of a synthetic-data spec."""
    spec = {"classes": 10, "per_class": 10, "separation": 8.0, "noise": 1.0}
    shape = None
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigurationError(f"malformed synth item {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        key = key.lower().replace("-", "_")
        try:
            if key in ("c", "classes"):
                spec["classes"] = int(value)
            elif key == "per_class":
                spec["per_class"] = int(value)
            elif key == "shape":
                shape = parse_dims(value)
            elif key == "separation":
                spec["separation"] = float(value)
            elif key == "noise":
                spec["noise"] = float(value)
            else:
                raise ConfigurationError(f"unknown synth key {key!r}")
        except ValueError:
            raise ConfigurationError(f"invalid synth value {key}={value!r}") from None
    if shape is None:
        raise ConfigurationError("synth spec needs a shape, e.g. shape=8x8x4")
    spec["shape"] = shape
    return spec


def load_data(args):
    if getattr(args, "manifest", None):
        return load_manifest(args.manifest)
    if getattr(args, "synth", None):
        spec = parse_synth_spec(args.synth)
        return synth_gaussian_classes(
            spec["classes"],
            spec["per_class"],
            spec["shape"],
            spec["separation"],
            spec["noise"],
            seed=args.seed,
        )
    raise ConfigurationError("provide --manifest or --synth")


def build_config(args) -> TrainingConfig:
    """The training config of the flags that are set; ``TrainingConfig``
    supplies the defaults and validates."""
    values = {
        "target_dims": parse_dims(args.dims) if args.dims else None,
        "theta": args.theta,
        "hosvd_ranks": parse_dims(args.ranks) if args.ranks else None,
        "max_iters": args.max_iters,
        "conv_tol": args.conv_tol,
        "ridge": args.ridge,
        "pca_dims": args.pca_dims,
        "fisherface_pca_dims": args.fisher_pca_dims,
        "fisherface_lda_dims": args.fisher_lda_dims,
    }
    return TrainingConfig(**{k: v for k, v in values.items() if v is not None})


def read_config_file(path) -> dict:
    """Parsed and checked flag values of a ``key = value`` config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in _CONFIG_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[dest] = _CONFIG_TYPES[dest](value)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: invalid value {value!r} for {key!r}"
            ) from None
        if dest in _CONFIG_CHOICES and values[dest] not in _CONFIG_CHOICES[dest]:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} must be one of "
                f"{', '.join(_CONFIG_CHOICES[dest])}, got {value!r}"
            )
    return values


# value parsers for config-file entries, per destination
_CONFIG_TYPES = {
    "manifest": str,
    "synth": str,
    "seed": int,
    "method": str,
    "theta": float,
    "ranks": str,
    "dims": str,
    "max_iters": int,
    "conv_tol": float,
    "ridge": float,
    "pca_dims": int,
    "fisher_pca_dims": int,
    "fisher_lda_dims": int,
    "trials": int,
    "train_per_class": int,
    "protocol": str,
    "plane": str,
    "pca_components": int,
    "output": str,
    "output_dir": str,
}

PROTOCOLS = ("split", "loo")
PLANES = ("1x2", "2x1", "pair")
# the allowed values of the config-file entries whose flags have choices
_CONFIG_CHOICES = {"protocol": PROTOCOLS, "plane": PLANES}


def add_common_flags(sub, with_method: bool = True):
    sub.add_argument("--manifest", help="manifest file of samples")
    sub.add_argument("--synth", help="inline synthetic spec, e.g. "
                     "'c=10,per_class=10,shape=8x8,separation=8,noise=1'")
    sub.add_argument("--config", help="key = value file supplying defaults")
    sub.add_argument("--seed", type=int, default=None, help="default 0")
    sub.add_argument("--theta", type=float, default=None,
                     help="HOSVD energy threshold (default 0.98)")
    sub.add_argument("--ranks", default=None, help="explicit HOSVD ranks, e.g. 6x6x3")
    sub.add_argument("--dims", default=None, help="projected dims, e.g. 3x3x2")
    sub.add_argument("--max-iters", type=int, default=None,
                     help="cap on discriminant sweeps (default 10)")
    sub.add_argument("--conv-tol", type=float, default=None,
                     help="stop the sweeps once one moves the objective by at most "
                     "this fraction of its previous value (default 1e-3)")
    sub.add_argument("--ridge", type=float, default=None)
    sub.add_argument("--pca-dims", type=int, default=None)
    sub.add_argument("--fisher-pca-dims", type=int, default=None)
    sub.add_argument("--fisher-lda-dims", type=int, default=None)
    if with_method:
        sub.add_argument("--method", default="gda",
                         help=f"one of {', '.join(METHODS)}")


def cmd_train(args) -> int:
    data = load_data(args)
    config = build_config(args)
    t0 = time.perf_counter()
    model = train_method(args.method, data, config)
    train_seconds = time.perf_counter() - t0
    save_model(model, args.output)
    dims = "x".join(str(d) for d in model.projected_shape)
    print(f"method = {args.method}")
    print(f"samples = {data.n_samples}")
    print(f"projected_dims = {dims}")
    if model.hosvd_ranks is not None:
        print("hosvd_ranks = " + "x".join(str(r) for r in model.hosvd_ranks))
    if model.objective_trace:
        trace = " ".join(repr(float(v)) for v in model.objective_trace)
        print(f"objective_trace = {trace}")
    if model.subspace_change_trace:
        trace = " ".join(repr(float(v)) for v in model.subspace_change_trace)
        print(f"subspace_change_trace = {trace}")
    for warning in model.warnings:
        print(f"warning: {warning}")
    print(f"time train = {train_seconds:.3f}s")
    print(f"model written to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    data = load_data(args)
    config = build_config(args)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no methods given")
    trials = args.trials if args.trials is not None else 10
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method in methods:
        t0 = time.perf_counter()
        if args.protocol == "split":
            if args.train_per_class is None:
                raise ConfigurationError("split protocol needs --train-per-class")
            report = evaluate_split(
                data, method, config,
                train_per_class=args.train_per_class,
                trials=trials, seed=args.seed,
            )
        else:
            report = evaluate_loo(data, method, config, seed=args.seed)
        seconds = time.perf_counter() - t0
        path = out_dir / f"report_{args.protocol}_{method}.txt"
        save_report(report, path)
        extra = ""
        if report.macro_accuracy is not None:
            extra = f" (macro {report.macro_accuracy:.2f}%)"
        print(
            f"{method}: mean accuracy {report.mean_accuracy:.2f}%{extra} "
            f"over {len(report.trial_accuracies)} "
            f"{'folds' if args.protocol == 'loo' else 'trials'} -> {path}"
        )
        print(f"  time = {seconds:.3f}s")
    return 0


def _match_pca_components(fraction: float, m: int, length: int) -> int:
    # closest vector-PCA component count to a target storage fraction
    ideal = fraction * m * length / (m + length)
    return int(min(max(round(ideal), 1), min(m - 1, length)))


def cmd_compress(args) -> int:
    data = load_data(args)
    n = data.order
    t0 = time.perf_counter()
    decomposition = hosvd_stage(data, build_config(args))
    hosvd_seconds = time.perf_counter() - t0
    dims = decomposition.kept_ranks[:n]
    factors = decomposition.factors[:n]
    extents = data.sample_shape
    m_samples = data.n_samples
    length = int(np.prod(extents))

    hopca_fraction = hopca_compression_fraction(m_samples, extents, dims)
    p = args.pca_components
    if p is None:
        p = _match_pca_components(hopca_fraction, m_samples, length)
    mean_vec, centered, basis = vector_pca(data, p, "pca components")
    pca_fraction = hopca_compression_fraction(m_samples, (length,), (p,))

    # multilinear reconstruction: project onto each mode's kept basis;
    # a square orthonormal basis projects to the identity, so skip it and
    # keep full-rank reconstruction exact
    projections = [
        (f @ f.T, k) for k, f in enumerate(factors) if f.shape[0] != f.shape[1]
    ]
    pca_recon = mean_vec[:, None] + basis @ (basis.T @ centered)

    psnr_h = []
    psnr_p = []
    recon_dir = Path(args.save_reconstructions) if args.save_reconstructions else None
    if recon_dir is not None:
        recon_dir.mkdir(parents=True, exist_ok=True)
    hopca_recon = tensor._per_sample_products(data.samples, projections)
    for i, restored in enumerate(np.moveaxis(hopca_recon, -1, 0)):
        original = data.samples[..., i]
        psnr_h.append(psnr(original, restored))
        pca_restored = pca_recon[:, i].reshape(extents, order="F")
        psnr_p.append(psnr(original, pca_restored))
        if recon_dir is not None:
            for tag, sample in (("hopca", restored), ("pca", pca_restored)):
                save_sample(recon_dir, f"{tag}_{i:04d}", np.clip(np.rint(sample), 0, 255))

    lines = ["# tensorgda compression report v1"]
    lines.append(f"samples = {m_samples}")
    lines.append("sample_shape = " + "x".join(str(e) for e in extents))
    lines.append("hopca_dims = " + "x".join(str(d) for d in dims))
    lines.append(f"pca_components = {p}")
    lines.append(f"cr_hopca = {repr(hopca_fraction)}")
    lines.append(f"hopca_ratio = {repr(1.0 / hopca_fraction)}")
    lines.append(f"cr_pca = {repr(pca_fraction)}")
    lines.append(f"pca_ratio = {repr(1.0 / pca_fraction)}")
    lines.append(f"psnr_hopca_mean_db = {repr(float(np.mean(psnr_h)))}")
    lines.append(f"psnr_pca_mean_db = {repr(float(np.mean(psnr_p)))}")
    lines.append("[per_sample]")
    lines.append("index\tpsnr_hopca_db\tpsnr_pca_db")
    for i, (a, b) in enumerate(zip(psnr_h, psnr_p)):
        lines.append(f"{i}\t{repr(a)}\t{repr(b)}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"compression report written to {args.output}")
    else:
        sys.stdout.write(text)
    print(f"time hosvd = {hosvd_seconds:.3f}s")
    return 0


def cmd_visualize(args) -> int:
    data = load_data(args)
    if args.model:
        model = load_model(args.model)
    else:
        model = train_method(args.method, data, build_config(args))
    rows = export_projection_2d(model, data, plane=args.plane)
    write_projection_csv(rows, args.output)
    print(f"{len(rows)} rows written to {args.output}")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    data = load_data(args)
    labels, _, distances = classify_many(model, data.samples)
    lines = ["index\tpredicted\tdistance\ttruth"]
    correct = 0
    for i, (label, dist, truth) in enumerate(zip(labels, distances, data.labels)):
        if label == truth:
            correct += 1
        lines.append(f"{i}\t{label}\t{repr(float(dist))}\t{truth}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"predictions written to {args.output}")
    else:
        sys.stdout.write(text)
    print(f"accuracy = {100.0 * correct / data.n_samples:.2f}%")
    return 0


def cmd_synth(args) -> int:
    spec = parse_synth_spec(args.spec)
    data = synth_gaussian_classes(
        spec["classes"], spec["per_class"], spec["shape"],
        spec["separation"], spec["noise"], seed=args.seed,
    )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lo = float(data.samples.min())
    hi = float(data.samples.max())
    scale = 255.0 / (hi - lo) if hi > lo else 1.0
    quantized = np.clip(np.rint((data.samples - lo) * scale), 0, 255)

    manifest_lines = ["# generated synthetic dataset"]
    if data.order == 3:
        manifest_lines.append(f"@frames {data.sample_shape[-1]}")
    for i in range(data.n_samples):
        name = save_sample(out_dir, f"sample_{i:04d}", quantized[..., i])
        manifest_lines.append(f"{name}\t{data.labels[i]}\t{data.subjects[i]}")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    print(f"{data.n_samples} samples and {manifest} written")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgda",
        description="Multilinear discriminant analysis toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model and save it")
    add_common_flags(p)
    p.add_argument("--output", default="model.json", help="model file path")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="run an evaluation protocol")
    add_common_flags(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default="split")
    p.add_argument("--train-per-class", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--output-dir", default=".", help="directory for report files")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("compress", help="HOSVD compression and quality metrics")
    add_common_flags(p, with_method=False)
    p.add_argument("--pca-components", type=int, default=None,
                   help="vector-PCA components (default: match the HOPCA ratio)")
    p.add_argument("--output", default=None, help="report file (default stdout)")
    p.add_argument("--save-reconstructions", default=None,
                   help="directory for reconstructed PGM output")
    p.set_defaults(func=cmd_compress)

    p = subs.add_parser("visualize", help="export 2D projection coordinates")
    add_common_flags(p)
    p.add_argument("--model", default=None, help="use a saved model instead of training")
    p.add_argument("--plane", choices=PLANES, default="pair")
    p.add_argument("--output", default="projection.csv")
    p.set_defaults(func=cmd_visualize)

    p = subs.add_parser("classify", help="classify samples with a saved model")
    add_common_flags(p, with_method=False)
    p.add_argument("--model", required=True)
    p.add_argument("--output", default=None, help="predictions file (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("synth", help="write a synthetic dataset to disk")
    p.add_argument("--spec", required=True,
                   help="e.g. 'c=10,per_class=10,shape=8x8,separation=8,noise=1'")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_synth)

    for sub in subs.choices.values():
        sub.set_defaults(command_parser=sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become the subcommand's defaults, so flags
            # given on the command line still win when parsed again
            args.command_parser.set_defaults(**read_config_file(args.config))
            args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = 0
        code = args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # reads map theirs to DatasetError; this is mostly output
        print(f"error: cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA
    except (SingularityError, ConvergenceError, NumericInputError,
            DegenerateModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TensorGdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
