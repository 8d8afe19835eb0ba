"""Batch command-line front end.

Subcommands: ``train``, ``evaluate``, ``classify``, ``compress``,
``visualize``, ``synth``.  Data comes from a manifest file or an inline
synthetic spec (``--synth "c=10,per_class=10,shape=8x8,separation=8,noise=1"``).
A ``--config`` file of ``key = value`` lines can set the long flags; each
subcommand reads the keys of its own flags and skips those only other
subcommands take, and explicit command-line flags win.

A failure prints one ``error:`` line to stderr and exits with its error
class's ``exit_code`` (see ``errors``); an output file that cannot be
opened or written exits 3.  A run whose stdout reader goes away, as in
``tensorgda classify ... | head -n 1``, ends with no message and exit 141.
All outputs are deterministic given the inputs and ``--seed``.  The
library reads no clock: each command times itself at this boundary and
prints one wall-clock line to stdout (``train`` its training, ``evaluate``
each method's protocol run, ``compress`` its HOSVD), never into a file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datasets import load_manifest, save_dataset, save_sample, synth_gaussian_classes
from .errors import ConfigurationError, DatasetError, TensorGdaError
from .evaluation import (
    METHODS,
    classify_many,
    evaluate_loo,
    evaluate_split,
    export_projection_2d,
    train_method,
    write_projection_csv,
)
from .hosvd import hopca_compression_fraction, psnr, reconstruct
from .model_io import format_report, load_model, save_model, save_report, write_file
from .training import TrainingConfig, hosvd_stage, vector_pca


def parse_dims(text: str) -> tuple:
    """Parse an ``AxBxC`` dimension list."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigurationError(f"cannot parse dims {text!r}; expected e.g. 4x4x2")
    if not dims or min(dims) < 1:
        raise ConfigurationError(f"dims must be positive, got {text!r}")
    return dims


# synth spec key -> (synth_gaussian_classes keyword, parser of the value)
_SYNTH_KEYS = {
    "c": ("n_classes", int),
    "classes": ("n_classes", int),
    "per_class": ("per_class", int),
    "shape": ("shape", parse_dims),
    "separation": ("class_separation", float),
    "noise": ("noise", float),
}


def parse_synth_spec(text: str) -> dict:
    """The ``synth_gaussian_classes`` keyword arguments, but ``seed``, of the
    ``key=value`` pairs of a synthetic-data spec."""
    spec = {"n_classes": 10, "per_class": 10, "class_separation": 8.0, "noise": 1.0}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigurationError(f"malformed synth item {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _SYNTH_KEYS:
            raise ConfigurationError(f"unknown synth key {key!r}")
        name, parse = _SYNTH_KEYS[key]
        try:
            spec[name] = parse(value)
        except ValueError:
            raise ConfigurationError(f"invalid synth value {key}={value!r}") from None
    if "shape" not in spec:
        raise ConfigurationError("synth spec needs a shape, e.g. shape=8x8x4")
    return spec


def load_data(args):
    if args.manifest:
        return load_manifest(args.manifest)
    if args.synth:
        return synth_gaussian_classes(**parse_synth_spec(args.synth), seed=args.seed)
    raise ConfigurationError("provide --manifest or --synth")


def method_list(text: str) -> str:
    """A ``--method`` value of comma-separated ``METHODS``; the ``ValueError``
    is a usage error to argparse and to ``read_config_file`` alike."""
    if not all(name.strip() in METHODS for name in text.split(",")):
        raise ValueError(text)
    return text


def nonnegative_int(text: str) -> int:
    """A ``--seed`` value; numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def reject_flags(args, dests, context: str) -> None:
    """A usage error naming each flag in ``dests``, all of which default to
    ``None``, that the command line or the config file set."""
    flags = [
        action.option_strings[0]
        for action in args.commands[args.command]._actions
        if action.dest in dests and getattr(args, action.dest) is not None
    ]
    if flags:
        raise ConfigurationError(f"{context} takes no {', '.join(flags)}")


def write_output(text: str, output, what: str) -> None:
    """``text`` to the file ``output``, announced as ``what``, else to stdout."""
    if output:
        write_file(output, [text.encode("utf-8")])
        print(f"{what} written to {output}")
    else:
        sys.stdout.write(text)


def build_config(args) -> TrainingConfig:
    """The training config of the training flags that are set, each stored
    under its ``TrainingConfig`` field name; ``TrainingConfig`` supplies
    every other default and validates."""
    values = {f.name: getattr(args, f.name, None) for f in fields(TrainingConfig)}
    for name in ("target_dims", "hosvd_ranks"):
        if values[name]:
            values[name] = parse_dims(values[name])
    return TrainingConfig(**{k: v for k, v in values.items() if v is not None})


def config_flags(sub) -> dict:
    """``flag -> action`` of the long flags a config file can set for the
    subcommand parser ``sub``: all but ``--help``, ``--config`` and the
    required flags, which argparse demands on the command line."""
    return {
        flag: action
        for action in sub._actions
        if not action.required
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--config")
    }


def read_config_file(path, command: str, commands: dict) -> dict:
    """Parsed and checked flag values of a ``key = value`` config file, by
    destination, for subcommand ``command`` of the ``name -> parser`` map
    ``commands``.  A key is a long flag's name; each value is read with that
    flag's own type and choices.  Keys of flags that only other subcommands
    take are skipped; a key that no subcommand takes is an error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    own = config_flags(commands[command])
    known = set().union(*map(config_flags, commands.values()))
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise ConfigurationError(f"{path}:{lineno}: unknown option {key!r}")
        if flag not in own:
            continue
        action = own[flag]
        try:
            parsed = (action.type or str)(value)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: invalid value {value!r} for {key!r}"
            ) from None
        if action.choices is not None and parsed not in action.choices:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} must be one of "
                f"{', '.join(action.choices)}, got {value!r}"
            )
        values[action.dest] = parsed
    return values


# the help texts quote these defaults; TrainingConfig owns them
_DEFAULT = TrainingConfig()


def add_data_flags(sub):
    """Where the samples come from, for every subcommand that reads them."""
    sub.add_argument("--manifest", help="manifest file of samples")
    sub.add_argument("--synth", help="inline synthetic spec, e.g. "
                     "'c=10,per_class=10,shape=8x8,separation=8,noise=1'")
    sub.add_argument("--config", help="key = value file supplying defaults")
    sub.add_argument("--seed", type=nonnegative_int, default=0, help="default %(default)s")


def add_hosvd_flags(sub):
    """The HOSVD stage's knobs; each flag's destination is its
    ``TrainingConfig`` field, which ``build_config`` reads."""
    sub.add_argument("--theta", type=float,
                     help=f"HOSVD energy threshold (default {_DEFAULT.theta})")
    sub.add_argument("--ranks", dest="hosvd_ranks", help="explicit HOSVD ranks, e.g. 6x6x3")


def add_training_flags(sub):
    """``--method`` and every ``TrainingConfig`` knob, for the subcommands
    that train."""
    add_hosvd_flags(sub)
    sub.add_argument("--dims", dest="target_dims", help="projected dims, e.g. 3x3x2")
    sub.add_argument("--max-iters", type=int,
                     help=f"cap on discriminant sweeps (default {_DEFAULT.max_iters})")
    sub.add_argument("--conv-tol", type=float,
                     help="stop the sweeps once one moves the objective by at most "
                     f"this fraction of its previous value (default {_DEFAULT.conv_tol})")
    sub.add_argument("--ridge", type=float,
                     help="within-class scatter ridge, as a fraction of its mean "
                     f"eigenvalue (default {_DEFAULT.ridge})")
    sub.add_argument("--pca-dims", type=int,
                     help="pca components (default min(m - 1, sample length))")
    sub.add_argument("--fisher-pca-dims", dest="fisherface_pca_dims", type=int,
                     help="fisherface PCA dims (default m - C)")
    sub.add_argument("--fisher-lda-dims", dest="fisherface_lda_dims", type=int,
                     help="fisherface discriminant dims (default C - 1)")
    sub.add_argument("--method", type=method_list, default="gda",
                     help=f"one of {', '.join(METHODS)}")


def cmd_train(args) -> int:
    data = load_data(args)
    config = build_config(args)
    t0 = time.perf_counter()
    model = train_method(args.method, data, config)
    train_seconds = time.perf_counter() - t0
    save_model(model, args.output)
    print(f"method = {args.method}")
    print(f"samples = {data.n_samples}")
    print("projected_dims = " + "x".join(str(d) for d in model.projected_shape))
    if model.hosvd_ranks is not None:
        print("hosvd_ranks = " + "x".join(str(r) for r in model.hosvd_ranks))
    for name in ("objective_trace", "subspace_change_trace"):
        if getattr(model, name):
            print(f"{name} = " + " ".join(repr(float(v)) for v in getattr(model, name)))
    for warning in model.warnings:
        print(f"warning: {warning}")
    print(f"time train = {train_seconds:.3f}s")
    print(f"model written to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    if args.protocol == "loo":
        reject_flags(args, ("trials", "train_per_class"), "evaluate --protocol loo")
    elif args.train_per_class is None:
        raise ConfigurationError("split protocol needs --train-per-class")
    data = load_data(args)
    config = build_config(args)
    out_dir = Path(args.output_dir)
    for method in (m.strip() for m in args.method.split(",")):
        t0 = time.perf_counter()
        if args.protocol == "split":
            report = evaluate_split(
                data, method, config,
                train_per_class=args.train_per_class,
                trials=10 if args.trials is None else args.trials, seed=args.seed,
            )
        else:
            report = evaluate_loo(data, method, config, seed=args.seed)
        seconds = time.perf_counter() - t0
        path = out_dir / f"report_{args.protocol}_{method}.txt"
        # made once a report exists, so a rejected run leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        save_report(report, path)
        extra = ""
        if report.macro_accuracy is not None:
            extra = f" (macro {report.macro_accuracy:.2f}%)"
        unit = "fold" if args.protocol == "loo" else "trial"
        print(
            f"{method}: mean accuracy {report.mean_accuracy:.2f}%{extra} "
            f"over {len(report.trial_accuracies)} {unit}s -> {path}"
        )
        for i, fold_warnings in enumerate(report.warnings):
            for warning in fold_warnings:
                print(f"warning: {unit} {i}: {warning}")
        print(f"  time = {seconds:.3f}s")
    return 0


def cmd_compress(args) -> int:
    data = load_data(args)
    t0 = time.perf_counter()
    decomposition = hosvd_stage(data, build_config(args))
    hosvd_seconds = time.perf_counter() - t0
    dims = decomposition.kept_ranks
    extents = data.sample_shape
    m_samples = data.n_samples
    length = int(np.prod(extents))

    hopca_fraction = hopca_compression_fraction(m_samples, extents, dims)
    p = args.pca_components
    if p is None:  # the component count closest to HOPCA's storage fraction
        ideal = hopca_fraction * m_samples * length / (m_samples + length)
        p = int(min(max(round(ideal), 1), min(m_samples - 1, length)))
    mean_vec, centered, basis = vector_pca(data, p, "pca components")
    pca_fraction = hopca_compression_fraction(m_samples, (length,), (p,))

    pca_recon = mean_vec[:, None] + basis @ (basis.T @ centered)

    psnr_h = []
    psnr_p = []
    hopca_recon = reconstruct(decomposition)
    for i, restored in enumerate(np.moveaxis(hopca_recon, -1, 0)):
        original = data.samples[..., i]
        psnr_h.append(psnr(original, restored))
        pca_restored = pca_recon[:, i].reshape(extents, order="F")
        psnr_p.append(psnr(original, pca_restored))
        if args.save_reconstructions:
            for tag, sample in (("hopca", restored), ("pca", pca_restored)):
                save_sample(args.save_reconstructions, f"{tag}_{i:04d}",
                            np.clip(np.rint(sample), 0, 255))

    report = format_report("compression", {
        "samples": m_samples,
        "sample_shape": extents,
        "hopca_dims": dims,
        "pca_components": p,
        "cr_hopca": hopca_fraction,
        "hopca_ratio": 1.0 / hopca_fraction,
        "cr_pca": pca_fraction,
        "pca_ratio": 1.0 / pca_fraction,
        "psnr_hopca_mean_db": np.mean(psnr_h),
        "psnr_pca_mean_db": np.mean(psnr_p),
    }, [("per_sample", [
        ["index", "psnr_hopca_db", "psnr_pca_db"],
        *([i, *pair] for i, pair in enumerate(zip(psnr_h, psnr_p))),
    ])])
    write_output(report, args.output, "compression report")
    print(f"time hosvd = {hosvd_seconds:.3f}s")
    return 0


def cmd_visualize(args) -> int:
    if args.model:
        training = ("method", *(f.name for f in fields(TrainingConfig)))
        reject_flags(args, training, "visualize --model")
    data = load_data(args)
    if args.model:
        model = load_model(args.model)
    else:
        model = train_method(args.method or "gda", data, build_config(args))
    rows = export_projection_2d(model, data, plane=args.plane)
    write_projection_csv(rows, args.output)
    print(f"{len(rows)} rows written to {args.output}")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    data = load_data(args)
    labels, _, distances = classify_many(model, data.samples)
    lines = ["index\tpredicted\tdistance\ttruth"]
    for i, (label, dist, truth) in enumerate(zip(labels, distances, data.labels)):
        lines.append(f"{i}\t{label}\t{repr(float(dist))}\t{truth}")
    write_output("\n".join(lines) + "\n", args.output, "predictions")
    correct = np.count_nonzero(labels == data.labels)
    print(f"accuracy = {100.0 * correct / data.n_samples:.2f}%")
    return 0


def cmd_synth(args) -> int:
    data = synth_gaussian_classes(**parse_synth_spec(args.spec), seed=args.seed)
    manifest = save_dataset(data, args.output_dir)
    print(f"{data.n_samples} samples and {manifest} written")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgda",
        description="Multilinear discriminant analysis toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model and save it")
    add_data_flags(p)
    add_training_flags(p)
    p.add_argument("--output", default="model.tgda", help="model file path")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="run an evaluation protocol")
    add_data_flags(p)
    add_training_flags(p)
    p.add_argument("--protocol", choices=("split", "loo"), default="split")
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--trials", type=int, help="split trials (default 10)")
    p.add_argument("--output-dir", default=".", help="directory for report files")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("compress", help="HOSVD compression and quality metrics")
    add_data_flags(p)
    add_hosvd_flags(p)
    p.add_argument("--pca-components", type=int,
                   help="vector-PCA components (default: match the HOPCA ratio)")
    p.add_argument("--output", help="report file (default stdout)")
    p.add_argument("--save-reconstructions",
                   help="directory for reconstructed PGM output")
    p.set_defaults(func=cmd_compress)

    p = subs.add_parser("visualize", help="export 2D projection coordinates")
    add_data_flags(p)
    add_training_flags(p)
    # unset, so that cmd_visualize tells a given --method from none
    p.set_defaults(method=None)
    p.add_argument("--model", help="use a saved model instead of training")
    p.add_argument("--plane", choices=("1x2", "2x1", "pair"), default="pair")
    p.add_argument("--output", default="projection.csv")
    p.set_defaults(func=cmd_visualize)

    p = subs.add_parser("classify", help="classify samples with a saved model")
    add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--output", help="predictions file (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("synth", help="write a synthetic dataset to disk")
    p.add_argument("--spec", required=True,
                   help="e.g. 'c=10,per_class=10,shape=8x8,separation=8,noise=1'")
    p.add_argument("--seed", type=nonnegative_int, default=0, help="default %(default)s")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_synth)

    # read back by main, to apply a config file to the subcommand that runs
    parser.set_defaults(commands=subs.choices)
    return parser


# the exit status when the reader of stdout goes away: 128 + SIGPIPE, what
# a shell reports for a program that SIGPIPE ends
CLOSED_STDOUT_EXIT = 128 + 13


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result ends in one error line; numpy's warnings would pad it
        with np.errstate(all="ignore"):
            if getattr(args, "config", None):
                # the file's values become the subcommand's defaults, so flags
                # given on the command line still win when parsed again
                commands = parser.get_default("commands")
                values = read_config_file(args.config, args.command, commands)
                commands[args.command].set_defaults(**values)
                args = parser.parse_args(argv)
            code = args.func(args)
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout is gone, as in `tensorgda classify | head`:
        # end quietly with the status of a death by SIGPIPE, stdout pointed at
        # devnull so that the flush at exit cannot fail again (Python's
        # documentation, "Note on SIGPIPE" in the signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT_EXIT
    except TensorGdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # reads map theirs to DatasetError; this is mostly output
        print(f"error: cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return DatasetError.exit_code
    except MemoryError as exc:  # the input asked for more memory than there is
        # numpy's message names the refused array; a bare MemoryError has none
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return DatasetError.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())
