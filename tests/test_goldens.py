"""Byte-level goldens of every deterministic CLI output.

Each case runs one seeded CLI command into an empty directory and compares
the SHA-256 of every file it writes with the digest recorded here.  The
inputs are small (order 2 and order 3), so the linear algebra stays on
single-block BLAS paths whose bits do not depend on the thread count.  A
change that alters an output on purpose bumps the format version and
records new digests, printed by ``python tests/test_goldens.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from tensorgda.cli import main

ORDER2 = ["--synth", "c=3,per_class=6,shape=6x5,separation=6,noise=1", "--seed", "3"]
ORDER3 = ["--synth", "c=3,per_class=4,shape=5x4x3,separation=6,noise=1", "--seed", "4"]
METHODS = ["gda", "mda", "hopca", "pca", "fisherface"]


def _cases():
    """``name -> (argv, takes an output directory)``."""
    cases = {}
    for tag, data in (("o2", ORDER2), ("o3", ORDER3)):
        for method in METHODS:
            cases[f"{tag}-train-{method}"] = (["train", *data, "--method", method], False)
        for protocol in ("split", "loo"):
            extra = ["--train-per-class", "3", "--trials", "2"] if protocol == "split" else []
            cases[f"{tag}-evaluate-{protocol}"] = (
                ["evaluate", *data, "--method", ",".join(METHODS),
                 "--protocol", protocol, *extra],
                True,
            )
        cases[f"{tag}-compress-theta"] = (["compress", *data, "--theta", "0.9"], False)
    cases["o2-train-gda-flags"] = (
        ["train", *ORDER2, "--method", "gda", "--theta", "0.95", "--dims", "2x2",
         "--max-iters", "3", "--conv-tol", "1e-3", "--ridge", "1e-5"],
        False,
    )
    cases["o3-train-gda-ranks"] = (
        ["train", *ORDER3, "--method", "gda", "--ranks", "3x3x2"], False
    )
    cases["o2-compress-ranks"] = (
        ["compress", *ORDER2, "--ranks", "3x2", "--pca-components", "4"], False
    )
    cases["o3-compress-ranks"] = (["compress", *ORDER3, "--ranks", "3x3x2"], False)
    cases["o2-evaluate-loo-unequal"] = (
        ["evaluate", "--manifest", "{manifest}", "--method", ",".join(METHODS),
         "--protocol", "loo"],
        True,
    )
    cases["o2-visualize-1x2"] = (
        ["visualize", *ORDER2, "--method", "gda", "--plane", "1x2"], False
    )
    cases["o3-visualize-pair"] = (
        ["visualize", *ORDER3, "--method", "fisherface", "--plane", "pair"], False
    )
    for name in CLASSIFY:
        cases[name] = (["classify", "--manifest", "{queries}", "--model", "{model}"], False)
    return cases


# classify cases: name -> (synth spec, seed, method); the model trains on
# subjects 1-3 of each class, and the queries are every sample, so the
# gallery samples themselves are among them
CLASSIFY = {
    "o2-classify-gda": (ORDER2[1], ORDER2[3], "gda"),
    "o2-classify-pca": (ORDER2[1], ORDER2[3], "pca"),
    "o3-classify-hopca": (ORDER3[1], ORDER3[3], "hopca"),
}


CASES = _cases()


def unequal_folds_manifest(directory: Path) -> Path:
    """An on-disk order-2 set whose leave-one-out folds differ in size:
    subject 5 keeps only its class-1 sample, so the per-sample and the
    per-subject accuracies can differ."""
    assert main([
        "synth", "--spec", "c=3,per_class=5,shape=6x5,separation=1,noise=3",
        "--seed", "5", "--output-dir", str(directory),
    ]) == 0
    manifest = directory / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    kept = [line for line in lines if not (line.endswith("\t5") and "\t1\t" not in line)]
    manifest.write_text("\n".join(kept) + "\n")
    return manifest


def classify_inputs(name, directory: Path):
    """``(queries manifest, model file)`` of a classify case: an on-disk set
    of every sample, and a model trained on its subjects 1-3."""
    spec, seed, method = CLASSIFY[name]
    assert main(["synth", "--spec", spec, "--seed", seed, "--output-dir", str(directory)]) == 0
    queries = directory / "manifest.tsv"
    lines = queries.read_text().splitlines()
    train = directory / "train.tsv"
    train.write_text("\n".join(
        line for line in lines
        if line.startswith(("#", "@")) or int(line.split("\t")[2]) <= 3
    ) + "\n")
    model = directory / "model.json"
    assert main([
        "train", "--manifest", str(train), "--method", method, "--output", str(model)
    ]) == 0
    return queries, model


def run_case(name, directory: Path) -> dict:
    """Run one case into ``directory``; ``file name -> SHA-256`` of its output."""
    argv, takes_dir = CASES[name]
    if "{manifest}" in argv:
        manifest = unequal_folds_manifest(directory.parent / f"{name}-data")
        argv = [str(manifest) if a == "{manifest}" else a for a in argv]
    if "{model}" in argv:
        queries, model = classify_inputs(name, directory.parent / f"{name}-data")
        inputs = {"{queries}": str(queries), "{model}": str(model)}
        argv = [inputs.get(a, a) for a in argv]
    directory.mkdir(parents=True, exist_ok=True)
    target = ["--output-dir", str(directory)] if takes_dir else ["--output", str(directory / "out")]
    assert main([*argv, *target]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


# captured with numpy 2.4 / OpenBLAS 0.3.31 on x86-64
GOLDENS = {
    'o2-classify-gda': {
        'out': 'bc418cc2f7446bfad53a21c066bd5e15f06977add253c475adb0d09cfffcf785',
    },
    'o2-classify-pca': {
        'out': '32e71f64644e9681e3a5bc2691f2c13ee6270b2aaeaa69a32cf26efd622961df',
    },
    'o2-compress-ranks': {
        'out': 'f0b052ed305aa9f39556730c078962a73c95fc0b3182780b4814f7c349231084',
    },
    'o2-compress-theta': {
        'out': '93e2042d4e0ce41b28593d9ebad8f415ede41abaf44f471b70d7a9fa6c6d4501',
    },
    'o2-evaluate-loo': {
        'report_loo_fisherface.txt': '26185ff46231a940653c62634138bfab069ec1a66a6851fd34212d2e0725d435',
        'report_loo_gda.txt': '08ef15f491ba6e36ad1c3271c11ad10eec922dbe80f855a3efad2e6d9a8d1fc7',
        'report_loo_hopca.txt': '6cf670884e224a3c20d3a9ba05607b1e5c79153fada35e3414c19772d922cfaf',
        'report_loo_mda.txt': '7e5af5a46f646daa781d8371c1ab0ab45423d8b73ef4c1b2c1ac19212cfa98b7',
        'report_loo_pca.txt': 'e76dc5f92240b543f25adf398b9950fd0e2f5e4b7a410ff59dd90b44661f0e8c',
    },
    'o2-evaluate-loo-unequal': {
        'report_loo_fisherface.txt': '5ce4a367064696b78453cd013d969a0ee0a7d4b48a936f54f7f4f73af15370e7',
        'report_loo_gda.txt': '88011dbd96d0ce7843a63047b850c1d266b0cf11d9cf443be17a88b649850714',
        'report_loo_hopca.txt': '342b5e36c3a0183056ccbb9431bf2a7ef533737c32fe5aed2fc494bb6b210912',
        'report_loo_mda.txt': '3a2e9a26727539d169e30acf18eee8b69aad3dd18526cdcc019e052f30862c01',
        'report_loo_pca.txt': 'e3b49643550250fec57f8f9bbf50c7f3ba40e6456e1ce4527a8a4fa6c948921f',
    },
    'o2-evaluate-split': {
        'report_split_fisherface.txt': '14efec3fc56b847f6cfc92785c0873e616f05bc1d88c1cab7928c62998f02d03',
        'report_split_gda.txt': '88c25065602f8c1a7f04465d33c9f687ced73f7ebefcf0b0c2ebb5ca313cf3f7',
        'report_split_hopca.txt': 'aa6bcacce4216641365f2273123ac403cdf275d89aff3269eb5df903ef05dbe1',
        'report_split_mda.txt': '32715664138cad48acaf17a72c8d27fa9490a95a47b7d33e93289e125cdd7e3e',
        'report_split_pca.txt': 'db6ffaf7dfeb6dcb6f944c27d8865d3e7e5601c068a5b76981fcfa578f87b819',
    },
    'o2-train-fisherface': {
        'out': 'b9c831e1f81e35c6b14708755ba5c18930a5f1ba8e365a28e6c5775d6483d2f2',
    },
    'o2-train-gda': {
        'out': '7c9d1a72f2c58e2398ce12e938891620073088e1bab1d20d2611c21fe0703517',
    },
    'o2-train-gda-flags': {
        'out': '1a7f4479d6dc9a5a6d32d3e15184a2eb1096836b6c8c6e5dabc6d57e848d0b99',
    },
    'o2-train-hopca': {
        'out': '0f11bf4277f7e95da7ce4f69c2decf6e041b5c558f7106098f266498265719e6',
    },
    'o2-train-mda': {
        'out': '71f8cc073f8f09860e80780dbe28a6a552d3bea1c9293e4f9b717f47f3dbde3d',
    },
    'o2-train-pca': {
        'out': '6b143942050eb759218d356198af6b46f883ea206df7cd6c96d50d4f3e66f93a',
    },
    'o2-visualize-1x2': {
        'out': '59c83ff2cffb1ddea338202dca2701e9006a0a85c548ed4b920fad36ea370a46',
    },
    'o3-classify-hopca': {
        'out': '547f84641f98869dd73e53d3bad03e2b307d602becfd719456d769d377b04558',
    },
    'o3-compress-ranks': {
        'out': 'aaa7bb6db7152c752ea7a45b69b7f0277470500b5e0d59e408e11bb5d1b97bae',
    },
    'o3-compress-theta': {
        'out': '5c6fda204cb9572ecbbbf4cc675677bc3455347f235303b7f496d2b70bb5efc9',
    },
    'o3-evaluate-loo': {
        'report_loo_fisherface.txt': '0f8b2111beaa25be634b077865f90fc397deb09cf2a8a7ca9647d6bcab5e6f4a',
        'report_loo_gda.txt': 'd447ac7471ae976774eda776c7a0c759d6421e1f100b14de2bd12df72c5b760c',
        'report_loo_hopca.txt': '8020c1ffc5567e6aacd766f5cc4be5c704f33860865e7af83b3db65c05704b2d',
        'report_loo_mda.txt': '0c3f52dc209560a4d2573fa785c3c60631be1cdbf20ef2c9d6d152d2ff6467af',
        'report_loo_pca.txt': '2c7b44b9da6693e53c71d124268c88691b1b490cfb33f03cc5eef9e3a61cb829',
    },
    'o3-evaluate-split': {
        'report_split_fisherface.txt': 'cd40e9254721c83aee645989c4630eb43efd7e776dae60e314af4a499b61d5ef',
        'report_split_gda.txt': '5912c907dbf844c13b7064a5a64d1e3776a496de6f128f603abf353e43e268c9',
        'report_split_hopca.txt': '25598c2d9bfd3c5e0fbec5d9bde9af9be878fac5b08c398fbefb96f0dad73480',
        'report_split_mda.txt': '6d93eaeaad900d710b61e48524c6f4138bb5de1eaca89a1fce2c7936e7592c73',
        'report_split_pca.txt': '410d562e8bbc960d555b3f460f00ed2a790a97fe766b1b77ac44f077a45f54e5',
    },
    'o3-train-fisherface': {
        'out': '1fb87a5c8000f86171787314b96b097cdd30c2532fcdc61171c9ba16fc6e15e4',
    },
    'o3-train-gda': {
        'out': '74f75620aa7dc32f658510388bcc1e67f6e30030dc3c5ffcf0e628d35a1063b2',
    },
    'o3-train-gda-ranks': {
        'out': 'ad4d22ed435d5ca235029eb50cee1f68c0e16b9d93664111d0670a32c1adcf5f',
    },
    'o3-train-hopca': {
        'out': '37ae357fdc8b5a783351539a2fcecf214c99b6daaae2478412d829047c3cfb84',
    },
    'o3-train-mda': {
        'out': 'c7f845e41b285293fb00301a68229a6b1dfd735779f90af390397b501dedbbad',
    },
    'o3-train-pca': {
        'out': '23dbc9728a24b411c6ea342c76ac33838c052474305d048260789cf141b376c8',
    },
    'o3-visualize-pair': {
        'out': 'c6d16d59fa14f4c1bb9938e453c0441a2789f8d50dbd2689e1c42c817339eddb',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path, capsys):
    assert run_case(name, tmp_path / name) == GOLDENS[name]


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        digests = {name: run_case(name, Path(scratch) / name) for name in sorted(CASES)}
    sys.stdout.write("GOLDENS = {\n")
    for name, files in digests.items():
        sys.stdout.write(f"    {name!r}: {{\n")
        for file, digest in files.items():
            sys.stdout.write(f"        {file!r}: {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
