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
    return cases


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


def run_case(name, directory: Path) -> dict:
    """Run one case into ``directory``; ``file name -> SHA-256`` of its output."""
    argv, takes_dir = CASES[name]
    if "{manifest}" in argv:
        manifest = unequal_folds_manifest(directory.parent / f"{name}-data")
        argv = [str(manifest) if a == "{manifest}" else a for a in argv]
    directory.mkdir(parents=True, exist_ok=True)
    target = ["--output-dir", str(directory)] if takes_dir else ["--output", str(directory / "out")]
    assert main([*argv, *target]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


# captured with numpy 2.4 / OpenBLAS 0.3.31 on x86-64
GOLDENS = {
    'o2-compress-ranks': {
        'out': '6659771e18f8f0b1c2140f33ee2fb420989e717a6fce80f6b6aded6d50357aa3',
    },
    'o2-compress-theta': {
        'out': '93e2042d4e0ce41b28593d9ebad8f415ede41abaf44f471b70d7a9fa6c6d4501',
    },
    'o2-evaluate-loo': {
        'report_loo_fisherface.txt': '26185ff46231a940653c62634138bfab069ec1a66a6851fd34212d2e0725d435',
        'report_loo_gda.txt': 'a6aaf633559354fd92fefd552bc7668d9043390262b58954d28925720086e9c2',
        'report_loo_hopca.txt': '6cf670884e224a3c20d3a9ba05607b1e5c79153fada35e3414c19772d922cfaf',
        'report_loo_mda.txt': '81b1952d637fdac420d6ac5b06a98c741083c23001e3abb04c952527122321ff',
        'report_loo_pca.txt': 'e76dc5f92240b543f25adf398b9950fd0e2f5e4b7a410ff59dd90b44661f0e8c',
    },
    'o2-evaluate-loo-unequal': {
        'report_loo_fisherface.txt': '5ce4a367064696b78453cd013d969a0ee0a7d4b48a936f54f7f4f73af15370e7',
        'report_loo_gda.txt': '100e0302086ec91e71991fd28c67eeb22a5ddc42d19ed740263835c3093a6775',
        'report_loo_hopca.txt': '342b5e36c3a0183056ccbb9431bf2a7ef533737c32fe5aed2fc494bb6b210912',
        'report_loo_mda.txt': '3a2e9a26727539d169e30acf18eee8b69aad3dd18526cdcc019e052f30862c01',
        'report_loo_pca.txt': 'e3b49643550250fec57f8f9bbf50c7f3ba40e6456e1ce4527a8a4fa6c948921f',
    },
    'o2-evaluate-split': {
        'report_split_fisherface.txt': '14efec3fc56b847f6cfc92785c0873e616f05bc1d88c1cab7928c62998f02d03',
        'report_split_gda.txt': '54244ecd0a574f28fff91ea875874ec48a98bb45f3970e6101a213fc61891b64',
        'report_split_hopca.txt': 'aa6bcacce4216641365f2273123ac403cdf275d89aff3269eb5df903ef05dbe1',
        'report_split_mda.txt': '43af9787931c3ed20b1bb25cb22779cdd75ca1ab79e3d3828fcf8077543c2f86',
        'report_split_pca.txt': 'db6ffaf7dfeb6dcb6f944c27d8865d3e7e5601c068a5b76981fcfa578f87b819',
    },
    'o2-train-fisherface': {
        'out': 'f9c0b2d58eaee91aa6c2d7ea28c48074bbed3627a3815658f810320abe19dec4',
    },
    'o2-train-gda': {
        'out': 'ac1ce622a050d3d487f9fb54cf3bd819f359e1d2a228a5ba01b81cb14c83fd7a',
    },
    'o2-train-gda-flags': {
        'out': 'b6c12b18c35bd4ab09c66d84b92be18ebb1f31b9b9a1f905d23a3eb018e9cf56',
    },
    'o2-train-hopca': {
        'out': 'c1cac4750afc0aca2c3fddeaac11a79d28b793f942104601fcc3fa663cf39311',
    },
    'o2-train-mda': {
        'out': '78ba848d102f5a0b1fe2ee7ba82a08c04ba1242f593ef7671f670d408dc21f09',
    },
    'o2-train-pca': {
        'out': '4a44fa2972744f2dce9c0f80c8d2931735e88d60bb4aa1fa1b1fa9e3cbe44bd2',
    },
    'o2-visualize-1x2': {
        'out': 'b2923238442ecd74244d5ce765ef7c0e27f96919830ca6b055694602a17773f0',
    },
    'o3-compress-ranks': {
        'out': 'b38e37bda06f041f661486d5e9b31dbc3757357b4e601b1c0fb53dcdbc557898',
    },
    'o3-compress-theta': {
        'out': '5c6fda204cb9572ecbbbf4cc675677bc3455347f235303b7f496d2b70bb5efc9',
    },
    'o3-evaluate-loo': {
        'report_loo_fisherface.txt': '0f8b2111beaa25be634b077865f90fc397deb09cf2a8a7ca9647d6bcab5e6f4a',
        'report_loo_gda.txt': '6c848060e79910e560e58cd6349e5fbdead5a958b9c9cd976391df4f00953fbf',
        'report_loo_hopca.txt': '8020c1ffc5567e6aacd766f5cc4be5c704f33860865e7af83b3db65c05704b2d',
        'report_loo_mda.txt': 'f9586c070b7b9986aa30245ceaa67cea88a9498ee1d09b04e1b7681fa94e47f8',
        'report_loo_pca.txt': '2c7b44b9da6693e53c71d124268c88691b1b490cfb33f03cc5eef9e3a61cb829',
    },
    'o3-evaluate-split': {
        'report_split_fisherface.txt': 'cd40e9254721c83aee645989c4630eb43efd7e776dae60e314af4a499b61d5ef',
        'report_split_gda.txt': 'ea8d6bafbe1a7019a134c18cf56ec0c8a8066a1ea1907142e157563940557f8d',
        'report_split_hopca.txt': '25598c2d9bfd3c5e0fbec5d9bde9af9be878fac5b08c398fbefb96f0dad73480',
        'report_split_mda.txt': '6d93eaeaad900d710b61e48524c6f4138bb5de1eaca89a1fce2c7936e7592c73',
        'report_split_pca.txt': '410d562e8bbc960d555b3f460f00ed2a790a97fe766b1b77ac44f077a45f54e5',
    },
    'o3-train-fisherface': {
        'out': '545e8bc9328bef31cbfc39379144fd6dc6e9ae608db750495f91f9651e6b0229',
    },
    'o3-train-gda': {
        'out': '8aecc11caf48bc517f5a0e7571f0e25a57d82c76415ef35381c90336e91c0dc5',
    },
    'o3-train-gda-ranks': {
        'out': '0e3dcf7d360bc6d622faa807254f5c032f3bd342fa894ed72c4c54f03d228058',
    },
    'o3-train-hopca': {
        'out': 'babd24809dbd26a171754acca491db6397dc7e237da508796975c8b2496fe602',
    },
    'o3-train-mda': {
        'out': 'dd3371be7b46ac16ed2457c9023d962a5591c72ad9d6ab204accc063f65f6eb7',
    },
    'o3-train-pca': {
        'out': '2bd2124b0c42426c78c92b4e7e656be2367b06501b82cf72d7667feb3a992742',
    },
    'o3-visualize-pair': {
        'out': '5bccc706a3387eadf02901be7b719d8fca6b5afd8394999d391537794fc2a82e',
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
