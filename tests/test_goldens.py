"""Byte-level goldens of every deterministic CLI output.

Each case runs one seeded CLI command into an empty directory and compares
the SHA-256 of every file it writes with the digest recorded here.  The
inputs are small (order 2 and order 3), so the linear algebra stays on
single-block BLAS paths whose bits do not depend on the thread count.  A
change that alters an output on purpose bumps the format version and
records new digests, printed by ``python tests/test_goldens.py`` with the
build they were captured on.

The digests hold on that build.  Other GEMM, QR and eigensolver kernels
round the last bits differently, so a mismatch names both builds: the
numpy version, the OpenBLAS version and the OpenBLAS core, which the CPU
or ``OPENBLAS_CORETYPE`` chooses at run time.
"""

import contextlib
import ctypes
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorgda.cli import main

ORDER2 = ["--synth", "c=3,per_class=6,shape=6x5,separation=6,noise=1", "--seed", "3"]
ORDER3 = ["--synth", "c=3,per_class=4,shape=5x4x3,separation=6,noise=1", "--seed", "4"]
TWO_CLASS = ["--synth", "c=2,per_class=6,shape=5x4x3,separation=6,noise=1", "--seed", "4"]
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
        cases[f"{tag}-synth"] = (["synth", "--spec", data[1], "--seed", data[3]], True)
    cases["o2-train-gda-flags"] = (
        ["train", *ORDER2, "--method", "gda", "--theta", "0.95", "--dims", "2x2",
         "--max-iters", "3", "--conv-tol", "1e-3", "--ridge", "1e-5"],
        False,
    )
    cases["o3-train-gda-ranks"] = (
        ["train", *ORDER3, "--method", "gda", "--ranks", "3x3x2"], False
    )
    # two classes: gda's default dims are C - 1 = 1 in every mode
    cases["o3-train-gda-two-class"] = (["train", *TWO_CLASS, "--method", "gda"], False)
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
    "o3-classify-gda-two-class": (TWO_CLASS[1], TWO_CLASS[3], "gda"),
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
    """Run one case into ``directory``; ``relative path -> SHA-256`` of every
    file under it, frame directories included."""
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
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def build() -> dict:
    """The numpy version, the OpenBLAS version and the OpenBLAS core this
    interpreter runs, each ``unknown`` where numpy does not say."""
    found = {"numpy": np.__version__, "openblas": "unknown", "core": "unknown"}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no dicts
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" in blas["name"]:
            found["openblas"] = blas["version"]
    # numpy's wheels bundle OpenBLAS beside the package; asking the library
    # numpy already loaded gives the core it chose
    package = Path(np.__file__).parent
    for library in [*package.parent.glob("numpy.libs/*openblas*"),
                    *package.glob(".dylibs/*openblas*")]:
        with contextlib.suppress(OSError, AttributeError):
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
            corename.restype = ctypes.c_char_p
            found["core"] = corename().decode()
    return found


CAPTURED_ON = {"numpy": "2.4.6", "openblas": "0.3.31.188.0", "core": "SkylakeX"}

GOLDENS = {
    'o2-classify-gda': {
        'out': 'ff9225bc6db3cb79b0bdcde7c3ecddde8e649315aff61944db39de02521943ff',
    },
    'o2-classify-pca': {
        'out': '9cea07ec99c2ef73a1db8f1bea9ede6a7eaa46079e3e4f7324fef4b4d59b30bf',
    },
    'o2-compress-ranks': {
        'out': 'f0b052ed305aa9f39556730c078962a73c95fc0b3182780b4814f7c349231084',
    },
    'o2-compress-theta': {
        'out': '93e2042d4e0ce41b28593d9ebad8f415ede41abaf44f471b70d7a9fa6c6d4501',
    },
    'o2-evaluate-loo': {
        'report_loo_fisherface.txt': '26185ff46231a940653c62634138bfab069ec1a66a6851fd34212d2e0725d435',
        'report_loo_gda.txt': 'e12c1ef274a13b9fe4f6f8f20f74b0d625b4556e1948ba958f79803b8dc233a3',
        'report_loo_hopca.txt': '6cf670884e224a3c20d3a9ba05607b1e5c79153fada35e3414c19772d922cfaf',
        'report_loo_mda.txt': '5eecc76c6df980cd47a2f1f893af4f353c7f805ec071e7809245a44d09c5211f',
        'report_loo_pca.txt': 'e76dc5f92240b543f25adf398b9950fd0e2f5e4b7a410ff59dd90b44661f0e8c',
    },
    'o2-evaluate-loo-unequal': {
        'report_loo_fisherface.txt': '5ce4a367064696b78453cd013d969a0ee0a7d4b48a936f54f7f4f73af15370e7',
        'report_loo_gda.txt': '8730a91c1096653ddf3ea76c2ee8329cb53c5a451e93f634c64cf93035e3af04',
        'report_loo_hopca.txt': '342b5e36c3a0183056ccbb9431bf2a7ef533737c32fe5aed2fc494bb6b210912',
        'report_loo_mda.txt': 'c57ce4c8619fefe570b259ace93ae060a368a021e1688d338be9b1d34a740de0',
        'report_loo_pca.txt': 'e3b49643550250fec57f8f9bbf50c7f3ba40e6456e1ce4527a8a4fa6c948921f',
    },
    'o2-evaluate-split': {
        'report_split_fisherface.txt': '14efec3fc56b847f6cfc92785c0873e616f05bc1d88c1cab7928c62998f02d03',
        'report_split_gda.txt': 'd2c9188b07d1c5545ef77cdc3b684c4b6b8801b6ded67c38c8c67b4df210b36f',
        'report_split_hopca.txt': 'aa6bcacce4216641365f2273123ac403cdf275d89aff3269eb5df903ef05dbe1',
        'report_split_mda.txt': '39cc05370d942ff8d10d2a8f91e9eae4cbb27997f63839534c36e1e332e1d1cb',
        'report_split_pca.txt': 'db6ffaf7dfeb6dcb6f944c27d8865d3e7e5601c068a5b76981fcfa578f87b819',
    },
    'o2-synth': {
        'manifest.tsv': '602a56a00784e2660330a997678626fc4acc3a6d6fa0220cecb42f61228e8b1e',
        'sample_0000.pgm': 'fe49e917c043811a4cdeab033c5bcbedf5f68cf64c458017e285b3d7f9209eef',
        'sample_0001.pgm': '641bbe8c5cd8f9f60417fd98479dee39ce9f600768007b7b9d1b0164ea29890f',
        'sample_0002.pgm': '2e449b52ed260c87dd1dab17d49b0b83b5a1785b8bf039b130b73814c1a600b9',
        'sample_0003.pgm': 'fab4f06688403a3f4a358a789b4445c28fea6c64697a6332065c2ec46c8f816d',
        'sample_0004.pgm': '9455b86cc50f028bb7c7539efb6722372b7628f2db548230cfc97e4f6271cd35',
        'sample_0005.pgm': 'c0c6eaa45ba0667e2ddc5e6601b59316d5f40d1b6da0d788b9280a14a8408fec',
        'sample_0006.pgm': 'dbcc5487758ba3652caa313b3f9da3e90ed5d9d97dbe8b3d148ce706863f9fea',
        'sample_0007.pgm': '9fe0dc9b0e26c72f3cf04c171783cc0877b6aa1645449bca53cae692d7e6204c',
        'sample_0008.pgm': 'a50425d4f268c7ffd8ff7af37fb8ac33c12a74d66cded0770916a586a35a98bf',
        'sample_0009.pgm': '7eba2738c0c2fa76cda0b0b3a43e053dfb30c7f5782467b0508d0dfc161d83f0',
        'sample_0010.pgm': '574ae6004ffd0dd7b68b09dc68d4e497846621ad3ec700c95e16902abf0a84e0',
        'sample_0011.pgm': '738a14e21e55d02f77cd54489bce8e035e96b22372d8313229c8f96a745b7c39',
        'sample_0012.pgm': '2bd4de55753e749b22821edacb6991bde3e88028613f3d7381c6aa3a8c6c5114',
        'sample_0013.pgm': '0e88c936579fa9f6ac66bc8b55b8a14e7c18f102aac615e1dbf4d150572c943a',
        'sample_0014.pgm': '0f55b24d3a6271c874e418d98af0296b9ac4ee2d530e69866095a91aac1099ce',
        'sample_0015.pgm': 'ee6c56a7230670b4d89241cd25931d0ad382d62b3a066f4170eac27631b1b139',
        'sample_0016.pgm': '4251c5a1dcf1a9e1cdd8a326008e3443c872b9bbb32f946996f701988abe4c98',
        'sample_0017.pgm': '2a5fcb7daccdca9dee581f670921680292db236b91181f2aea0858eaa5ed0ddf',
    },
    'o2-train-fisherface': {
        'out': 'f0171c126dea4dfdba983965394a20250f936d50e52262b28dd46fb38ce74186',
    },
    'o2-train-gda': {
        'out': '1af903e236ec614c757507fc1b5e4c253f2b6735b6299035a12b7f13458da219',
    },
    'o2-train-gda-flags': {
        'out': '9282a0e596cbecc76e85760b2df347a1c89f08e4c56dba5f39dbca40b39c7b66',
    },
    'o2-train-hopca': {
        'out': '48aaf3c42c307c926a6f6451a1f4b7fe19fda457a1cd532c526f4dd9331455ea',
    },
    'o2-train-mda': {
        'out': '92a954d82debe3435d2cb9bad14e0afbadb3b4135de13779ca135ef8507b21a3',
    },
    'o2-train-pca': {
        'out': '70cf54fdb08871000bfe6f0fbd159baba225481564f087d2424c317d7662d94f',
    },
    'o2-visualize-1x2': {
        'out': '555a9e56934bf6e98f9948902eb607817c2441098dc32e9429f57d726a7bc462',
    },
    'o3-classify-gda-two-class': {
        'out': '7e5ecbddd95f98bba9737a34b07f294fe6adb144b41a6fc6c3bd067d7161881e',
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
        'report_loo_gda.txt': '709686bc4db999fd3e06a0cd323d3673947d0da4a5299fbd501af9d94ec0f901',
        'report_loo_hopca.txt': '8020c1ffc5567e6aacd766f5cc4be5c704f33860865e7af83b3db65c05704b2d',
        'report_loo_mda.txt': '32d01caacb56561ff1927029edbf227d52d4742be55238b53abf17908e2839fb',
        'report_loo_pca.txt': '2c7b44b9da6693e53c71d124268c88691b1b490cfb33f03cc5eef9e3a61cb829',
    },
    'o3-evaluate-split': {
        'report_split_fisherface.txt': 'cd40e9254721c83aee645989c4630eb43efd7e776dae60e314af4a499b61d5ef',
        'report_split_gda.txt': '079e8701be2bf3b01b10a88d3586bbe2418225560b366e4edd7e5a9b77f16632',
        'report_split_hopca.txt': '25598c2d9bfd3c5e0fbec5d9bde9af9be878fac5b08c398fbefb96f0dad73480',
        'report_split_mda.txt': '6798808487995f5eb5d72fef5e2f7b6b44f0e20427d943fe2a094ee53b4b80ea',
        'report_split_pca.txt': '410d562e8bbc960d555b3f460f00ed2a790a97fe766b1b77ac44f077a45f54e5',
    },
    'o3-synth': {
        'manifest.tsv': '3b7d0cc54f68d259483a4927086ab9608f459fdaff44bc5c312a12f1e51f125a',
        'sample_0000/frame_000.pgm': 'ecb5badb73447d601f48a757ecfe0994a94197b3a2af789a17d35f36c9452747',
        'sample_0000/frame_001.pgm': 'd6fdf3ae1f4dce945abc215616c25b0d2df983f132cd8bf0002099fbf830378d',
        'sample_0000/frame_002.pgm': 'd574d948cbbf78c19b6aeea08a49965bd6888e9d76815d9529f02c1833f6a612',
        'sample_0001/frame_000.pgm': '5f5b57717f6ebd0dc5663e0014c079aa8e2ad7a52b17c5eec4a684648015008a',
        'sample_0001/frame_001.pgm': 'bdd0d01705339f52d0409dcf8c5c1f3103f95d4b5a538f1324f734f74581c65b',
        'sample_0001/frame_002.pgm': '9ca93a81d8608767894108f1e9f69f24a9478ffbdab04a1bbb4d244042a093b4',
        'sample_0002/frame_000.pgm': '4fdbbf588678693c5827fc55b1e924eb6063f9c3647c022959d2cb43a7af9051',
        'sample_0002/frame_001.pgm': 'afbd56baa63fd89d0ca128a4604ef9a32ea058f4070ce67fa958724463f98385',
        'sample_0002/frame_002.pgm': 'bc4eb4b528bf5d023e9a706f675ea42db8ec630f27385468a8f2be18f38c6f8f',
        'sample_0003/frame_000.pgm': '61f0f704ed24c0835c167090a5bc8d55fe83b335a1db1b27912facc3f66a84c1',
        'sample_0003/frame_001.pgm': '637dca8d119f126f4e2471aad521cfc4cf968214fad3044eb7285c87c7a9d76b',
        'sample_0003/frame_002.pgm': '04269c3bd34130adc577f9e1095f69718039bb40707c6fba93cccdc2c79c872d',
        'sample_0004/frame_000.pgm': 'deeb6230b072363fb51e539089b1f8705523b2495aa7260b849f0000c9a703cc',
        'sample_0004/frame_001.pgm': 'b979bc0ae6f7188f098599418a758cb65db5c629d3a3c464ec1c9b3f4c241d87',
        'sample_0004/frame_002.pgm': '8129eaf3741707489e5d5ee8d1e35ce9b7b36d8fbc8ce6926e19405a693b2f0b',
        'sample_0005/frame_000.pgm': '4316ec6cb74539b1bcd0924bca0058dd21c53569025f7d80a92f15444113a23f',
        'sample_0005/frame_001.pgm': '3efda2f5e3f7e2f1c68a142def980ef8b02072a143d4ba5bec5f624bb48b69d3',
        'sample_0005/frame_002.pgm': 'f6a873fba39fdd8f5c694f1a2b1bf92c956eebf8ea661974120135809bd86882',
        'sample_0006/frame_000.pgm': 'd99d248185a07866b201f9ade4c1ea00d9c5c8f8f00978d960fe4ac5a488956f',
        'sample_0006/frame_001.pgm': '6f27dad264743cf97cf0b7cf1b4a9add12c7182ba21e42c2b94efbe50da2c635',
        'sample_0006/frame_002.pgm': 'ebc1a90a9f32087f56defe0e654b48a5986f5fa11558d54a9a67ce97b27792c0',
        'sample_0007/frame_000.pgm': '2f16b45d5a2044b1d5377ca4d347399e825ea766f2b497aadb3a8bd4b71efdfd',
        'sample_0007/frame_001.pgm': '7a61fbda4af2058378aa079f2f219b50a6f65f307c7af9ea0120e3e61b5b3648',
        'sample_0007/frame_002.pgm': '18e74a8f2a1c166160c67fc75b79023babd72bb2e50683aa347954546e67ce96',
        'sample_0008/frame_000.pgm': '543f1e95ba2ea2e2bccb4520cafb03a314317d3243c23c5731f633d9352b3b28',
        'sample_0008/frame_001.pgm': 'd0151f5aed7c2308c7a7788b40b94c1d5d522a1ca14c0c65320257202007f2a9',
        'sample_0008/frame_002.pgm': '32f22b7ceaed9ad394f202cf18f4b233f905a5990032c99fa754b5886eaa2d32',
        'sample_0009/frame_000.pgm': 'c23eb8ce49fb450138a027b723eb24081eeff4138e85e35478e49dc387386d2c',
        'sample_0009/frame_001.pgm': '3ed422117f559dd261977f413bcfc2058338680e614dbafac7f386c8ef5b4a76',
        'sample_0009/frame_002.pgm': 'fc30aceb579b7d8f27a9b53d83f41740e5ff049bad23e1e9b8386653d9f9854a',
        'sample_0010/frame_000.pgm': '6ba62d92c33f953092d8aea2be22fb11ef25f1987b8c2adf0018467bac6b228b',
        'sample_0010/frame_001.pgm': '6ebc996311d13c7ce17ef04e25f94ec59a61df7eecb250b13e40d30b5155e807',
        'sample_0010/frame_002.pgm': '4ca4b5aa219b95707985d29f2434b3705ef861648644d462164fee0542586820',
        'sample_0011/frame_000.pgm': '756681e645b22be387ff337270eb984de94f920903d6866d4151a257532f57ba',
        'sample_0011/frame_001.pgm': '1339dc939b4d5ce384764e4166f5e7a531060bfbe732bbd4e83fc240a2297935',
        'sample_0011/frame_002.pgm': 'f82107e82d5b25adacdfbe2ab6fff180ca87bb680101388110da5fdb9be7f142',
    },
    'o3-train-fisherface': {
        'out': '488bde481c7650b1e93669f70ac540e6e8ab6b110031627cb113718df6979109',
    },
    'o3-train-gda': {
        'out': '66b3ec429c79eebc732ebfe903995f9cf1ee81bf3114b416a8d4263b6355a1a4',
    },
    'o3-train-gda-ranks': {
        'out': '1f64fcd124f2f62f653ef270845acad1fb70ad18e94dda18ff16faed78972b37',
    },
    'o3-train-gda-two-class': {
        'out': 'd3fb3157b03c87c54d352780d72fdab31d74a81cffe6950906a37af9bdd34179',
    },
    'o3-train-hopca': {
        'out': 'f19b20ae96e2a13c852d9dc6d45b16aaf98fcec64502860993914f46479ffa41',
    },
    'o3-train-mda': {
        'out': 'db0ccff06c55663ec1cd81b1f83a34e586cd8275f40d274985bf44600cc6c9bf',
    },
    'o3-train-pca': {
        'out': 'af60c40a61b1a860075d882376bf837f0c8153cdb3c949e6db988c92a7113f19',
    },
    'o3-visualize-pair': {
        'out': '2ce43cc2b354cc2e3ea3ea442705fc98c767a577e7e14e36b8a5a73434c85f60',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path, capsys):
    assert run_case(name, tmp_path / name) == GOLDENS[name], (
        f"captured on {CAPTURED_ON}, running on {build()}")


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        digests = {name: run_case(name, Path(scratch) / name) for name in sorted(CASES)}
    sys.stdout.write(f"CAPTURED_ON = {build()!r}\n\nGOLDENS = {{\n")
    for name, files in digests.items():
        sys.stdout.write(f"    {name!r}: {{\n")
        for file, digest in files.items():
            sys.stdout.write(f"        {file!r}: {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
