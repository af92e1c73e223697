"""Golden outputs: sha256 digests of command-line stdout, byte for byte, and
of the curvature kernel's per-point arrays at every audited level.

The digests were captured with numpy 2.4.6 (Python 3.11.7, x86-64,
OpenBLAS).  Another numpy or BLAS build may legitimately move the last
bits of a float and with them a digest; the number of BLAS threads may
not.  Any change of the code that alters one of these outputs is a
behaviour change and must say so.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from veronese.cli import main
from veronese.construct import build
from veronese.geometry import curvature_field
from veronese.sampling import quotient_samples

GOLDEN = {
    "verify --n-max 4 --samples 500 --seed 0 --format table":
        "1482798c16dcb65d78281968fbf6d50bfbf3545ccf483687fd13496436679f6d",
    "verify --n-max 4 --samples 500 --seed 0 --format json":
        "29902524ed955f1ced6c09ff2ce6007be4baebc153ca3a7b1ab19a5f584b3f15",
    "verify --n-max 4 --samples 500 --seed 0 --format csv":
        "33a339928226b32505c1e15fec62269986eb098f7dfda0018a5bb5b595aedc5a",
    "verify --n-max 4 --samples 500 --seed 11 --format table":
        "d1878ae9e55999b2f3dbbdd3f35f5bbfd8435e975ba72fc9067cf49021f23c4f",
    "verify --n-max 4 --samples 500 --seed 11 --format json":
        "a813da226b903c2a968919d5ef232e7266a8ef584adf5b99b9b72000d49b306a",
    "verify --n-max 4 --samples 500 --seed 11 --format csv":
        "ad2184c0326c671c6024769b945e10253af46ef3855ebe18c8d9cc2d90c1594b",
    # real levels 5 and 6, where the samplers draw rows of 6 and 7 coordinates
    "verify --n-max 6 --samples 2000 --seed 5 --format json":
        "9acd945352a158ea2a8ae1be994be83b3fddcecbafaaf19db370fe12e0f20bc3",
    "report --field real --n 2 --samples 500 --metric image":
        "dbd9e78f32611f11961f5bb80659806093df8e2e32eff29b5d0fb0e3b4fc713f",
    "report --field real --n 2 --samples 500 --metric domain":
        "aa3c4159f875665d74e683424d1bd982baf904e7a0eded5b322b25f3dbc6f072",
    "report --field complex --n 3 --samples 500":
        "d69694c4cd56491a2915386771992cc20463be4aaf5143d31f5a9f3fdee40abe",
    "report --field real --n 12 --samples 40 --format json":
        "81594f9c0f83b4044f4140bc27aa4eaf6325d0ca43e16e522f7f09d465408e0c",
    "report --field complex --n 8 --samples 40 --format json":
        "e8194c51b79f27489b838dacffc96776cd537e9c0bee84615200964803ff69b9",
    "emit --field real --n 1":
        "eb8ef9f583f1ce6887ceb56344713960e311994b2e33d25c61e7072be18f67c5",
    "emit --field real --n 2":
        "62c83bde890e211719af162e38d46693422ea2dd8ec85f16f197fbea40e80349",
    "emit --field real --n 3":
        "ebd75846588b107fee71bdd09f289d65f6e7c02d478287b4b200bed7db933d0c",
    "emit --field real --n 4":
        "fbb484cb90df493c2fcc742fa25afa411935d00b40489215b3827c92dc8762a1",
    "emit --field real --n 5":
        "d3af27a45beff2c26a7b66b39452b54d233f00d71ea5e33c2ab9b08a5a45872d",
    "emit --field real --n 6":
        "9164ec8e1a11117633d77e1f3104df83acfd2b4845ab61e3ec67eb3acf4abc5d",
    "emit --field real --n 7":
        "2d9452d4b3fa53d97f922f672b5bc6b5866ccabd25dabe510a46609cedbb322b",
    "emit --field real --n 8":
        "92826eb276bf429cfd931d080a38942a05a34e3db27d1a0a0f409836378c7a01",
    "emit --field real --n 9":
        "fb651c1c1c6c16b9c64532f7a4aa8c4c2b2e6f27b70428f00bb849811eb9aa90",
    "emit --field real --n 10":
        "138e806d69f76ed58b42c1b5b2512860d5ea0ba0b532c4846b3b7decff80de14",
    "emit --field real --n 11":
        "a7f2a41ae23e6fe3456cbb41c7bf4b2242e9e63645f86bc12052aa11faba1636",
    "emit --field real --n 12":
        "f9c238d4337be4d73ac057207c4fca9738815ba2fb0d55014da2c9a01f3d5060",
    "emit --field complex --n 1":
        "2d5a7b749a916925909f0fc3d97bb47ea9048a9e3982f4eb05efb54e4f35dd7d",
    "emit --field complex --n 2":
        "895b1664bcf5a1b8c556e1f3c48e1a5cc474d6126bf98441bf3ab67713edbd4b",
    "emit --field complex --n 3":
        "95c53ef5dbee2ecf8c49564e73e041828a65b2a95c2696d85f609a1cd582ab71",
    "emit --field complex --n 4":
        "00b06b77a338bac972c8c2feff39b4e13f0c72b932b1ed4d92d9a83107f96fb5",
    "emit --field complex --n 5":
        "a36fa269ea56bad435bdcee2c4a67f17918189756f106dbe2d07dd344c1f5b57",
    "emit --field complex --n 6":
        "23b5925073214ab589a4460af6e5a2b1c47a6fcbd70c2a89e137ce8624e8b340",
    "emit --field complex --n 7":
        "35b41f5cb0f9dfc0bd408cc1bc93dd9391760271d03947ade8e08ad494d95247",
    "emit --field complex --n 8":
        "f5833e27d02ada7de935d3258b3caa1fc5371b792dde0f20c73c9d0a7a9991f7",
    "cloud --field real --n 3 --samples 200 --seed 5":
        "4b71ba50deb9b3a79dcd805b13d664b2f061c82e6507f7bc8eef289ddefd0b93",
    "cloud --field complex --n 2 --samples 200 --seed 5":
        "0c260091000ac3ecfe7776c91941bc29ba4ac706e2e44fbef0a0f75353bf4c54",
    "cloud --field real --n 12 --samples 1000 --seed 5":
        "5822ff90106cc81612fa861de6e35ed1ba0f9eba7a99f76f4d479365ea1beab6",
    "cloud --field complex --n 8 --samples 1000 --seed 5":
        "bf63c8a90ef3380180646fb5955e0bba9e23b2bcb2224748a4a5d4398a940fc8",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[command]


# the five curvature_field arrays, in key order, at 50 points (seed 300 + n) of
# each audited level, where the verify digests above read only a first sample and
# aggregates; captured with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, x86-64)
KERNEL_GOLDEN = {
    ("real", 1): "e6abffb3f13d2cea7a8b00cbcefd5e5366dac2414c0249f5e40c4e6eb6228c91",
    ("real", 2): "9ab7d725f7852a1b1bcd12b8390831c1bc9e69d9996229edde387a2454d27176",
    ("real", 3): "c895e2bd24ad7c168cca82aaa98aca3e588602ed2ff91b2f991c657dd94d94cb",
    ("real", 4): "f9e527b5758cee0b9f69388798fb9bbc96a3313a61ba49179208bae3211527dd",
    ("real", 5): "124181ca162450cb04dfd131d634eb4de016bf51e576f7dd52a5f4f055e2bf51",
    ("real", 6): "0984f9c6ace88225bd3afc77dc901006ebc3953385966eb0402b71d0b3090834",
    ("complex", 1): "50d1432a216bbad3d8d18545e1c3df41af2396a5b2dfd3b00db8251c06be4d5c",
    ("complex", 2): "dd5718a95610bd583e6642ab9ac7b13a574a57102ddc721340c5ee10f701d798",
    ("complex", 3): "df6e3204081a8a63a04e11a4b5e407a4837de783ffae97bd45990ba55c03642c",
    ("complex", 4): "e1f50b4c0b643bacd40c19def2005793ca9992058f2708df64b9e5b108cedf5d",
}


@pytest.mark.parametrize("field,n", sorted(KERNEL_GOLDEN))
def test_golden_curvature_field(field, n):
    geo = curvature_field(build(n, field), quotient_samples(n, field, 50, seed=300 + n))
    digest = hashlib.sha256()
    for key in sorted(geo):
        digest.update(geo[key].tobytes())
    assert digest.hexdigest() == KERNEL_GOLDEN[field, n]
