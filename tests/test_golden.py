"""Golden command-line outputs: sha256 digests of stdout, byte for byte.

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

GOLDEN = {
    "verify --n-max 4 --samples 500 --seed 0 --format table":
        "e167e19c7b43cb49e3f8907b3bcedaea17113fdd223f6ca5d0a9d9f59cefb91c",
    "verify --n-max 4 --samples 500 --seed 0 --format json":
        "49e389e89d0df1d52031119bb4b3f119baa12fb41417f52c8264a216c09dddfe",
    "verify --n-max 4 --samples 500 --seed 0 --format csv":
        "5231de0cfe744a4feb5295b69eb3485fe7e302f514d1378216245d42a58debf5",
    "verify --n-max 4 --samples 500 --seed 11 --format table":
        "a8e68f18930259008495087783077b2716a916ffac20b29d6143b4ceb5b15945",
    "verify --n-max 4 --samples 500 --seed 11 --format json":
        "1d54b19265bba1e125d143c58b56cfe347338d6fa7403929fbe0a5fd2c168613",
    "verify --n-max 4 --samples 500 --seed 11 --format csv":
        "96658c8a728f6eb21a2876c8915cbb766b7c967b8031d7c55af548f93057c90a",
    # real levels 5 and 6, where the samplers draw rows of 6 and 7 coordinates
    "verify --n-max 6 --samples 2000 --seed 5 --format json":
        "9486951fe536489df091a9ab579802d7adfaf39d6edab0b7b559fe74dca9b3ed",
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
