"""Golden bytes of the CLI: the sha256 of the exit code plus stdout of fixed argvs.

Every command is pinned in csv and json, with FD and Numerov ``solve``
(hydrogen k = 3 on the 20000-node Numerov grid, positronium on 32000 nodes),
Numerov ``convergence``, a usage error, one wavefunction dump whose files
are hashed with the report, and one solve of a preset read from a .conf file.  Three more pins are argvs of the benchmark's
``numerov_solve`` pool, so the byte identity of a Numerov speedup covers the
ops it is measured on.  A refactor of the solvers must leave every byte
in place; a change that moves digits on purpose updates these pins and says
why.

The pins hold for this numpy/scipy build (numpy 2.4, scipy 1.17, the LAPACK
they ship with): another LAPACK may round the FD eigenvalues or the banded
Numerov sweep differently in the last digit.
"""

import hashlib

import pytest

from rsse.cli import main

# name -> (argv, sha256 of f"{exit code}\n" + stdout)
GOLDEN = {
    "solve-fd-csv": (
        ["solve", "--preset", "hydrogen", "--n-max", "3"],
        "ffcd481eadfc16e665010f6526962baaf2a3fde9d5240a4fc1ad5e7e55817909",
    ),
    "solve-fd-json": (
        ["solve", "--preset", "oscillator", "--n-max", "5", "--format", "json"],
        "bb303e2b5dd3fe730bb61194f87d5b41208ba12aa389fce9e30ffd5355a4cadb",
    ),
    "solve-fd-positronium": (
        ["solve", "--preset", "positronium", "--n-max", "3"],
        "543c2d0830e3b705edc842aa78dbe3309f26803fd7b09fc28f7e4cc11609849f",
    ),
    "solve-numerov-hydrogen-k3": (
        ["solve", "--preset", "hydrogen", "--n-max", "3", "--method", "numerov"],
        "d6dade0ad774e1e5dbd3dceff867ffd1e970a4083296770bbd125efb5962d637",
    ),
    "solve-numerov-json": (
        ["solve", "--preset", "oscillator", "--n-max", "4", "--method", "numerov", "--format", "json"],
        "234c3cacd78a9b52cbddb4aeb1a311df29e364ec1004f43a5d97783c90d00422",
    ),
    "solve-numerov-positronium": (
        ["solve", "--preset", "positronium", "--n-max", "2", "--method", "numerov"],
        "a7dff3328510eb30df5c051672e195c2b6f9e461389f841e8584d6d7fb346d3a",
    ),
    "solve-numerov-finite-mass": (
        ["solve", "--preset", "hydrogen_finite_mass", "--n-max", "2", "--method", "numerov",
         "--grid-n", "10000", "--format", "json"],
        "8e04c888aa0f0cb46dd77c546d8cc2ccdf65551b26c07fdcf161dcb6ee79c0c7",
    ),
    "solve-numerov-own-grid": (
        ["solve", "--preset", "oscillator", "--method", "numerov", "--n-max", "6",
         "--r-min", "-10", "--r-max", "10", "--grid-n", "2001"],
        "68710b245be4d4730d73d19fcfb23603530fe5e01359e4a560b4b4b824e84566",
    ),
    "solve-numerov-too-coarse": (
        ["solve", "--preset", "oscillator", "--method", "numerov", "--grid-n", "16", "--n-max", "13"],
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    "compare-csv": (
        ["compare", "--preset", "hydrogen", "--n-max", "3"],
        "c533b300ffcaf54bee080a3b6e2533cabe620f4ae56b4973dd3b900683901953",
    ),
    "compare-json": (
        ["compare", "--preset", "positronium", "--n-max", "2", "--format", "json"],
        "3724e3f5a0f3c7053dd0467bcc8e06fb552ed8bcf118310d5938fefe62afc26a",
    ),
    "kinematics-csv": (
        ["kinematics", "--beta", "0,0.1,0.6,0.99", "--time", "2.5"],
        "c7e5141d8bb5cf6e08ac78cc16e81024ef5e5bd986300c9d692b8e141cfedb29",
    ),
    "kinematics-json": (
        ["kinematics", "--beta", "0.3,0.9", "--m0", "2.0", "--format", "json"],
        "5ff017d484406de50055068123306b15b13190c713911efd7d93526464f42cdc",
    ),
    "invert-demo-csv": (
        ["invert-demo", "--beta", "0.6"],
        "4e12c5468fa9bc61e8077ec0eabdcb638140d5a5e77b67eb9a6c79a8bff31763",
    ),
    "invert-demo-json": (
        ["invert-demo", "--beta", "0.9", "--m0", "3.0", "--format", "json"],
        "10720e9be08dc589d8d9c1fed1e11ca79367b81bc1058248a68d3d2c71263a84",
    ),
    "convergence-fd-csv": (
        ["convergence", "--preset", "hydrogen"],
        "2fc957432d61f274358d98a1aab14a3e9386774fe47bcb3c7ed4758305268289",
    ),
    "convergence-fd-json": (
        ["convergence", "--preset", "oscillator", "--n-index", "1", "--format", "json"],
        "7bce7162850b8564227124d9da3eb7a8724ac00b9cfef254014d28e1b58b6cec",
    ),
    "convergence-numerov-csv": (
        ["convergence", "--method", "numerov"],
        "501b40b8fc2d5dd59fc670a589f95cf35674688a11b3ac5561a86b069eef4bcf",
    ),
    "solve-numerov-hydrogen-grid-n-20000": (
        ["solve", "--preset", "hydrogen", "--method", "numerov", "--n-max", "3",
         "--grid-n", "20000"],
        "d6dade0ad774e1e5dbd3dceff867ffd1e970a4083296770bbd125efb5962d637",
    ),
    "solve-numerov-positronium-grid-n-6000": (
        ["solve", "--preset", "positronium", "--method", "numerov", "--n-max", "2",
         "--grid-n", "6000"],
        "be39cb0665a42c05fcaa577f34d793926e84b320834aff3c3e77edef300c3cc3",
    ),
    "convergence-numerov-hydrogen": (
        ["convergence", "--preset", "hydrogen", "--method", "numerov"],
        "d874b14e11ed2693bb8419046dd8f68daee2996c336b0066da155d4445061e7a",
    ),
    "convergence-numerov-json": (
        ["convergence", "--preset", "positronium", "--method", "numerov", "--format", "json"],
        "ff9833b04476f2761051fb4f2cc0dab1c74b578ce163a4028b80cfe5c8d598ac",
    ),
}

DUMP_ARGV = [
    "solve", "--preset", "hydrogen", "--n-max", "2", "--method", "numerov",
    "--wavefunctions-dir", "wf",
]
# sha256 of the report digest followed by each dump file's name and bytes
DUMP_DIGEST = "5efd4f2896e29f5a65b2a71147780a7d4fa8445e1b7e3ba28b0910bcad0d4ed7"


# a preset file that leaves l, M and the Numerov grid's ends to their fallbacks
PRESET_CONF = """# a square well; the Numerov grid takes its ends from the FD grid
potential = finite_well
V0 = 1
a = 2
mu = 0.5
fd_r_min = -10
fd_r_max = 10
fd_n = 2000
numerov_n = 1001
description = unit-depth square well
"""
PRESET_ARGV = ["solve", "--preset", "well", "--n-max", "2", "--method", "numerov"]
PRESET_DIGEST = "e9a783d87e1d6cf14ab8dc947d2dcbde0b3f6fcf19026a7b1684237828cdb4cd"


def run_digest(capsys, argv):
    code = main(argv)
    return hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(capsys, name):
    argv, digest = GOLDEN[name]
    assert run_digest(capsys, argv) == digest


def test_wavefunction_dump_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    # the header echoes the dump directory, so it is relative to a fixed cwd
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(run_digest(capsys, DUMP_ARGV).encode())
    paths = sorted((tmp_path / "wf").iterdir())
    assert [path.name for path in paths] == [
        "hydrogen_numerov_state0.dat", "hydrogen_numerov_state1.dat"
    ]
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == DUMP_DIGEST


def test_preset_file_solve_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    (tmp_path / "well.conf").write_text(PRESET_CONF)
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    assert run_digest(capsys, PRESET_ARGV) == PRESET_DIGEST
