"""Golden bytes of the CLI: the sha256 of the exit code plus stdout of fixed argvs.

Every command is pinned in csv and json, with FD and Numerov ``solve``
(hydrogen k = 3 on the 20000-node Numerov grid, positronium on 32000 nodes),
Numerov ``convergence``, a usage error, and one wavefunction dump whose files
are hashed with the report.  Three more pins are argvs of the benchmark's
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
        "81be2d14cd6b5c68f4f5d35e61c47e3de55ae70708ef6b6297093c42b0395326",
    ),
    "solve-numerov-json": (
        ["solve", "--preset", "oscillator", "--n-max", "4", "--method", "numerov", "--format", "json"],
        "e44b4d3645dcda6b9c52cb1ca786a6c00c0e4771b235fe3cbd27219a6cf602f5",
    ),
    "solve-numerov-positronium": (
        ["solve", "--preset", "positronium", "--n-max", "2", "--method", "numerov"],
        "5551daed28717dc94e38be1ca5e623626bb93e2468bbb5e160e29f853a6affe1",
    ),
    "solve-numerov-finite-mass": (
        ["solve", "--preset", "hydrogen_finite_mass", "--n-max", "2", "--method", "numerov",
         "--grid-n", "10000", "--format", "json"],
        "22fd52e0354182ab34c771939e102518d6039d8d7487343ba1f500b9caf9b4a3",
    ),
    "solve-numerov-own-grid": (
        ["solve", "--preset", "oscillator", "--method", "numerov", "--n-max", "6",
         "--r-min", "-10", "--r-max", "10", "--grid-n", "2001"],
        "b0f2e2be282abccbf2cb4400874d244c258ba8a768c3e6a8f0910e61f71f801c",
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
        "a5f28cd2de54d6fe9391aace1212cb0210db21a9f0a4bca5a396dccfc0823588",
    ),
    "solve-numerov-hydrogen-grid-n-20000": (
        ["solve", "--preset", "hydrogen", "--method", "numerov", "--n-max", "3",
         "--grid-n", "20000"],
        "81be2d14cd6b5c68f4f5d35e61c47e3de55ae70708ef6b6297093c42b0395326",
    ),
    "solve-numerov-positronium-grid-n-6000": (
        ["solve", "--preset", "positronium", "--method", "numerov", "--n-max", "2",
         "--grid-n", "6000"],
        "2db38362e9da22b60ecc0f9f7127468c301944e9ce21b19828905bd8233f997f",
    ),
    "convergence-numerov-hydrogen": (
        ["convergence", "--preset", "hydrogen", "--method", "numerov"],
        "f4fea93572b2008c4321470ea5d5d8efc34d1748039a5b7458a0ffae13399bc3",
    ),
    "convergence-numerov-json": (
        ["convergence", "--preset", "positronium", "--method", "numerov", "--format", "json"],
        "b038a96795ff641cc99149ad60a68666784e727990ceb541eb0b0b6cb9ecf49f",
    ),
}

DUMP_ARGV = [
    "solve", "--preset", "hydrogen", "--n-max", "2", "--method", "numerov",
    "--wavefunctions-dir", "wf",
]
# sha256 of the report digest followed by each dump file's name and bytes
DUMP_DIGEST = "894a975c353940c7f6128d924e8c0b67796b43e9cca9b32acae48f9c3ca6efb0"


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
