"""Golden bytes of a solve of a preset read from a .conf file.

Every other report, dump, message and exit code is pinned by
``tools/pool_digests.json``, the manifest that ``tests/test_pool_digests.py``
checks.  This pin is kept by hand because it needs ``RSSE_PRESET_DIR``, which
``tools/pool_digests.py`` refuses so that no pool op runs a shadowed preset.
Its digest is the sha256 of the exit code, a newline and stdout.

The pin holds for this numpy/scipy build (numpy 2.4, scipy 1.17, the LAPACK
they ship with): another LAPACK may round the banded Numerov sweep
differently in the last digit.
"""

import hashlib

from rsse.cli import main

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


def test_preset_file_solve_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    (tmp_path / "well.conf").write_text(PRESET_CONF)
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(PRESET_ARGV)
    digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert digest == PRESET_DIGEST
