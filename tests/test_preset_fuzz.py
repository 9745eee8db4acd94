"""Preset files drawn at random, run through every command that reads a preset.

Each draw writes one ``.conf`` file of a potential kind with its parameters,
l, masses and FD grid, drawn from ordinary values and extremes (0, +-1,
1e-300, 1e300, ...), then calls ``rsse.cli.main`` in process on ``solve`` by
both methods, ``compare`` and ``convergence``.  Whatever the file holds, each
call must exit 0, 2 or 3 and raise nothing, under the suite's
warnings-as-errors filter: a bad input is a usage error, not a traceback.
The examples are inputs that once escaped that contract with an
``OverflowError`` or a numpy overflow or invalid-value ``RuntimeWarning``.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from rsse.cli import main
from rsse.presets import PRESET_DIR_ENV
from rsse.problem import _PARAMETERS

EXTREMES = (0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, 1e160, -1e160, 5e-324)
ORDINARY = (0.5, 2.0, -5.0, 5.0, 1e-5, 10.0, 30.0, -30.0)
VALUES = st.sampled_from(EXTREMES + ORDINARY)
COMMANDS = (
    ["solve", "--n-max", "2"],
    ["solve", "--n-max", "2", "--method", "numerov"],
    ["compare"],
    ["convergence"],
)


@st.composite
def preset_files(draw):
    kind = draw(st.sampled_from(sorted(_PARAMETERS)))
    keys = {"potential": kind}
    # a kind's own parameters and the masses; a file may leave each out
    for name in [name for name, _ in _PARAMETERS[kind]] + ["mu", "M"]:
        value = draw(st.none() | VALUES)
        if value is not None:
            keys[name] = value
    keys["l"] = draw(st.sampled_from((0, 1, 2, 200, 300)) | st.integers(0, 300))
    # ends out of order are GridSpec's own check; draw them in order
    ends = draw(st.lists(VALUES, min_size=2, max_size=2, unique=True))
    keys["fd_r_min"], keys["fd_r_max"] = sorted(ends)
    keys["fd_n"] = draw(st.sampled_from((16, 121, 400, 600)) | st.integers(1, 600))
    return keys


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(preset=preset_files())
@example(preset={"potential": "harmonic", "omega": 1e300, "fd_r_min": -5.0, "fd_r_max": 5.0,
                 "fd_n": 400})
@example(preset={"potential": "infinite_well", "fd_r_min": -5.0, "fd_r_max": 1e300, "fd_n": 400})
@example(preset={"potential": "coulomb", "l": 200, "fd_r_min": 10.0, "fd_r_max": 30.0,
                 "fd_n": 400})
@example(preset={"potential": "harmonic", "fd_r_min": -1e160, "fd_r_max": 1e160, "fd_n": 400})
# the span overflows; q = 2 mu V overflows; h**2 overflows; (q - eps w) squared overflows
@example(preset={"potential": "harmonic", "fd_r_min": -1e308, "fd_r_max": 1e308, "fd_n": 16})
@example(preset={"potential": "harmonic", "mu": 1e300, "fd_r_min": -1.0, "fd_r_max": 1.0,
                 "fd_n": 400})
@example(preset={"potential": "coulomb", "mu": 5e-324, "l": 1, "fd_r_min": 1.0,
                 "fd_r_max": 1e300, "fd_n": 16})
@example(preset={"potential": "coulomb", "fd_r_min": 1e-300, "fd_r_max": 1e-05, "fd_n": 16})
def test_every_preset_file_exits_0_2_or_3_with_at_most_one_error_line(preset):
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "fuzz.conf"), "w") as handle:
            handle.writelines(f"{key} = {value}\n" for key, value in preset.items())
        with mock.patch.dict(os.environ, {PRESET_DIR_ENV: directory}):
            for command in COMMANDS:
                code, err = run([*command, "--preset", "fuzz"])
                assert code in (0, 2, 3), (command, code)
                if code == 0:
                    assert err == "", (command, err)
                else:
                    assert err.startswith("rsse: ") and err.count("\n") == 1, (command, err)
