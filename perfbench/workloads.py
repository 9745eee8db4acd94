"""Fixed op pools and the seeded op sequence of each workload.

An op is a CLI argv list.  A round holds one op per slot; the seed orders the
slots in each round and picks, for each slot, one parameter set from that
slot's alternatives.  Alternatives within a slot cost the same or nearly so
(report format, the ``coulomb`` alias of ``hydrogen``, beta lists of a CLI
process), so the work in a round does not depend on the seed.  Every parameter set here solves
on the seed code and stays inside the documented regime: Coulomb presets ask
for at most 3 states, which are bound in the preset boxes.

``--output`` and ``--wavefunctions-dir`` take the placeholder ``{dir}``,
which the runner replaces with a per-op directory inside the checkout.
"""

from __future__ import annotations

import random

def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("csv", "json"))]


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m rsse.cli` process per op, FD and analytic
# commands only (no Numerov)
# ---------------------------------------------------------------------------

_KINEMATICS = [
    ["--beta", "0.1,0.6,0.9"],
    ["--beta", "0.3,0.5,0.7,0.95", "--time", "2.5"],
    ["--beta", "0.2,0.45,0.8", "--m0", "2.0"],
    ["--beta", "0.6,0.99", "--time", "10"],
]
_INVERT = [["--beta", "0.6"], ["--beta", "0.2"], ["--beta", "0.9", "--m0", "3.0"], ["--beta", "0.75"]]
_COMPARE = [
    ["--preset", "hydrogen", "--n-max", "2"],
    ["--preset", "hydrogen", "--n-max", "3"],
    ["--preset", "positronium", "--n-max", "1"],
    ["--preset", "positronium", "--n-max", "2"],
    ["--preset", "hydrogen_finite_mass", "--n-max", "2"],
    ["--preset", "oscillator", "--n-max", "4"],
]
_SOLVE_FD = [
    ["--preset", "hydrogen", "--n-max", "3"],
    ["--preset", "hydrogen", "--n-max", "1"],
    ["--preset", "hydrogen_finite_mass", "--n-max", "2"],
    ["--preset", "positronium", "--n-max", "3"],
    ["--preset", "oscillator", "--n-max", "5"],
    ["--preset", "coulomb", "--n-max", "2"],
]
_CONVERGENCE_FD = [
    ["--preset", "oscillator"],
    ["--preset", "oscillator", "--n-index", "1"],
    ["--preset", "hydrogen"],
    ["--preset", "positronium"],
]

CLI_COLD_SLOTS = [
    lambda rng: ["kinematics"] + rng.choice(_KINEMATICS) + _fmt(rng),
    lambda rng: ["invert-demo"] + rng.choice(_INVERT) + _fmt(rng),
    lambda rng: ["compare"] + rng.choice(_COMPARE) + _fmt(rng),
    lambda rng: ["solve"] + rng.choice(_SOLVE_FD) + ["--method", "fd"] + _fmt(rng),
    lambda rng: ["convergence"] + rng.choice(_CONVERGENCE_FD) + ["--method", "fd"] + _fmt(rng),
]
CLI_COLD_WARMUP = ["solve", "--preset", "hydrogen", "--n-max", "3"]


# ---------------------------------------------------------------------------
# numerov_solve: in-process Numerov solves; grid size is the traffic
# dimension (cost per op grows with n-max x grid-n)
# ---------------------------------------------------------------------------


def _numerov(presets, k: int, grid_n: int):
    def make(rng: random.Random) -> list[str]:
        return [
            "solve", "--preset", rng.choice(presets), "--method", "numerov",
            "--n-max", str(k), "--grid-n", str(grid_n),
        ] + _fmt(rng)
    return make


def _numerov_convergence(presets):
    return lambda rng: ["convergence", "--preset", rng.choice(presets), "--method", "numerov"] + _fmt(rng)


# `hydrogen` and its alias `coulomb` are the same problem at the same cost
_H = ("hydrogen", "coulomb")
NUMEROV_SLOTS = [
    # the ROADMAP baseline op: hydrogen, 3 states, 20000 nodes
    _numerov(("hydrogen",), 3, 20000),
    _numerov(("positronium",), 2, 6000),
    _numerov(("oscillator",), 3, 3000),
    _numerov(("hydrogen_finite_mass",), 1, 2000),
    _numerov(("oscillator",), 2, 4000),
    _numerov(("positronium",), 1, 8000),
    _numerov(("hydrogen_finite_mass",), 2, 10000),
    # costs about as much as the positronium convergence op, so the tail
    # (ten samples beyond it) reads the same slot cost for 3 or 4 rounds
    _numerov(("oscillator",), 1, 14000),
    _numerov_convergence(_H),
    _numerov_convergence(("positronium",)),
    _numerov_convergence(("oscillator",)),
]
NUMEROV_WARMUP = ["solve", "--preset", "oscillator", "--method", "numerov", "--grid-n", "2000"]


# ---------------------------------------------------------------------------
# fd_report: in-process FD solves with larger n-max and grids, reports and
# wavefunction dumps written to files
# ---------------------------------------------------------------------------


def _fd(presets, k: int, grid_n: int | None = None, dump: bool = False):
    def make(rng: random.Random) -> list[str]:
        argv = ["solve", "--preset", rng.choice(presets), "--method", "fd", "--n-max", str(k)]
        if grid_n is not None:
            argv += ["--grid-n", str(grid_n)]
        fmt = _fmt(rng)
        argv += fmt + ["--output", "{dir}/report." + fmt[1]]
        if dump:
            argv += ["--wavefunctions-dir", "{dir}/wf"]
        return argv
    return make


def _to_file(head: list[str]):
    def make(rng: random.Random) -> list[str]:
        fmt = _fmt(rng)
        return head + fmt + ["--output", "{dir}/report." + fmt[1]]
    return make


_OSC = ("oscillator",)
# an odd number of slots puts the median op inside one slot's copies instead
# of between two slots, whatever the number of rounds
FD_REPORT_SLOTS = [
    _fd(_OSC, 20),
    _fd(_OSC, 20, 20000),
    _fd(_OSC, 10, 8000),
    _fd(_OSC, 5, dump=True),
    _fd(_OSC, 5, 8000, dump=True),
    _fd(_H, 3),
    _fd(("hydrogen_finite_mass",), 3, 20000),
    _fd(_H, 3, 8000, dump=True),
    _fd(("positronium",), 3, 12000),
    _fd(("positronium",), 3, dump=True),
    _to_file(["compare", "--preset", "hydrogen", "--n-max", "3"]),
    _to_file(["compare", "--preset", "positronium", "--n-max", "2"]),
    _to_file(["convergence", "--preset", "oscillator", "--method", "fd"]),
    _to_file(["convergence", "--preset", "hydrogen", "--method", "fd"]),
    _to_file(["convergence", "--preset", "positronium", "--method", "fd"]),
]
FD_REPORT_WARMUP = ["solve", "--preset", "hydrogen", "--method", "fd", "--n-max", "3",
                    "--output", "{dir}/report.csv"]


SLOTS = {"cli_cold": CLI_COLD_SLOTS, "numerov_solve": NUMEROV_SLOTS, "fd_report": FD_REPORT_SLOTS}
WARMUP = {"cli_cold": CLI_COLD_WARMUP, "numerov_solve": NUMEROV_WARMUP, "fd_report": FD_REPORT_WARMUP}


def rounds(workload: str, seed: int):
    """Endless sequence of rounds; each round is a list of argv lists."""
    slots = SLOTS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(range(len(slots)))
        rng.shuffle(order)
        yield [slots[i](rng) for i in order]
