"""Tests of the benchmark itself: tail estimator, oracle checks, op sequence.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io

import pytest

import oracles
import run
import workloads
from rsse.cli import main


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, percentile, n = run.tail([float(x) for x in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)
    value, percentile, n = run.tail([float(x) for x in reversed(range(11))])
    assert value == 0.0 and n == 11 and percentile == pytest.approx(100.0 / 11.0)


def test_tail_of_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _perturb(text: str, column: str, state: int, factor: float) -> str:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[start].split(",")
    cells = lines[start + 1 + state].split(",")
    cells[columns.index(column)] = f"{float(cells[columns.index(column)]) * factor:.17g}"
    lines[start + 1 + state] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "hydrogen", "--method", "fd", "--n-max", "3"],
        ["solve", "--preset", "oscillator", "--method", "fd", "--n-max", "5"],
        ["solve", "--preset", "oscillator", "--method", "numerov", "--n-max", "2", "--grid-n", "2000"],
    ],
)
def test_checker_rejects_a_perturbed_eigenvalue(argv):
    text = _report(argv)
    assert oracles.check_op(argv, text) == []
    problems = oracles.check_op(argv, _perturb(text, "epsilon_hartree", 1, 1.0 + 1e-7))
    assert problems and "state 1" in problems[0]


def test_checker_rejects_wrong_node_count_and_binding():
    argv = ["solve", "--preset", "hydrogen", "--method", "fd", "--n-max", "2"]
    text = _report(argv)
    assert oracles.check_op(argv, text.replace(",0\n", ",1\n", 1)) != []
    argv = ["compare", "--preset", "hydrogen", "--n-max", "1"]
    text = _report(argv)
    assert oracles.check_op(argv, text) == []
    assert oracles.check_op(argv, _perturb(text, "B_rel", 0, 1.0 + 1e-10)) != []


def test_same_seed_gives_the_same_op_sequence():
    for workload in workloads.SLOTS:
        first, second = workloads.rounds(workload, 7), workloads.rounds(workload, 7)
        a = [next(first) for _ in range(3)]
        assert a == [next(second) for _ in range(3)]
        other = workloads.rounds(workload, 8)
        assert a != [next(other) for _ in range(3)]


def test_seed_changes_order_and_format_but_not_the_work():
    def work(op):
        flags = ("--method", "--n-max", "--grid-n", "--wavefunctions-dir")
        return [op[0]] + [str(oracles._flag(op, flag)) for flag in flags]

    for workload in ("numerov_solve", "fd_report"):
        rounds = [next(workloads.rounds(workload, seed)) for seed in range(5)]
        assert all(sorted(map(work, r)) == sorted(map(work, rounds[0])) for r in rounds)
    rounds = [next(workloads.rounds("cli_cold", seed)) for seed in range(5)]
    assert all(sorted(op[0] for op in r) == sorted(op[0] for op in rounds[0]) for r in rounds)
