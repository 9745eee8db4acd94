"""Benchmark of the rsse CLI and its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from ``src``,
not from an installed copy).  One client drives the program in a closed
loop: the next op starts when the previous one has finished and been
checked.  Ops are CLI argv lists from the fixed pools in ``workloads.py``;
every op is checked against the oracles in ``oracles.py``, and the first op
of every round is run a second time and must give identical report bytes.

The timed window is the sum of the op latencies; checks and re-runs happen
outside it.  It runs in whole rounds until it holds at least ``--seconds``
and at least 11 ops.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds (the untraced ones give the tracing overhead), and prints a
summary of layer shares and the environment above the JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

import oracles  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
STARTUP_REPEATS = 5
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
WINDOW_WALL_CAP_S = 70.0  # per window: keeps a run inside its time limit on a slow machine
CHILD_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    argv: list[str]
    latency: float
    code: int
    stdout: str
    stderr: str
    spans: list = field(default_factory=list)
    errors: int = 0
    importtime: dict = field(default_factory=dict)


@dataclass
class Window:
    latencies: list[float] = field(default_factory=list)
    argvs: list[list[str]] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    passed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    spans: list = field(default_factory=list)
    errors: int = 0
    imports: list[dict] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.passed / self.busy


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples above it.

    With n samples sorted ascending that is the (n-10)-th smallest, at
    percentile 100 (n-10)/n; fewer than 11 samples give the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_OPS:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of each ``rsse`` module from ``-X importtime``."""
    found = {}
    for match in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", stderr):
        name = match.group(2)
        if name.startswith("rsse."):
            found[name[5:]] = int(match.group(1)) * 1e-6
    return found


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def _expand(template: list[str], opdir: Path) -> list[str]:
    return [arg.replace("{dir}", str(opdir)) for arg in template]


class InProcess:
    """Ops as calls to ``rsse.cli.main`` in this process."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import rsse.cli
        import rsse.eigensolver
        self.cli = rsse.cli
        self.eigensolver = rsse.eigensolver
        self.tracer = tracer.Tracer()
        self._restore = None

    def set_tracing(self, on: bool) -> None:
        """Install or remove the wrappers; spans collect in ``self.tracer``."""
        if on and self._restore is None:
            self._restore = tracer.install(self.tracer, self.cli, self.eigensolver)
        elif not on and self._restore is not None:
            self._restore()
            self._restore = None

    def execute(self, argv: list[str], opdir: Path, op_index: int) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        t = self.tracer if self._restore is not None else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if t is not None:
                t.op = op_index
                span = t.begin("cli.main")
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a failed run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else -1
            if t is not None:
                t.end(span)
        latency = time.perf_counter() - start
        return OpResult(argv, latency, code, out.getvalue(), err.getvalue())


class ColdCli:
    """Ops as fresh ``python -m rsse.cli`` processes."""

    def __init__(self) -> None:
        self.tracing = False

    def set_tracing(self, on: bool) -> None:
        self.tracing = on

    def execute(self, argv: list[str], opdir: Path, op_index: int) -> OpResult:
        if not self.tracing:
            latency, proc = _run_child([sys.executable, "-m", "rsse.cli", *argv], opdir)
            return OpResult(argv, latency, proc.returncode, proc.stdout, proc.stderr)
        spans_path = opdir / "spans.json"
        cmd = [sys.executable, "-X", "importtime", str(CHILD), "op", str(spans_path), "--", *argv]
        latency, proc = _run_child(cmd, opdir)
        result = OpResult(argv, latency, proc.returncode, proc.stdout, proc.stderr)
        result.importtime = parse_importtime(proc.stderr)
        result.stderr = "\n".join(l for l in proc.stderr.splitlines() if not l.startswith("import time:"))
        if spans_path.is_file():
            record = json.loads(spans_path.read_text())
            result.spans = [tuple(span) for span in record["spans"]]
            result.errors = record["errors"]
            spans_path.unlink()
        return result


def _check(result: OpResult, opdir: Path) -> tuple[list[str], tuple, int]:
    """(problems, output bytes for the determinism check, bytes written)."""
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"], (), 0
    if result.stderr.strip():
        return [f"unexpected stderr: {result.stderr.strip()[-300:]}"], (), 0
    try:
        text, files = oracles.read_outputs(result.argv, result.stdout, opdir)
    except OSError as exc:
        return [f"missing output: {exc}"], (), 0
    problems = oracles.check_op(result.argv, text, files)
    written = len(text.encode()) + sum(len(v.encode()) for v in files.values())
    return problems, (result.stdout, text, tuple(sorted(files.items()))), written


def timed_windows(client, workload: str, seed: int, seconds: float, work: Path,
                  lanes: tuple[bool, ...]) -> list[Window]:
    """One window per lane (traced or not), filled by alternating whole rounds.

    Each window runs until it holds ``seconds`` of op time and MIN_OPS ops.
    Alternating rounds lets a traced and an untraced window see the same
    machine state, which drifts over minutes.
    """
    windows = [Window() for _ in lanes]
    wall_start = time.monotonic()
    rounds = workloads.rounds(workload, seed)
    op_index = 0
    round_index = 0
    while any(w.busy < seconds or len(w.latencies) < MIN_OPS for w in windows) and (
        time.monotonic() - wall_start < WINDOW_WALL_CAP_S * len(lanes)
    ):
        lane = round_index % len(lanes)
        window, traced = windows[lane], lanes[lane]
        client.set_tracing(traced)
        for position, template in enumerate(next(rounds)):
            opdir = work / f"op{op_index}"
            opdir.mkdir()
            argv = _expand(template, opdir)
            result = client.execute(argv, opdir, op_index)
            problems, produced, written = _check(result, opdir)
            if position == 0 and not problems:
                # determinism: the same argv again, always untraced, must give
                # the same bytes (so a traced window also compares traced
                # output against untraced output)
                shutil.rmtree(opdir)
                opdir.mkdir()
                client.set_tracing(False)
                again = client.execute(argv, opdir, op_index)
                client.set_tracing(traced)
                again_problems, again_produced, _ = _check(again, opdir)
                if again_problems or again_produced != produced:
                    problems = [f"re-run did not reproduce the report bytes {again_problems}"]
            window.latencies.append(result.latency)
            window.argvs.append(template)
            window.ops.append(op_index)
            window.bytes_written += written
            offset = len(window.spans)
            window.spans += [(op_index, name, start, end, parent + offset if parent >= 0 else -1, attrs)
                             for _, name, start, end, parent, attrs in result.spans]
            window.errors += result.errors
            if result.importtime:
                window.imports.append(result.importtime)
            if problems:
                window.failed += 1
                window.problems.append(f"{' '.join(template)}: {problems[0]}")
            else:
                window.passed += 1
            shutil.rmtree(opdir)
            op_index += 1
        round_index += 1
    client.set_tracing(False)
    if isinstance(client, InProcess):  # its spans all come from traced rounds
        for window, traced in zip(windows, lanes):
            if traced:
                window.spans, window.errors = client.tracer.spans, client.tracer.errors
    return windows


def measure_setup(workload: str, work: Path, importtime: bool) -> tuple[list[float], list[dict]]:
    """Fresh-interpreter set-up, SETUP_REPEATS times: (wall seconds, import maps)."""
    times, imports = [], []
    warmup = workloads.WARMUP[workload]
    for i in range(SETUP_REPEATS):
        probe = work / f"setup{i}"
        probe.mkdir()
        flags = ["-X", "importtime"] if importtime else []
        if workload == "cli_cold":
            cmd = [sys.executable, *flags, "-m", "rsse.cli", *_expand(warmup, probe)]
        else:
            cmd = [sys.executable, *flags, str(CHILD), "setup", str(probe), json.dumps(warmup)]
        latency, proc = _run_child(cmd, probe)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr[-500:]}")
        times.append(latency)
        imports.append(parse_importtime(proc.stderr))
        shutil.rmtree(probe)
    return times, imports


def measure_startup(work: Path) -> float:
    times = [_run_child([sys.executable, "-c", "pass"], work)[0] for _ in range(STARTUP_REPEATS)]
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_client(workload: str, work: Path):
    if workload == "cli_cold":
        return ColdCli()
    client = InProcess()  # the in-process client pays its own warm-up op too
    warm = work / "warm"
    warm.mkdir()
    client.execute(_expand(workloads.WARMUP[workload], warm), warm, -1)
    shutil.rmtree(warm)
    return client


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, Window]:
    setup_times, _ = measure_setup(workload, work, importtime=False)
    client = make_client(workload, work)
    (window,) = timed_windows(client, workload, seed, seconds, work, lanes=(False,))
    value, pct, n = tail(window.latencies)
    print(f"# {workload}: {n} ops in {window.busy:.3f} s of op time; "
          f"op_tail_s is p{pct:.1f} of {n} samples; setup samples {[round(t, 4) for t in setup_times]}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (window.ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(window.latencies), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return metrics, window


def traced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, Window]:
    startup_s = measure_startup(work)
    # the traced cli_cold children report their own imports
    imports = [] if workload == "cli_cold" else measure_setup(workload, work, importtime=True)[1]
    client = make_client(workload, work)
    plain, window = timed_windows(client, workload, seed, seconds, work, lanes=(False, True))
    imports += window.imports
    metrics = summary.layer_metrics(window, plain, imports, startup_s)
    summary.print_summary(workload, window, plain, metrics, ROOT)
    window.failed += plain.failed
    window.passed += plain.passed
    window.problems += plain.problems
    return metrics, window


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rsse" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'rsse'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        metrics, window = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    for problem in window.problems[:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": window.failed == 0,
        "attempted": window.passed + window.failed,
        "failed": window.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
