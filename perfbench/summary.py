"""Per-layer metrics from spans, and the traced-run summary.

Metric definitions (see README.md for which end-to-end metric each should
move):

* ``<layer>.<function>_s``: mean seconds per call of that function.
* ``cli.main_self_s``: mean per op of ``main`` minus its direct child spans
  (argument parsing, report formatting and writes).
* ``kinematics.self_s``, ``inversion.self_s``: self seconds spent in the
  module, per op that calls it.
* counts (``fd_states``, ``fd_grid_points``, ``numerov_states``,
  ``cli.bytes_written``): per op; ``eigensolver.errors`` is the run total.
* ``*.import_s``: median cumulative import seconds from ``-X importtime``.
"""

from __future__ import annotations

import importlib.metadata
import importlib.util
import os
import platform
import statistics
import sys
from pathlib import Path

# ROADMAP re-anchor baseline: (label, low, high) in seconds
BASELINE = {
    "import_cli": ("import rsse.cli", 0.68, 0.81),
    "kinematics_cli": ("rsse kinematics (wall)", 0.98, 0.98),
    "solve_fd_cli": ("rsse solve --method fd (wall)", 1.18, 1.18),
    "solve_lowest_k": ("solve_lowest_k, hydrogen k=3, 2000 nodes", 4.5e-3, 4.5e-3),
    "numerov_cli": ("rsse solve hydrogen k=3 numerov = import + op", 3.39, 3.39),
    "numerov_lowest_k": ("solve_numerov_lowest_k(hydrogen, 20000 nodes, 3)", 2.56, 2.56),
}
BASELINE_NOISE = 0.20

_MODULES = ["cli", "eigensolver", "presets", "spectra", "kinematics", "inversion"]


def _durations(spans):
    dur = [s[3] - s[2] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]] += dur[i]
    return dur, children


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(window, plain, imports: list[dict], startup_s: float) -> dict:
    spans = window.spans
    n_ops = len(window.latencies)
    dur, children = _durations(spans)

    def per_call(name: str) -> float:
        return _mean([d for d, s in zip(dur, spans) if s[1] == name])

    def module_self_per_op(module: str) -> float:
        per_op: dict[int, float] = {}
        for d, c, s in zip(dur, children, spans):
            if s[1].startswith(module + "."):
                per_op[s[0]] = per_op.get(s[0], 0.0) + d - c
        return _mean(list(per_op.values()))

    def attr_total(name: str, key: str) -> float:
        return sum(s[5].get(key, 0) for s in spans if s[1] == name)

    numerov = [(d, s[5]["points"]) for d, s in zip(dur, spans) if s[1] == "eigensolver.numerov_solve"]
    metrics = {"python.startup_s": (startup_s, "s")}
    for module in _MODULES:
        values = [m[module] for m in imports if module in m]
        metrics[f"{module}.import_s"] = (statistics.median(values) if values else 0.0, "s")
    metrics.update({
        "cli.main_s": (per_call("cli.main"), "s"),
        "cli.main_self_s": (_mean([d - c for d, c, s in zip(dur, children, spans) if s[1] == "cli.main"]), "s"),
        "cli.bytes_written": (window.bytes_written / n_ops, "count"),
        "presets.load_presets_s": (per_call("presets.load_presets"), "s"),
        "eigensolver.assemble_tridiagonal_s": (per_call("eigensolver.assemble_tridiagonal"), "s"),
        "eigensolver.solve_lowest_k_s": (per_call("eigensolver.solve_lowest_k"), "s"),
        "eigensolver.fd_states": (attr_total("eigensolver.solve_lowest_k", "states") / n_ops, "count"),
        "eigensolver.fd_grid_points": (attr_total("eigensolver.solve_lowest_k", "points") / n_ops, "count"),
        "eigensolver.default_brackets_s": (per_call("eigensolver.default_brackets"), "s"),
        "eigensolver.numerov_solve_s": (per_call("eigensolver.numerov_solve"), "s"),
        "eigensolver.numerov_states": (len(numerov) / n_ops, "count"),
        "eigensolver.numerov_us_per_point": (
            1e6 * sum(d for d, _ in numerov) / sum(p for _, p in numerov) if numerov else 0.0, "us"),
        "eigensolver.numerov_recurrence_defect_s": (per_call("eigensolver.numerov_recurrence_defect"), "s"),
        "eigensolver.errors": (window.errors, "count"),
        "spectra.compare_report_s": (per_call("spectra.compare_report"), "s"),
        "kinematics.self_s": (module_self_per_op("kinematics"), "s"),
        "inversion.self_s": (module_self_per_op("inversion"), "s"),
        "trace.overhead_frac": (1.0 - window.ops_per_s / plain.ops_per_s, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# summary printed above the result line of a traced run
# ---------------------------------------------------------------------------


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (the checkout is not a git repository)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    def version(name: str) -> str:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
    }


def _argv_value(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _baseline_line(key: str, value: float) -> str:
    label, low, high = BASELINE[key]
    ok = low * (1 - BASELINE_NOISE) <= value <= high * (1 + BASELINE_NOISE)
    ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
    return f"# baseline {label}: {value:.4g} s vs re-anchor {ref} s -> {'within' if ok else 'OUTSIDE'} +-20%"


def _share(label: str, part: float, base: float, base_label: str) -> str:
    return f"# share {label}: {part:.4g} s of {base:.4g} s {base_label} = {100 * part / base:.1f}%"


def print_summary(workload: str, window, plain, metrics: dict, root: Path) -> None:
    env = environment(root)
    print("# environment " + ", ".join(f"{k}={v}" for k, v in env.items()))
    spans = window.spans
    dur, _ = _durations(spans)
    op_time = sum(window.latencies)
    n_ops = len(window.latencies)
    value = {name: v for name, (v, _) in metrics.items()}
    print(f"# traced window: {n_ops} ops, {op_time:.3f} s op time; untraced window: "
          f"{len(plain.latencies)} ops, {plain.busy:.3f} s; overhead {100 * value['trace.overhead_frac']:.1f}%")
    numerov_spans = sum(1 for s in spans if s[1] == "eigensolver.numerov_solve")
    print(f"# numerov_solve spans: {numerov_spans}")

    def plain_latencies(command: str, method=None) -> list[float]:
        return [lat for lat, argv in zip(plain.latencies, plain.argvs)
                if argv[0] == command and (method is None or _argv_value(argv, "--method") == method)]

    def fd_h3_spans() -> list[float]:
        return [d for d, s in zip(dur, spans) if s[1] == "eigensolver.solve_lowest_k"
                and s[5].get("states") == 3 and s[5].get("points") == 2000]

    if workload == "cli_cold":
        print(_baseline_line("import_cli", value["cli.import_s"]))
        for key, command, method in (("kinematics_cli", "kinematics", None), ("solve_fd_cli", "solve", "fd")):
            lats = plain_latencies(command, method)
            if lats:
                print(_baseline_line(key, statistics.median(lats)))
        # both sides from the traced processes, which pay -X importtime
        start_import = value["python.startup_s"] + value["cli.import_s"]
        print(_share("interpreter start + import per op", start_import,
                     statistics.median(window.latencies), "median traced op wall"))
    if workload in ("cli_cold", "fd_report") and fd_h3_spans():
        print(_baseline_line("solve_lowest_k", statistics.median(fd_h3_spans())))
    if workload == "numerov_solve":
        heavy = [i for i, argv in enumerate(plain.argvs)
                 if argv[:3] == ["solve", "--preset", "hydrogen"] and _argv_value(argv, "--grid-n") == "20000"]
        if heavy:
            op = statistics.median(plain.latencies[i] for i in heavy)
            print(_baseline_line("numerov_cli", value["cli.import_s"] + op))
        traced_heavy = {op for op, argv in zip(window.ops, window.argvs)
                        if argv[:3] == ["solve", "--preset", "hydrogen"] and _argv_value(argv, "--grid-n") == "20000"}
        lowest = [d for d, s in zip(dur, spans) if s[1] == "eigensolver.solve_numerov_lowest_k" and s[0] in traced_heavy]
        if lowest:
            print(_baseline_line("numerov_lowest_k", statistics.median(lowest)))
        print(_share("numerov_solve (per-state shooting)",
                     sum(d for d, s in zip(dur, spans) if s[1] == "eigensolver.numerov_solve"),
                     op_time, "traced op time"))
        print(_share("default_brackets (FD seeds)",
                     sum(d for d, s in zip(dur, spans) if s[1] == "eigensolver.default_brackets"),
                     op_time, "traced op time"))
    if workload == "fd_report":
        fd = sum(d for d, s in zip(dur, spans)
                 if s[1] in ("eigensolver.solve_lowest_k", "eigensolver.assemble_tridiagonal") and s[4] >= 0
                 and spans[s[4]][1] == "cli.main")
        print(_share("FD assemble + solve called by main", fd, op_time, "traced op time"))
        print(_share("cli self (parsing, formatting, writes)", value["cli.main_self_s"] * n_ops,
                     op_time, "traced op time"))
    sys.stdout.flush()
