"""In-memory spans around calls into the layers of ``rsse``.

The benchmark records spans from outside the program: ``install`` replaces
the public functions the layers call each other through (names in the
``rsse.cli`` and ``rsse.eigensolver`` namespaces) with timing wrappers, and
the returned callable puts the originals back.  A span is
``(op, name, start, end, parent, attrs)``; ``parent`` is the index of the
enclosing span, so a layer's self time is its duration minus the time its
direct children cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time

# (module, function) pairs wrapped in the cli namespace: every layer the CLI
# calls directly
CLI_CALLS = {
    "presets": ["load_presets"],
    "eigensolver": ["assemble_tridiagonal", "solve_lowest_k", "solve_numerov_lowest_k",
                    "convergence_order"],
    "spectra": ["compare_report", "bohr_level", "oscillator_level"],
    "kinematics": ["gamma_factor", "momentum", "total_energy", "wave_from_particle",
                   "clock_and_wave_frequencies", "check_phase_harmony"],
    "inversion": ["dirac_theta_chi", "effective_mass", "electron_plane_wave",
                  "spacetime_invert", "evaluate_plane_wave"],
}
# calls the eigensolver makes to itself through its module globals
EIGENSOLVER_CALLS = ["assemble_tridiagonal", "solve_lowest_k", "default_brackets",
                     "numerov_solve", "numerov_recurrence_defect"]


def _attrs(name: str, args: tuple) -> dict:
    """Work counts recorded at the layer boundary."""
    if name == "eigensolver.solve_lowest_k":
        return {"states": int(args[1]), "points": int(args[0].grid.n)}
    if name == "eigensolver.numerov_solve":
        return {"points": int(args[1].n)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.errors = 0
        self.op = 0
        self._stack: list[int] = []
        self._last_error: BaseException | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op, name, time.perf_counter(), None, parent, {}))
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        op, name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (op, name, start, time.perf_counter(), parent, attrs or {})
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, where it is first raised
                if name.startswith("eigensolver.") and exc is not self._last_error:
                    self.errors += 1
                    self._last_error = exc
                self.end(index)
                raise
            self.end(index, _attrs(name, args))
            return result
        return traced


def install(tracer: Tracer, cli, eigensolver):
    """Wrap the layer entry points; returns a callable that restores them."""
    saved = []

    def patch(module, attr, name):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original))

    for layer, functions in CLI_CALLS.items():
        for function in functions:
            patch(cli, function, f"{layer}.{function}")
    for function in EIGENSOLVER_CALLS:
        patch(eigensolver, function, f"eigensolver.{function}")

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
