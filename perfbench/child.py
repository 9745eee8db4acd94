"""Fresh-interpreter helper for the benchmark.

``child.py setup WORKDIR ARGV_JSON``
    import ``rsse.cli``, call ``load_presets()`` and run one warm-up op: the
    set-up a new process pays before its first timed op.

``child.py op SPANS_PATH -- ARGV...``
    a traced CLI process: import ``rsse.cli``, wrap its layers, run
    ``main(ARGV)`` and write the spans to SPANS_PATH.  The report goes to
    stdout exactly as with ``python -m rsse.cli``.

Run with ``PYTHONPATH`` pointing at the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys


def setup(workdir: str, argv_json: str) -> int:
    import rsse.cli
    from rsse.presets import load_presets

    load_presets()
    argv = [a.replace("{dir}", workdir) for a in json.loads(argv_json)]
    os.makedirs(workdir, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return rsse.cli.main(argv)


def traced_op(spans_path: str, argv: list[str]) -> int:
    import rsse.cli
    import rsse.eigensolver
    import tracer

    t = tracer.Tracer()
    tracer.install(t, rsse.cli, rsse.eigensolver)
    index = t.begin("cli.main")
    try:
        code = rsse.cli.main(argv)
    finally:
        t.end(index)
        sys.stdout.flush()
        with open(spans_path, "w") as handle:
            json.dump({"errors": t.errors, "spans": t.spans}, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3]))
    if mode == "op" and sys.argv[3] == "--":
        sys.exit(traced_op(sys.argv[2], sys.argv[4:]))
    sys.exit(f"usage: {sys.argv[0]} setup WORKDIR ARGV_JSON | op SPANS_PATH -- ARGV...")
