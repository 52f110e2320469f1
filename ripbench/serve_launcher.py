"""Traced ``rip serve``: the daemon with the benchmark's span wrappers.

Usage::

    python3 ripbench/serve_launcher.py SPANS.json [rip serve options...]

Installs the wrappers of :mod:`ripbench.tracing`, runs
``repro.cli.main.main(["serve", ...])`` and, once SIGTERM has shut the
service down, writes the recorded spans to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ripbench import SRC  # noqa: E402
from ripbench.tracing import SpanRecorder, install  # noqa: E402

sys.path.insert(0, str(SRC))


def main(argv) -> int:
    spans_path, serve_args = argv[0], list(argv[1:])
    recorder = SpanRecorder()
    with recorder.span("import"):
        from repro.cli.main import main as rip_main
        import repro.service.batcher  # noqa: F401
        import repro.service.server  # noqa: F401
    uninstall = install(recorder)
    try:
        return rip_main(["serve", *serve_args])
    finally:
        uninstall()
        Path(spans_path).write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
