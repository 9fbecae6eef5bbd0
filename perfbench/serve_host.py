"""Run ``repro serve`` with the layer wrappers installed (traced runs).

    python3 perfbench/serve_host.py LAYERS.json serve --state-dir ... --port 0

Behaves exactly like ``python -m repro serve ...``; after the server's
graceful drain (SIGTERM) it writes the per-layer totals, summed over
the server's worker threads, to ``LAYERS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    import repro.serve.bridge as bridge
    from repro.cli import main as cli_main

    recorder = layers.Recorder()
    layers.install(recorder)
    for attr in ("explore_schedule", "explore_space", "explore_joint"):
        recorder.wrap(bridge, attr, "executor.explore")
    try:
        return cli_main(argv[1:])
    finally:
        recorder.uninstall()
        Path(argv[0]).write_text(json.dumps({
            "metrics": {k: v[0] for k, v in layers.layer_metrics(recorder).items()},
            "self": dict(recorder.self_time),
            "top_level": recorder.top_level,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
