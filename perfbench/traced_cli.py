"""Run the superosc CLI with span tracing, for the traced cli_cold ops.

    python3 perfbench/traced_cli.py <spans.json> <op id> <superosc CLI arguments>

Behaves as ``python -m superosc <arguments>`` (same exit code), with the
tracer installed before ``main`` runs; the spans are written to
<spans.json> once, when the CLI returns or raises.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import superosc.cli

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return superosc.cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
