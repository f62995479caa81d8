"""Run one CLI verb with the span wrappers installed (traced cli runs).

    python3 bench/launch.py PREFIX OP_ID VERB ARGS...

Behaves as ``python -m layerprop.cli VERB ARGS...`` and, when the verb
ends, writes its aggregates to PREFIX.json and its spans to PREFIX.tsv.gz.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    prefix, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import layerprop.cli as cli
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return tracer.run_op(op_id, lambda: cli.main(argv))
    finally:
        tracer.write(prefix + ".tsv.gz")
        Path(prefix + ".json").write_text(json.dumps(tracer.aggregates()),
                                          encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
