"""Run ``python -m kbeq ARGS`` with kbeq's layers traced.

Usage: ``python3 cli_child.py SPANS_JSON ARGS...``.  The kbeq entry point is
the same one ``python -m kbeq`` runs; the spans recorded inside it are
written to SPANS_JSON when the command ends.
"""

import runpy
import sys

import tracing


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    sys.argv = ["kbeq", *args]
    code = 0
    try:
        runpy.run_module("kbeq", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
