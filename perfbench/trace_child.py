"""Traced ``kipa`` CLI call for the ``cli_mix`` workload.

Usage: ``python trace_child.py SPANS_JSON <kipa argv...>``

Times ``import kipa.cli``, wraps kipa's layer modules, calls
``kipa.cli.main(argv)`` and writes the spans to SPANS_JSON. The exit code
is the one ``main`` returns.
"""

import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    start = time.perf_counter()
    import kipa.cli
    end = time.perf_counter()
    modules = len(sys.modules) - before
    scipy = sum(1 for name in sys.modules if name.split(".", 1)[0] == "scipy")

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["import.kipa", start, end, -1, None, modules, scipy, 0])
    tracer.install(tracing.layer_modules())
    code = 1
    try:
        code = kipa.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
