"""One traced CLI call: ``python3 bench/cli_child.py SPANS.json ARGS...``.

Times the import of ``beliefkit.cli``, wraps the subcommand handlers, the
report rendering and the traced public names in spans, runs ``main(ARGS)``
and writes the spans to SPANS.json.  Stdout, stderr and the exit code are
the CLI's own.  The benchmark runs this in place of the plain runner only
in its traced run.
"""

import json
import sys
import types
from time import perf_counter_ns

start = perf_counter_ns()
import beliefkit.cli as cli  # noqa: E402

imported = perf_counter_ns()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    for command, handler in cli.HANDLERS.items():
        cli.HANDLERS[command] = tracer.wrap(handler, "cli.handler")
    # module globals shadow the builtin print and the json module inside cli
    cli.print = tracer.wrap(print, "cli.render")
    cli.json = types.SimpleNamespace(dumps=tracer.wrap(json.dumps, "cli.render"))
    tracer.begin(0)
    try:
        code = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        tracer.end()
        tracer.spans.append((0, tracer._next, -1, "cli.import", start, imported, None))
        with open(spans_path, "w") as out:
            json.dump([span[1:] for span in tracer.spans], out)
    return code


if __name__ == "__main__":
    sys.exit(main())
