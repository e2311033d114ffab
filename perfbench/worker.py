"""One benchmark client: a fresh interpreter that runs `fdsic.cli.main` on
request, one operation at a time.

Requests arrive on stdin and replies leave on stdout, one JSON object per
line.  The program's own output goes to stderr, which the benchmark sends to
a log file.  Requests:

    {"argv": [...], "traced": false}   run fdsic.cli.main(argv)
    {"flush": true}                    append recorded spans to the span file
    {"exit": true}                     stop

Usage: worker.py [SPAN_FILE]; with a span file, operations may be traced.
"""

import json
import sys
import traceback


def _run(cli, argv, tracer):
    reply = {"rc": None, "error": None, "restored": True}
    if tracer is not None:
        tracer.install()
    try:
        reply["rc"] = cli.main(argv)
    except SystemExit as exc:
        reply["rc"] = exc.code
    except Exception:
        reply["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            reply["restored"] = tracer.uninstall()
    return reply


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr
    span_file = sys.argv[1] if len(sys.argv) > 1 else None
    tracer = None
    if span_file is not None:
        from spans import Tracer

        tracer = Tracer()
    from fdsic import cli

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            break
        if request.get("flush"):
            with open(span_file, "a") as handle:
                handle.write(json.dumps(tracer.take(), separators=(",", ":")) + "\n")
            reply = {}
        else:
            traced = request.get("traced", False)
            reply = _run(cli, request["argv"], tracer if traced else None)
        sys.stderr.flush()
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
