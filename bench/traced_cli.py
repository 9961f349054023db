"""Start `fairqr.cli.main` with every fairqr function traced.

    python3 bench/traced_cli.py <spans.json> <fairqr cli arguments...>

Used by the traced cli-llm-eval run in place of `python3 -m fairqr.cli`. It
records `cli.import` (importing fairqr.cli and its dependencies) and the
spans of the command, and writes them to <spans.json> before exiting with
the command's exit code.
"""
import sys
from time import perf_counter

START = perf_counter()


def main() -> int:
    from pathlib import Path
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    sys.path.insert(0, str(here.parent / "src"))
    import tracer as tracing

    recorder = tracing.Tracer()
    frame = recorder.enter("cli.import", "cli")
    import fairqr.cli
    recorder.leave(frame, keep=True)
    tracing.install(recorder)
    try:
        code = fairqr.cli.main(sys.argv[2:])
    finally:
        tracing.uninstall()
        root_s = sum(e - s for _, n, s, e, parent, *_ in recorder.spans if not parent)
        recorder.add("bench.launcher", perf_counter() - START - root_s, 0.0)
        recorder.dump(sys.argv[1], extra={"start": START, "end": perf_counter()})
    return code


if __name__ == "__main__":
    sys.exit(main())
