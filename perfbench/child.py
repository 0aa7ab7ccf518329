"""One traced repetition: `python3 child.py RUN_ID OUT_DIR KEEP_BALANCES -- ARGV...`.

Installs the span wrappers, calls `pdnetsim.cli.main(ARGV)` in this process
and writes its spans and per-run records under OUT_DIR. The program's stdout
is discarded; its exit code becomes this process's exit code.
"""

import contextlib
import os
import sys

from tracing import Recorder, install


def main(argv: list[str]) -> int:
    run_id, out_dir, keep_balances, sep, *program_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RUN_ID OUT_DIR KEEP_BALANCES -- ARGV...")
    recorder = Recorder(run_id, out_dir, keep_balances == "1")
    install(recorder)
    from pdnetsim import cli

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        code = recorder.span("cli.main", cli.main, program_argv)
    recorder.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
