"""``python -m superosc`` and the ``superosc`` console script.

One CLI process runs ``cli.main`` once and exits, so ``run`` skips two costs
that only a process's start and end pay:

* cyclic-GC passes over the imports.  Loading ``superosc.cli`` with numpy
  and scipy leaves about 50 000 objects tracked by the collector, and with
  the collector on the import alone triggers over a hundred collections.
  ``run`` imports with the collector paused, then ``gc.freeze()`` moves
  every object alive at that point into the permanent generation, so the
  collections during ``main`` walk only what the run itself creates.
* interpreter teardown.  After ``main`` returns, its status leaves through
  ``os._exit`` once stdout and stderr are flushed: no module teardown, no
  final collection, no atexit handlers.

Nothing is lost by the skip.  Every file the CLI writes is closed by a
``with`` block or ``Path.write_text`` before ``main`` returns, and the only
atexit handler its imports register is ``logging.shutdown``, with no
logging handler configured.  A ``SystemExit`` or exception raised out of
``main`` (argparse's usage errors and ``--help``, a traceback) leaves by the
normal exit, as does a run whose flush fails on a closed or broken stdout,
so their status and stderr are what a plain ``raise SystemExit(main())``
gives.  Importing this module runs nothing: ``cli.main`` called in process
(by tests, or the benchmark's traced runs) exits normally.
"""

import gc
import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` and end the process with its exit status.

    Returns the status only when the flush fails, for the caller to raise as
    ``SystemExit``; otherwise the process ends here.
    """
    gc.disable()
    try:
        from .cli import main

        gc.freeze()
    finally:
        gc.enable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):
        return code  # the normal exit reports the failed flush as it always has
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
