"""``python -m superosc`` and the ``superosc`` console script.

One CLI process runs ``cli.main`` once and exits, so ``run`` skips three
costs that only a process's start and end pay:

* cyclic-GC passes over the imports.  Loading ``superosc.cli`` with numpy
  and scipy leaves about 50 000 objects tracked by the collector, and with
  the collector on the import alone triggers over a hundred collections.
  ``run`` imports with the collector paused, then ``gc.freeze()`` moves
  every object alive at that point into the permanent generation, so the
  collections during ``main`` walk only what the run itself creates.
* interpreter teardown.  After ``main`` returns, its status leaves through
  ``os._exit`` once stdout and stderr are flushed: no module teardown, no
  final collection, no atexit handlers.
* numpy submodules that only the import asks for.  ``scipy.special`` imports
  scipy's array-API shim, whose copy of the numpy namespace runs ``from numpy
  import *``; with numpy 2, that loads every lazy submodule ``numpy.__all__``
  names, among them ``numpy.f2py`` (with ``charset_normalizer``),
  ``numpy.ma`` and ``numpy.testing``: 175 of the 829 modules ``import
  superosc.cli`` loads.  ``run`` first places those three in ``sys.modules``
  as ``importlib.util.LazyLoader`` modules, so the star-import binds each
  without running its body.  A body runs on first attribute use, as a plain
  import would have run it, so deferring changes no result: ``numpy.ma``
  loads mid-run in transition, detune and the assert fixture (a spline fit
  asks ``np.ma.isMaskedArray``), and no CLI path uses the other two.

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
import importlib.util
import os
import sys

_DEFERRED = ("numpy.f2py", "numpy.ma", "numpy.testing")  # the shim's star-import loads them


def _defer() -> None:
    """Put each deferred module in ``sys.modules`` unexecuted; its body runs on first use."""
    for name in _DEFERRED:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)


def run() -> int:
    """Run the CLI on ``sys.argv`` and end the process with its exit status.

    Returns the status only when the flush fails, for the caller to raise as
    ``SystemExit``; otherwise the process ends here.
    """
    gc.disable()
    try:
        _defer()
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
