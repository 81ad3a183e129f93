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
* modules that only the imports ask for.  ``scipy.special`` imports scipy's
  array-API shim, whose copy of the numpy namespace runs ``from numpy import
  *``; with numpy 2, that loads every lazy submodule ``numpy.__all__`` names,
  among them ``numpy.f2py`` (with ``charset_normalizer``), ``numpy.ma``,
  ``numpy.polynomial``, ``numpy.random`` and ``numpy.testing``.  And
  ``dynamics`` imports ``scipy.interpolate`` for the detector's spline, which
  brings ``scipy.optimize``, ``scipy.linalg``, ``scipy.sparse`` and
  ``scipy.spatial``: 287 of the 354 scipy modules.  ``run`` first places
  each of ``_DEFERRED`` in ``sys.modules`` with its import attributes set and
  its body unrun, so the star-import and ``import scipy.interpolate`` bind it
  as it is.  A body runs on the first read of a name the module lacks, as a
  plain import would have run it, so deferring changes no result: the three
  ops that fit a spline (transition, detune and the assert fixture) load
  ``scipy.interpolate`` mid-run, and ``numpy.ma`` and ``numpy.random`` with
  it, and end with 652 modules loaded; the six others load none of them and
  end with 342.  A plain ``import superosc.cli`` loads 829.  On 2 cores,
  deferring ``scipy.interpolate``, ``numpy.polynomial`` and ``numpy.random``
  took the median ``cli_cold`` benchmark op from 0.69 to 0.42 s.

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
import types

# numpy.*: loaded by the shim's star-import; scipy.interpolate: imported by dynamics
_DEFERRED = ("numpy.f2py", "numpy.ma", "numpy.polynomial", "numpy.random", "numpy.testing",
             "scipy.interpolate")


class _DeferredModule(types.ModuleType):
    """A module whose body runs on the first read of a name it lacks.

    ``module_from_spec`` sets ``__spec__``, ``__path__`` and the other import
    attributes, so the reads an ``import`` statement makes find them without
    running the body.  ``importlib.util.LazyLoader`` would not do: its module
    runs the body on any attribute read, ``__spec__`` included.
    """

    def __getattr__(self, name):
        self.__class__ = types.ModuleType  # a read during the body is an ordinary miss
        self.__spec__.loader.exec_module(self)
        return getattr(self, name)


def _defer() -> None:
    """Put each deferred module in ``sys.modules`` unexecuted; its body runs on first use."""
    for name in _DEFERRED:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        module = importlib.util.module_from_spec(spec)
        module.__class__ = _DeferredModule
        sys.modules[name] = module
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
