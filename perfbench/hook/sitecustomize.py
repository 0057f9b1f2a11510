"""Installs the benchmark's tracer in a traced run of the stock server.

A traced served run starts the same ``python -m repro serve --tcp ...``
command as an untraced one, with this directory first on ``PYTHONPATH``
and ``PERFBENCH_TRACE_DIR`` set.  Python imports ``sitecustomize`` at
start-up, so the wrappers of ``perfbench/tracer.py`` are in place before
the program imports anything; the shards the front end starts inherit
the environment and are traced the same way.  Without
``PERFBENCH_TRACE_DIR`` this does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import importlib.util
    import sys
    from pathlib import Path

    _spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(_spec)
    sys.modules["tracer"] = tracer
    _spec.loader.exec_module(tracer)
    tracer.install()
