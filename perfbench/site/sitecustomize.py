"""Start-up hook for traced benchmark servers.

The benchmark puts this directory on ``PYTHONPATH`` of the ``python -m repro
serve`` children it traces; the interpreter imports ``sitecustomize`` at
start-up, and with ``PERFBENCH_TRACE_DIR`` set the child installs the
benchmark's layer wrappers and writes its spans there when it exits.
"""

import os
import sys

_OUT = os.environ.get("PERFBENCH_TRACE_DIR")
if _OUT:
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    from perfbench.spans import trace_process

    trace_process(_OUT)
