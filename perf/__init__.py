"""perf: the repo's wall-clock benchmark.

Five workloads drive the public node / edge / fleet calls from outside
and time them with ``time.perf_counter_ns``; nothing under ``src/`` is
touched.  ``python3 -m perf --help`` lists the modes; ``perf/README.md``
explains every workload and metric.

The system under test lives in ``src/repro``.  The benchmark must run
from a bare checkout (``python3 -m perf`` with no ``PYTHONPATH``), so
the package puts ``src/`` on ``sys.path`` itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
