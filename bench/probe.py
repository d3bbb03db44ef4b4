"""Set-up probe: time one fresh interpreter's import and warm-up.

    python3 bench/probe.py <workload>

Prints one JSON line {"import_s": ..., "warmup_s": ...}: the time to import
cachesec (with its CLI) and the time of the first call of every evaluator
the workload uses. `run.py` starts it several times per run.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import cachesec.cli  # noqa: E402,F401

T1 = time.perf_counter()
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "warmup_s": T2 - T1}))
