"""Set-up probe: a fresh interpreter imports sniep5 and completes one op.

    python3 bench/probe.py <workload> <seed>

Prints ``done`` once the workload's first op has returned.  run.py times
this from process start to that line and reports the median as setup_s.
"""

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sniep5  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    warnings.simplefilter("ignore", sniep5.BoundaryProximityWarning)
    workload = WORKLOADS[name](seed)
    workload.op(next(iter(workload.inputs())))
    print("done", flush=True)


if __name__ == "__main__":
    main()
