"""Record the golden references under perfbench/golden/ from the current source.

Usage (from the root of a source checkout):

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload once at the golden seed and stores its final losses per
(p, replicate) or its full analyze.csv. Only rerun it when a change of the
outputs is intended, and say so where the change is recorded.
"""

import os
import shutil
import sys
import tempfile
import time

import checks
from run import RUN_BUDGET_S, WORK, Session, write_config
from workloads import GOLDEN_SEED, WORKLOADS


def main(names) -> int:
    os.makedirs(WORK, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK)
        try:
            session = Session(workdir, time.monotonic() + RUN_BUDGET_S)
            config = write_config(session, workload, GOLDEN_SEED, smoke=False)
            result = session.invoke(workload.command, config, False, False)
            if result is None:
                print(f"{name}: command failed: {session.checks[-1]}", file=sys.stderr)
                return 1
            checks.write_golden(workload.name, workload.command, result["out_dir"])
            print(f"{name}: wrote {checks.golden_path(workload.name, workload.command)}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
