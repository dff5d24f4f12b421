"""Record the seed-0 outcomes that every benchmark run is checked against.

    python3 bench/record_expected.py

Runs one untimed pass of each workload at seed 0 on the default grid and
writes, per unit, its classification and per optimizer run (or simulation)
its status, cost and cycle period to bench/expected.json.  Run it only when
a change to spinctrl is meant to change these outcomes, and say so.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from spinctrl.experiments import ExperimentConfig  # noqa: E402


def main():
    recorded = {"steps": ExperimentConfig().steps, "workloads": {}}
    out_dir = tempfile.mkdtemp(prefix="bench-record-")
    try:
        for name, workload in workloads.WORKLOADS.items():
            units = workload.make_inputs(0)
            capture = tracing.Capture(workload.job_boundary)
            with capture.installed():
                outcomes = workloads.run_pass(workload, units, out_dir, capture)
            result = workloads.check_pass(workload, units, outcomes)
            if result.failed:
                sys.exit(f"{name}: {result.failed} jobs failed: {result.errors[:5]}")
            recorded["workloads"][name] = result.outcomes
            print(f"{name}: " + ", ".join(
                f"{o['classification']} {sorted({r[0] for r in o['runs']})}"
                for o in result.outcomes
            ))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
