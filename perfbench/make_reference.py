"""Write the reference outputs the benchmark compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root.  The files in ``perfbench/reference/`` record
what the package produced when the benchmark was defined; regenerate them
only when an output is meant to change, and say why in the change log.
"""

import json
import sys
from pathlib import Path

import workloads
from blockade.dynamics import DimensionBudgetError

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    references: dict = {}
    for workload in workloads.WORKLOADS:  # certify reads the oracle's ring 18
        outputs = {}
        for op in workloads.ops_for(workload, references):
            try:
                result = op.run()
            except DimensionBudgetError as exc:
                if not op.refuses:
                    raise
                result = exc
            outputs[op.name] = op.output(result)
        references[workload] = outputs
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "ops": outputs}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
