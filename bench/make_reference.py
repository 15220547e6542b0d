"""Rewrite reference.json from the current library.

    python3 bench/make_reference.py

The file holds the round-0 outputs of every workload at the default seed;
runs at that seed compare against it at float64-derived tolerances.  Only
regenerate it for a change that is meant to alter computed results.
"""

import json

import run
import workloads

reference = {}
for name, workload in workloads.WORKLOADS.items():
    inputs = workload.inputs(run.DEFAULT_SEED, 0)
    ledger = run.Ledger()
    _, outputs = run.run_calls(workload, inputs, ledger)
    if ledger.failed:
        raise SystemExit(f"{name}: {ledger.messages}")
    reference[name] = {workloads.label(inp): out for inp, out in zip(inputs, outputs)}
run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
print(f"wrote {run.REFERENCE}")
