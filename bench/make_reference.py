"""Regenerate the analytic reference values of the analytic_sweep workload.

    python3 bench/make_reference.py

Runs every step of the sweep once with its grids in their listed order
and stores r_star, p_maj and z of each CSV row, as written, keyed by the
row's input columns, in bench/reference/analytic.json.  Run it only on
the commit whose numbers are the reference; the checks compare every
later commit against that file.
"""

import json
import shutil

import checkout

checkout.prepare()

import workloads  # noqa: E402

work = checkout.BENCH / "out" / "reference-work"
work.mkdir(parents=True, exist_ok=True)
try:
    reference = {"_command": "python3 bench/make_reference.py"}
    for label, argv, cfg, keys in workloads.sweep_steps():
        path = workloads.write_config(work / f"{label}.yaml", cfg)
        workloads.run_cli([*argv, "--config", path, "--out", work])
        reference[label] = workloads.csv_rows(work / f"{label}.csv", keys)
finally:
    shutil.rmtree(work, ignore_errors=True)
workloads.REFERENCE.parent.mkdir(exist_ok=True)
workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                               + "\n")
print(f"wrote {workloads.REFERENCE}")
