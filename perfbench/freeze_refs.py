"""Freeze reference values: one unchecked-by-reference pass per workload.

Run from the repository root on the commit whose numbers become the
reference (the invariant checks still apply):

    python3 perfbench/freeze_refs.py

Writes perfbench/reference.json for workloads.DEFAULT_SEED.
"""

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main():
    workdir = os.path.join(run.WORK, f"freeze-{os.getpid()}")
    out = {"seed": workloads.DEFAULT_SEED, "rel_tol": checks.REL_TOL, "jobs": {}}
    try:
        for name in workloads.WORKLOADS:
            cli, jobs = run.setup(name, workloads.DEFAULT_SEED, workdir)
            outdir = os.path.join(workdir, name)
            _, problems, _ = run.run_pass(cli, jobs, outdir, workloads.DEFAULT_SEED, None)
            bad = {k: v for k, v in problems.items() if v}
            if bad:
                print(f"{name}: invariant checks failed: {bad}", file=sys.stderr)
                return 1
            for job in jobs:
                obs = checks.observables(job, os.path.join(outdir, job.id))
                out["jobs"][job.id] = {f: obs[f] for f in checks.REFERENCE_FIELDS[job.kind]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out['jobs'])} jobs to {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
