"""Self-tests of the benchmark itself (not of foelab).

Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json and layers.json name exactly the metrics and workloads
   the code reports.
2. The gate gates: with one reference value perturbed by 1e-6 relative, a
   run of ssep-spinmap reports failed jobs (fail_frac > 0); unperturbed, none.
3. A seed other than the one the references were frozen at passes every
   check on every workload (the seed-independent reference values included).
"""

import copy
import json
import os
import shutil
import sys

import checks
import run
import tracer
import workloads

OTHER_SEED = 7


def check_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != tracer.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if sorted(layers["metrics"]) != sorted(m["name"] for m in bench["per_layer"]):
        problems.append("layers.json metrics differ from BENCHMARK.json per_layer")
    computed = sorted(n for n, m in layers["metrics"].items() if m["computed"])
    if computed != sorted(tracer.COMPUTED):
        problems.append("layers.json computed flags differ from tracer.COMPUTED")
    return problems


def run_workload(name, seed, reference, workdir):
    """Warm-up plus one timed pass; returns the run's details and result."""
    cli, jobs = run.setup(name, seed, os.path.join(workdir, name))
    passes, layer_passes, _ = run.measure(cli, jobs, 0.0, False,
                                          os.path.join(workdir, name), seed, reference)
    return run.summarize(name, seed, 0, [0.0], passes, layer_passes)


def check_gate(workdir):
    reference = checks.load_reference()
    problems = []
    details, _ = run_workload("ssep-spinmap", reference["seed"], reference, workdir)
    if details["fail_frac"] != 0:
        problems.append(f"unperturbed reference: fail_frac {details['fail_frac']}")
    perturbed = copy.deepcopy(reference)
    perturbed["jobs"]["ssep-path12"]["lambda_n"][0] *= 1.0 + 1e-6
    details, result = run_workload("ssep-spinmap", reference["seed"], perturbed, workdir)
    if not (details["fail_frac"] > 0 and result["failed"] > 0 and not result["correct"]):
        problems.append("a perturbed reference value did not fail any job")
    return problems


def check_other_seed(workdir):
    reference = checks.load_reference()
    if OTHER_SEED == reference["seed"]:
        return ["OTHER_SEED must differ from the reference seed"]
    problems = []
    for name in workloads.WORKLOADS:
        details, result = run_workload(name, OTHER_SEED, reference, workdir)
        if result["failed"]:
            problems.append(f"{name} at seed {OTHER_SEED}: {result['failed']} failed jobs")
    return problems


def main():
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    results = {}
    try:
        results["names"] = check_names()
        results["gate"] = check_gate(workdir)
        results["other seed"] = check_other_seed(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, problems in results.items():
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
