"""foelab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload su2-sectors --seed 1 --seconds 25 --trace 0

One client runs the workload's jobs one after another, each an in-process
call to ``foelab.cli.main(argv)``, and repeats the whole job list (a pass)
while the next pass is expected to end within ``--seconds``.  Every job's
exit code and outputs are checked (checks.py); a job with any failed check
counts as failed.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes (tracer.py) and reports
the per-layer metrics plus the tracing overhead.  In both modes every pass
must write files byte-identical to the first pass's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, failure fraction, environment).  The
package is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no package, broken probe, ...)."""


def import_foelab():
    """Cap BLAS threads, then import foelab.cli from this checkout's src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not os.path.isfile(os.path.join(SRC, "foelab", "__init__.py")):
        raise BenchError(f"no foelab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import foelab.cli

    if not os.path.abspath(foelab.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"foelab imported from {foelab.cli.__file__}, not {SRC}")
    return foelab.cli


def setup(workload, seed, workdir):
    """Everything before the first timed job: import, inputs, graph files."""
    cli = import_foelab()
    jobs = workloads.build(workload, seed, os.path.join(workdir, "inputs"))
    return cli, jobs


def _clock():
    # CLOCK_MONOTONIC is one clock for every process, so a probe's ready
    # time can be compared with the time its parent started it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(workload, seed, workdir, repeats):
    """Set-up seconds, process start to ready, of ``repeats`` fresh processes."""
    samples = []
    for i in range(repeats):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed),
                "--workdir", os.path.join(workdir, f"probe{i}")]
        start = _clock()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe did not finish") from None
        word, _, ready = out.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(float(ready) - start)
    return samples


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, jobs, outdir, seed, reference, tracer=None):
    """One pass over the job list.

    Returns (job seconds, {job id: [problems]}, {job id: {file: sha256}}).
    Only the ``cli.main`` calls are timed; checks run afterwards.
    """
    times, codes, crashed = [], {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            argv = list(job.argv) + ["--output", os.path.join(outdir, job.id)]
            if tracer is not None:
                tracer.job_id = job.id
            start = time.perf_counter()
            try:
                codes[job.id] = cli.main(argv)
            except Exception as exc:  # a program bug fails the job, not the run
                crashed[job.id] = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems, observed, digests = {}, {}, {}
    for job in jobs:
        jobdir = os.path.join(outdir, job.id)
        found = [crashed[job.id]] if job.id in crashed else []
        if not found and codes[job.id] != job.expect_exit:
            found.append(f"exit code {codes[job.id]}, expected {job.expect_exit}")
        if not found:
            try:
                obs = checks.observables(job, jobdir)
                found += checks.invariant_problems(job, jobdir, obs)
                found += checks.reference_problems(job, obs, reference, seed)
                observed[job.id] = obs
            except (OSError, KeyError, ValueError) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if os.path.isdir(jobdir):
            digests[job.id] = {name: _digest(os.path.join(jobdir, name))
                               for name in sorted(os.listdir(jobdir))}
        problems[job.id] = found
    for job_id, found in checks.cross_job_problems(jobs, observed).items():
        problems[job_id] += found
    return times, problems, digests


def measure(cli, jobs, seconds, trace, workdir, seed, reference):
    """Closed loop: passes while the next one is expected to end within budget.

    Every pass is timed; per-job medians (job_medians) absorb the first
    pass's one-off costs once there are three passes.  Every pass must write
    the bytes the first pass wrote.  With tracing, untraced and traced
    passes alternate, starting untraced (at least one of each).
    """
    tracer = tracing.Tracer() if trace else None
    passes = []  # dicts: traced, times, problems, elapsed
    layer_passes, spans = [], []
    first_digests = None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        outdir = os.path.join(workdir, f"pass{len(passes)}")
        t0 = time.perf_counter()
        times, problems, digests = run_pass(cli, jobs, outdir, seed, reference,
                                            tracer if traced else None)
        elapsed = time.perf_counter() - t0
        if first_digests is None:
            first_digests = digests
        else:
            for job in jobs:
                if digests.get(job.id) != first_digests.get(job.id):
                    problems[job.id].append("output files differ from the first pass"
                                            + (" (traced)" if traced else ""))
        shutil.rmtree(outdir, ignore_errors=True)
        if traced:
            pass_spans, counts = tracer.take()
            layer_passes.append(tracing.pass_metrics(pass_spans, counts))
            spans.append(pass_spans)
        passes.append({"traced": traced, "times": times, "problems": problems,
                       "elapsed": elapsed})
        used = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and used + max(
                p["elapsed"] for p in passes) > seconds:
            break
    return passes, layer_passes, spans


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def job_medians(passes):
    """Each job's median seconds over the given passes, in job order."""
    return [median(col) for col in zip(*(p["times"] for p in passes))]


def summarize(workload, seed, trace, setup_samples, passes, layer_passes):
    """(details, result) of one run: the last two lines the run prints."""
    plain = [p for p in passes if not p["traced"]]
    # A slow spell that hits some jobs of one pass drops out of the per-job
    # medians; the median of whole-pass sums would keep it with few passes.
    per_job = job_medians(plain)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(1 for p in passes for found in p["problems"].values() if found)
    details = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(plain), "traced_passes": len(layer_passes),
        "jobs_per_pass": len(per_job),
        # Per-job latency quantiles over the jobs' medians.  They are details,
        # not metrics: only with >= 100 jobs per pass (random-chains) do ten
        # jobs lie beyond the 90th percentile.
        "job_p50_s": median(per_job),
        "job_p90_s": quantiles(per_job, n=10, method="inclusive")[8],
        "fail_frac": failed / attempted,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [sum(p["times"]) for p in passes],
        "environment": environment(),
    }
    if trace:
        values = tracing.median_metrics(layer_passes)
        traced = [p for p in passes if p["traced"]]
        values["trace.overhead_s"] = sum(job_medians(traced)) - sum(job_medians(plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        details["computed"] = tracing.COMPUTED
    else:
        values = {
            "setup_s": median(setup_samples),
            "wall_s": sum(per_job),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        try:
            setup(args.workload, args.seed, args.workdir)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"ready {_clock()!r}", flush=True)
        return 0

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        cli, jobs = setup(args.workload, args.seed, workdir)
        reference = checks.load_reference()
        setup_samples = probe_setup(args.workload, args.seed, workdir, SETUP_REPEATS)
        passes, layer_passes, spans = measure(cli, jobs, args.seconds, bool(args.trace),
                                              workdir, args.seed, reference)
        details, result = summarize(args.workload, args.seed, args.trace, setup_samples,
                                    passes, layer_passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = 0
    for i, p in enumerate(passes):
        for job_id, found in p["problems"].items():
            for problem in found:
                if shown < 20:
                    print(f"FAIL pass {i} {job_id}: {problem}", file=sys.stderr)
                shown += 1
    if spans:
        with open(os.path.join(WORK, f"{args.workload}.spans.json"), "w") as fh:
            json.dump({"fields": ["name", "parent", "job", "start", "end", "paused"],
                       "passes": spans}, fh)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
