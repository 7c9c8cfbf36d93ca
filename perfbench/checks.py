"""Correctness gate: every job's exit code and outputs are checked.

Two layers of checks feed the failure count:

* invariants that hold for any seed and any correct implementation
  (FOEL on normalized chains, the S_max energy, dimension counts, the
  beta-chain witness, gap equality, the spin map, TL/droplet agreement);
* reference values frozen from the seed commit (``reference.json``), used
  for every job whose inputs do not depend on the seed, and for all jobs
  when the run uses the seed the references were frozen at.
"""

from __future__ import annotations

import csv
import json
import os
from math import comb

REL_TOL = 1e-9
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _col(rows, name, kind=float):
    return [kind(r[name]) for r in rows]


def observables(job, outdir):
    """Numbers a job produced, read back from its CSV/JSON files."""
    p = lambda name: os.path.join(outdir, name)  # noqa: E731
    if job.kind in ("chain", "beta"):
        rows = _csv(p("sectors.csv"))
        obs = {"S_times2": _col(rows, "S_times2", int), "dim": _col(rows, "dim", int),
               "min_energy": _col(rows, "min_energy")}
        if job.kind == "beta":
            obs["L"] = _col(rows, "L", int)
        return obs
    if job.kind == "figure1":
        data = _json(p("figure1.json"))
        keys = sorted(data["sectors"], key=int, reverse=True)
        return {"min_energy": [data["sectors"][k] for k in keys],
                "energy": _col(_csv(p("figure1.csv")), "energy")}
    if job.kind == "qfoel":
        rows = _csv(p("qsectors.csv"))
        return {"S_times2": _col(rows, "S_times2", int), "dim": _col(rows, "dim", int),
                "min_energy": _col(rows, "min_energy")}
    if job.kind == "droplet":
        rows = _csv(p("droplet.csv"))
        return {"L": _col(rows, "L", int), "n": _col(rows, "n", int),
                "finite_energy": _col(rows, "finite_energy")}
    if job.kind == "tl":
        return {"ground_energy": [_json(p("tl.json"))["ground_energy"]]}
    if job.kind == "ssep":
        rows = _csv(p("ssep_gap.csv"))
        return {"n": _col(rows, "n", int), "sector_dim": _col(rows, "sector_dim", int),
                "lambda_n": _col(rows, "lambda_n")}
    if job.kind == "spinmap":
        rows = _csv(p("spinmap.csv"))
        return {"n": _col(rows, "n", int), "lambda_n": _col(rows, "lambda_n"),
                "h_second_eigenvalue": _col(rows, "h_second_eigenvalue")}
    raise ValueError(f"unknown job kind {job.kind!r}")


# Fields compared against the frozen reference values, per job kind.
REFERENCE_FIELDS = {
    "chain": ("min_energy",),
    "beta": ("min_energy",),
    "figure1": ("min_energy",),
    "qfoel": ("min_energy",),
    "droplet": ("finite_energy",),
    "tl": ("ground_energy",),
    "ssep": ("lambda_n",),
    "spinmap": ("lambda_n",),
}


def _ordered(energies, S_times2, top_twice):
    """S_max first with energy 0, then minima strictly increasing as S falls."""
    out = []
    if not S_times2 or S_times2[0] != top_twice:
        out.append(f"first sector is 2S={S_times2[:1]}, expected {top_twice}")
    elif not close(energies[0], 0.0):
        out.append(f"S_max sector energy {energies[0]!r} is not 0")
    for hi, lo in zip(energies, energies[1:]):
        if not lo - hi > REL_TOL * max(1.0, abs(hi)):
            out.append(f"sector minima not strictly increasing as S falls: {hi!r} -> {lo!r}")
            break
    return out


def _multiplet_dim(S_times2, dims):
    return sum((s + 1) * d for s, d in zip(S_times2, dims))


def invariant_problems(job, outdir, obs):
    """Checks that hold for every seed and every correct implementation."""
    p = lambda name: os.path.join(outdir, name)  # noqa: E731
    out = []
    if job.kind == "chain":
        spins = job.info["spins"]
        hilbert = 1
        for t in spins:
            hilbert *= t + 1
        if not _json(p("foel.json"))["foel_ok"]:
            out.append("FOEL verdict is false on a normalized chain")
        if _multiplet_dim(obs["S_times2"], obs["dim"]) != hilbert:
            out.append("sum over S of (2S+1) dim_S differs from the Hilbert dimension")
        out += _ordered(obs["min_energy"], obs["S_times2"], sum(spins))
    elif job.kind == "beta":
        if not _json(p("foel.json"))["witness_found"]:
            out.append(f"beta={job.argv[2]} sweep found no violation witness")
        for L in range(2, job.info["L"] + 1):
            sel = [i for i, x in enumerate(obs["L"]) if x == L]
            got = _multiplet_dim([obs["S_times2"][i] for i in sel], [obs["dim"][i] for i in sel])
            if got != 3 ** L:
                out.append(f"L={L}: multiplet dimensions sum to {got}, not 3^{L}")
    elif job.kind == "figure1":
        data = _json(p("figure1.json"))
        if not (data["foel_ok"] and data["max_ordering_ok"]):
            out.append("figure1 ordering verdicts are not both true")
        if len(obs["energy"]) != job.info["dim"]:
            out.append(f"figure1 spectrum has {len(obs['energy'])} levels, not {job.info['dim']}")
        elif not close(min(obs["energy"]), 0.0):
            out.append("offset spectrum does not start at 0")
    elif job.kind == "qfoel":
        L = job.info["L"]
        if not _json(p("qfoel.json"))["qfoel_ok"]:
            out.append("q-FOEL verdict is false for the XXZ chain")
        if _multiplet_dim(obs["S_times2"], obs["dim"]) != 2 ** L:
            out.append("q-sector multiplet dimensions do not sum to 2^L")
        out += _ordered(obs["min_energy"], obs["S_times2"], L)
    elif job.kind == "droplet":
        if not _json(p("droplet.json"))["ok"]:
            out.append("droplet.json does not report ok")
        lmin, lmax = job.info["L"]
        expected = sorted((n, L) for n in job.info["n"] for L in range(lmin, lmax + 1)
                          if 2 * n <= L)
        if sorted(zip(obs["n"], obs["L"])) != expected:
            out.append("droplet rows do not cover every (L, n) with 2n <= L")
    elif job.kind == "tl":
        data = _json(p("tl.json"))
        k, n = job.info["k"], job.info["n"]
        if not (data["sign_ok"] and data.get("ground_vector_positive")):
            out.append("TL matrix sign or Perron positivity check failed")
        if data["dim"] != comb(k, n) - comb(k, n - 1):
            out.append(f"TL basis dimension {data['dim']} is not C(k,n)-C(k,n-1)")
    elif job.kind == "ssep":
        N = job.info["nsites"]
        if not _json(p("ssep.json"))["gap_equality_ok"]:
            out.append("gap-equality verdict is false on a connected graph")
        if obs["n"] != list(range(1, N)) or obs["sector_dim"] != [comb(N, n) for n in range(1, N)]:
            out.append("ssep sectors are not n = 1..N-1 with dimension C(N, n)")
        lam1 = obs["lambda_n"][0]
        if not lam1 > 0 or not all(close(x, lam1) for x in obs["lambda_n"]):
            out.append("spectral gaps differ between particle numbers")
    elif job.kind == "spinmap":
        N = job.info["nsites"]
        if not _json(p("spinmap.json"))["ok"]:
            out.append("spin-map verdict is false")
        if obs["n"] != list(range(1, N)):
            out.append("spin-map sectors are not n = 1..N-1")
        if not all(close(a, b) for a, b in zip(obs["lambda_n"], obs["h_second_eigenvalue"])):
            out.append("generator gap differs from the spin-chain block eigenvalue")
    return out


def cross_job_problems(jobs, results):
    """Checks between jobs of one pass; returns {job id: [problems]}.

    ``results`` maps job id to its observables (missing if the job failed).
    """
    out = {}
    droplet = next((results.get(j.id) for j in jobs if j.kind == "droplet"), None)
    for job in jobs:
        obs = results.get(job.id)
        if obs is None:
            continue
        if job.kind == "tl" and droplet is not None:
            # The diagram-basis matrix / (2(q+1/q)) is the XXZ chain on the
            # spin-deviation-n sector, so its bottom is the droplet energy.
            k, n, q = job.info["k"], job.info["n"], job.info["q"]
            rows = {(L, nn): e for L, nn, e in zip(droplet["L"], droplet["n"],
                                                     droplet["finite_energy"])}
            if (k, n) in rows:
                got = obs["ground_energy"][0] / (2.0 * (q + 1.0 / q))
                if not close(got, rows[(k, n)]):
                    out.setdefault(job.id, []).append(
                        f"TL ground energy / 2(q+1/q) = {got!r} but droplet row says "
                        f"{rows[(k, n)]!r}")
        if job.kind == "spinmap":
            # The spin map uses rates J/2, so every gap is half the SSEP gap.
            ssep = results.get(f"ssep-{job.info['graph']}")
            if ssep is not None and not all(close(2.0 * x, ssep["lambda_n"][0])
                                            for x in obs["lambda_n"]):
                out.setdefault(job.id, []).append(
                    "spin-map gaps are not half the exclusion-process gap")
    return out


def load_reference(path=REFERENCE_FILE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(job, obs, reference, seed):
    """Comparison with the frozen values; skipped for seeded jobs at other seeds.

    ``reference=None`` skips the comparison (used only to freeze new values).
    """
    if reference is None or (job.seeded and seed != reference["seed"]):
        return []
    ref = reference["jobs"].get(job.id)
    if ref is None:
        return [f"no reference values for job {job.id}"]
    tol = reference["rel_tol"]
    out = []
    for name in REFERENCE_FIELDS[job.kind]:
        got, want = obs[name], ref[name]
        if len(got) != len(want):
            out.append(f"{name}: {len(got)} values, reference has {len(want)}")
        elif not all(close(a, b, tol) for a, b in zip(got, want)):
            worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want))
            out.append(f"{name}: off the reference by {worst:.3e} (tolerance {tol:g})")
    return out
