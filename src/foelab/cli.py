"""Command-line front end: every experiment as a reproducible batch command.

Exit codes: 0 success, 1 genuine property violation (e.g. FOEL failed),
2 usage error, 3 numerical failure.  Any other exception is a program bug
and propagates with its traceback.  All diagnostics go to stderr; results
are written as deterministic CSV plus a JSON summary.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GraphSpecError,
    NonInvariantOperatorError,
    NumericalError,
    ReducibleMatrixError,
)
from .hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    parse_graph_spec,
    random_chain,
)
from .qgroup import (
    QParam,
    droplet_bandwidth,
    droplet_csv_rows,
    droplet_energy,
    q_sector_energies,
)
from .reports import write_csv, write_json
from .sectors import (
    check_foel,
    check_max_ordering,
    full_spectrum_by_s3,
    sector_csv_rows,
    sector_energies,
    spectrum_csv_rows,
)
from .spinops import HalfInt, HilbertShape
from .ssep import check_aldous, ssep_csv_rows, verify_spin_map
from .temperley_lieb import (
    fk_hamiltonian_matrix,
    fk_highest_weight_basis,
    perron_ground_vector,
    tl_basis_csv_rows,
    tl_hamiltonian_matrix,
    tl_matrix_csv_rows,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 12345


@dataclass
class RunConfig:
    command: str
    output: str = "."
    tol: float = 1e-8
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)


def _parse_int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _chain_from_args(params):
    spins = [HalfInt(t) for t in params["chain"]]
    js = params.get("J")
    if js is None:
        js = [1.0] * (len(spins) - 1)
    return ChainSpec(spins, js)


def _load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_spec(fh.read())


def _margins_json(margins):
    return [
        {"S_hi_times2": a.twice, "S_lo_times2": b.twice, "gap": g}
        for a, b, g in margins
    ]


def _out(cfg, name):
    return os.path.join(cfg.output, name)


def cmd_spectrum(cfg):
    if cfg.params.get("graph"):
        g = _load_graph(cfg.params["graph"])
        h, shape = build_heisenberg(g), g.shape
    elif cfg.params.get("chain"):
        chain = _chain_from_args(cfg.params)
        h, shape = build_normalized_chain(chain), chain.shape
    else:
        raise GraphSpecError("spectrum needs --chain or --graph")
    spec = full_spectrum_by_s3(h, shape, offset=cfg.params.get("offset", False))
    write_csv(_out(cfg, "spectrum.csv"), ("M_times2", "energy"),
              spectrum_csv_rows(spec))
    write_json(_out(cfg, "spectrum.json"), {
        "dim": shape.dim,
        "offset": cfg.params["offset"],
        "block_sizes": {str(m.twice): len(w) for m, w in spec},
        "ground_energy": min(float(w[0]) for _, w in spec),
    })
    return EXIT_OK


def _emit_foel(cfg, report, extra=None):
    verdict = check_foel(report, cfg.tol)
    write_csv(_out(cfg, "sectors.csv"),
              ("S_times2", "dim", "min_energy", "max_energy"),
              sector_csv_rows(report))
    payload = {
        "foel_ok": verdict.ok,
        "margins": _margins_json(verdict.margins),
        "crossings": _margins_json(verdict.crossings),
        "violations": _margins_json(verdict.violations),
        "strict_tol": cfg.tol,
    }
    if extra:
        payload.update(extra)
    write_json(_out(cfg, "foel.json"), payload)
    return EXIT_OK if verdict.ok else EXIT_VIOLATION


def cmd_foel(cfg):
    p = cfg.params
    if p.get("spin1_beta") is not None:
        return _foel_beta_sweep(cfg)
    if p.get("random_trials"):
        return _foel_random_trials(cfg)
    if p.get("graph"):
        g = _load_graph(p["graph"])
        h, shape = build_heisenberg(g), g.shape
    elif p.get("chain"):
        chain = _chain_from_args(p)
        h, shape = build_normalized_chain(chain), chain.shape
    else:
        raise GraphSpecError("foel needs --chain, --graph, --spin1-beta or --random-trials")
    report = sector_energies(h, shape, strict_tol=cfg.tol)
    return _emit_foel(cfg, report)


def _foel_beta_sweep(cfg):
    beta = cfg.params["spin1_beta"]
    l_max = cfg.params.get("L") or 5
    rows, summary = [], []
    found_violation = False
    found_crossing = False
    for L in range(2, l_max + 1):
        shape = HilbertShape([HalfInt(2)] * L)
        report = sector_energies(build_spin1_beta_chain(L, beta), shape, cfg.tol)
        verdict = check_foel(report, cfg.tol)
        rows.extend((L,) + r for r in sector_csv_rows(report))
        summary.append({
            "L": L,
            "foel_ok": verdict.ok,
            "min_margin": verdict.min_margin,
            "crossings": _margins_json(verdict.crossings),
            "violations": _margins_json(verdict.violations),
        })
        found_violation |= bool(verdict.violations)
        found_crossing |= bool(verdict.crossings)
    write_csv(_out(cfg, "sectors.csv"),
              ("L", "S_times2", "dim", "min_energy", "max_energy"), rows)
    write_json(_out(cfg, "foel.json"), {
        "beta": beta,
        "L_max": l_max,
        "witness_found": found_violation,
        "crossing_found": found_crossing,
        "note": "" if found_violation else "no violation witness at desk scale",
        "per_L": summary,
    })
    return EXIT_VIOLATION if found_violation else EXIT_OK


def _foel_random_trials(cfg):
    rng = np.random.default_rng(cfg.seed)
    trials = cfg.params["random_trials"]
    l_max = cfg.params.get("L") or 8
    max_dim = cfg.params.get("max_dim") or 4096
    rows = []
    worst = np.inf
    failures = 0
    for trial in range(trials):
        chain = random_chain(rng, max_sites=l_max, max_dim=max_dim)
        report = sector_energies(build_normalized_chain(chain), chain.shape, cfg.tol)
        verdict = check_foel(report, cfg.tol)
        worst = min(worst, verdict.min_margin)
        failures += 0 if verdict.ok else 1
        rows.append((trial, len(chain.spins), chain.shape.dim,
                     verdict.min_margin, verdict.ok))
    write_csv(_out(cfg, "trials.csv"),
              ("trial", "L", "dim", "min_margin", "foel_ok"), rows)
    write_json(_out(cfg, "foel.json"), {
        "trials": trials,
        "seed": cfg.seed,
        "failures": failures,
        "worst_margin": worst,
        "foel_ok": failures == 0,
    })
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def cmd_figure1(cfg):
    shape = HilbertShape([HalfInt(2)] * 5)
    g = SpinGraph.path([HalfInt(2)] * 5, [1.0] * 4)
    h = build_heisenberg(g)
    spec = full_spectrum_by_s3(h, shape, offset=True)
    write_csv(_out(cfg, "figure1.csv"), ("M_times2", "energy"),
              spectrum_csv_rows(spec))
    report = sector_energies(h, shape, strict_tol=cfg.tol)
    max_verdict = check_max_ordering(report, s_low=HalfInt(2), s_high=HalfInt(10))
    ground = min(float(w[0]) for _, w in spec)
    write_json(_out(cfg, "figure1.json"), {
        "foel_ok": report.foel_ok,
        "max_ordering_ok": max_verdict.ok,
        "offset_ground_energy": ground,
        "sectors": {str(s.twice): report.entries[s].min_energy
                    for s in report.labels},
    })
    ok = report.foel_ok and max_verdict.ok and abs(ground) <= 1e-10
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_tl_matrix(cfg):
    p = cfg.params
    k, n, q = p["k"], p["n"], p.get("q") or 1.0
    js = p.get("J") or [1.0] * (k - 1)
    tl = tl_hamiltonian_matrix(k, n, js, q)
    write_csv(_out(cfg, "tl_matrix.csv"), ("row", "col", "value"),
              tl_matrix_csv_rows(tl))
    write_csv(_out(cfg, "tl_basis.csv"), ("diagram_id", "arcs"),
              tl_basis_csv_rows(tl))
    off_max = tl.off_diagonal_max()
    payload = {
        "k": k, "n": n, "q": q, "dim": tl.dim,
        "off_diagonal_max": off_max,
        "sign_ok": off_max <= cfg.tol,
    }
    try:
        pf = perron_ground_vector(tl)
        payload.update({
            "ground_energy": pf.eigenvalue,
            "ground_gap": pf.gap if np.isfinite(pf.gap) else None,
            "ground_vector_positive": bool(np.min(pf.vector) > 0),
        })
    except ReducibleMatrixError as exc:
        payload.update({"perron_frobenius": f"irreducibility failed: {exc}"})
    write_json(_out(cfg, "tl.json"), payload)
    return EXIT_OK if payload["sign_ok"] else EXIT_VIOLATION


def cmd_fk_basis(cfg):
    p = cfg.params
    spins = [HalfInt(t) for t in p["spins"]]
    S = HalfInt(p["S2"])
    js = p.get("J") or [1.0] * (len(spins) - 1)
    basis = fk_highest_weight_basis(spins, S)
    rows = [(i, ",".join(str(b.n_down) for b in v.blocks),
             ";".join(f"{x}-{y}" for x, y in v.arcs) or "empty")
            for i, v in enumerate(basis)]
    write_csv(_out(cfg, "fk_basis.csv"), ("vector_id", "n_down", "arcs"), rows)
    a = fk_hamiltonian_matrix(spins, js, S)
    write_csv(_out(cfg, "fk_matrix.csv"), ("row", "col", "value"),
              tl_matrix_csv_rows(a))
    off = a - np.diag(np.diag(a))
    off_max = float(off.max()) if off.size else 0.0
    shape = HilbertShape(spins)
    from .sectors import sector_labels
    expected = sector_labels(shape).get(S, 0)
    payload = {
        "spins_times2": [s.twice for s in spins],
        "S_times2": S.twice,
        "basis_count": len(basis),
        "expected_dim": expected,
        "count_ok": len(basis) == expected,
        "off_diagonal_max": off_max,
        "sign_ok": off_max <= 1e-10,
    }
    write_json(_out(cfg, "fk.json"), payload)
    return EXIT_OK if payload["count_ok"] and payload["sign_ok"] else EXIT_VIOLATION


def cmd_qfoel(cfg):
    p = cfg.params
    qp = QParam(p["q"])
    report = q_sector_energies(p["L"], qp, strict_tol=cfg.tol)
    write_csv(_out(cfg, "qsectors.csv"), ("S_times2", "dim", "min_energy"),
              [(s.twice, report.entries[s][1], report.entries[s][0])
               for s in report.labels])
    write_json(_out(cfg, "qfoel.json"), {
        "L": p["L"], "q": qp.q, "delta": qp.delta,
        "qfoel_ok": report.qfoel_ok,
        "margins": _margins_json(report.margins),
        "crossings": _margins_json(report.crossings),
        "violations": _margins_json(report.violations),
    })
    return EXIT_OK if report.qfoel_ok else EXIT_VIOLATION


def cmd_droplet(cfg):
    p = cfg.params
    qp = QParam(p["q"])
    ns = p.get("n") or [1, 2, 3]
    l_values = list(range(p.get("Lmin") or 4, (p.get("Lmax") or 16) + 1))
    rows = droplet_csv_rows(l_values, ns, qp)
    write_csv(_out(cfg, "droplet.csv"),
              ("L", "n", "q", "finite_energy", "E_infinity", "bandwidth"), rows)
    checks = {}
    ok = True
    for n in ns:
        seq = [(L, e) for (L, nn, _, e, _, _) in rows if nn == n]
        if len(seq) < 2:
            continue
        energies = [e for _, e in seq]
        e_inf = droplet_energy(n, qp)
        mono = all(b < a for a, b in zip(energies, energies[1:]))
        above = all(e >= e_inf for e in energies)
        checks[str(n)] = {
            "monotone_decreasing": mono,
            "above_infinite_volume": above,
            "final_gap": energies[-1] - e_inf,
            "bandwidth": droplet_bandwidth(n, qp),
        }
        ok = ok and mono and above
    write_json(_out(cfg, "droplet.json"), {"q": qp.q, "checks": checks, "ok": ok})
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_ssep_gap(cfg):
    g = _load_graph(cfg.params["graph"])
    report = check_aldous(g, rel_tol=max(cfg.tol, 1e-9))
    write_csv(_out(cfg, "ssep_gap.csv"),
              ("n", "sector_dim", "lambda_n", "lambda_1", "relative_deviation"),
              ssep_csv_rows(report))
    write_json(_out(cfg, "ssep.json"), {
        "lambda_1": report.lambda_1,
        "max_relative_deviation": report.max_rel_deviation,
        "gap_equality_ok": report.ok,
    })
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_spinmap(cfg):
    g = _load_graph(cfg.params["graph"])
    result = verify_spin_map(g)
    write_csv(_out(cfg, "spinmap.csv"),
              ("n", "lambda_n", "h_second_eigenvalue", "deviation"),
              result.sector_rows)
    write_json(_out(cfg, "spinmap.json"), {
        "max_entry_deviation": result.max_deviation,
        "ok": result.ok,
    })
    return EXIT_OK if result.ok else EXIT_VIOLATION


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "foel": cmd_foel,
    "tl-matrix": cmd_tl_matrix,
    "fk-basis": cmd_fk_basis,
    "qfoel": cmd_qfoel,
    "droplet": cmd_droplet,
    "ssep-gap": cmd_ssep_gap,
    "spinmap": cmd_spinmap,
    "figure1": cmd_figure1,
}


def run(cfg: RunConfig):
    """Dispatch a validated config; returns the process exit code."""
    try:
        os.makedirs(cfg.output, exist_ok=True)
        return _HANDLERS[cfg.command](cfg)
    except (GraphSpecError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, NonInvariantOperatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foelab",
        description="Spin-model spectra ordered by total spin: FOEL and friends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="strictness tolerance for ordering checks")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for randomized trials")

    p = sub.add_parser("spectrum", help="full spectrum per S^3 block")
    p.add_argument("--chain", help="comma-separated twice-spin integers")
    p.add_argument("--J", help="comma-separated couplings (default all 1)")
    p.add_argument("--graph", help="graph-spec file")
    p.add_argument("--offset", action="store_true",
                   help="shift the ground energy to 0")
    common(p)

    p = sub.add_parser("foel", help="sector minima and the FOEL verdict")
    p.add_argument("--chain", help="comma-separated twice-spin integers")
    p.add_argument("--J", help="comma-separated couplings (default all 1)")
    p.add_argument("--graph", help="graph-spec file")
    p.add_argument("--spin1-beta", type=float, dest="spin1_beta",
                   help="sweep the spin-1 chain with this quartic weight")
    p.add_argument("--L", type=int, help="max length for sweeps")
    p.add_argument("--random-trials", type=int, dest="random_trials",
                   help="number of random chains to test")
    p.add_argument("--max-dim", type=int, dest="max_dim", default=4096)
    common(p)

    p = sub.add_parser("tl-matrix", help="diagram-basis Hamiltonian matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", help="comma-separated couplings (k-1 values)")
    p.add_argument("--q", type=float, default=1.0)
    common(p)

    p = sub.add_parser("fk-basis", help="higher-spin highest-weight basis")
    p.add_argument("--spins", required=True,
                   help="comma-separated twice-spin integers")
    p.add_argument("--S2", type=int, required=True,
                   help="twice the total-spin label")
    p.add_argument("--J", help="comma-separated couplings")
    common(p)

    p = sub.add_parser("qfoel", help="deformed sector energies and ordering")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    common(p)

    p = sub.add_parser("droplet", help="droplet energies: finite size vs closed form")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", help="comma-separated droplet sizes (default 1,2,3)")
    p.add_argument("--Lmin", type=int, default=4)
    p.add_argument("--Lmax", type=int, default=16)
    common(p)

    p = sub.add_parser("ssep-gap", help="exclusion-process gaps per particle number")
    p.add_argument("--graph", required=True, help="graph-spec file (J = rates)")
    common(p)

    p = sub.add_parser("spinmap", help="unitary equivalence of SSEP and spin chain")
    p.add_argument("--graph", required=True, help="graph-spec file")
    common(p)

    p = sub.add_parser("figure1", help="spin-1 five-site chain spectrum data")
    common(p)

    return parser


# Built once per process (nine subparsers cost more than a small job);
# parse_args does not modify the parser.
_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def config_from_args(args):
    params = {}
    for key, value in vars(args).items():
        if key in ("command", "output", "tol", "seed") or value is None:
            continue
        if key in ("chain", "spins"):
            params[key] = _parse_int_list(value)
        elif key == "J":
            params[key] = _parse_float_list(value)
        elif key == "n" and args.command == "droplet":
            params[key] = _parse_int_list(value)
        else:
            params[key] = value
    return RunConfig(command=args.command, output=args.output,
                     tol=args.tol, seed=args.seed, params=params)


def main(argv=None):
    parser = _cached_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)
