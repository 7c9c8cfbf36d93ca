"""Command-line front end: every experiment as a reproducible batch command.

Exit codes: 0 success, 1 genuine property violation (e.g. FOEL failed),
2 usage error, 3 numerical failure, 4 program bug.  Any other exception
is a program bug: ``main`` propagates it with its traceback, and
``python -m foelab`` and the ``foelab`` script print that traceback to
stderr and exit with 4.
All diagnostics go to stderr; results are written as deterministic CSV
plus a JSON summary.  Handlers read argparse's namespace as parsed: each
default is stated once, in ``build_parser``, and a given value is used or
rejected, never replaced.  A subcommand takes only the flags its handler
reads, and a ``foel``/``spectrum`` flag given without an input it applies
to is a usage error.  The parser rejects out-of-range ``tl-matrix``,
``qfoel``, ``droplet`` and ``fk-basis`` values, ``foel --L`` < 2,
``--random-trials`` < 1, ``--max-dim`` < 4, a ``--chain`` without sites
or with a spin 0, a coupling that is not positive and finite and a
non-finite ``--spin1-beta`` or ``--tol`` before any library call or output
(exit 2).
``ssep-gap`` and ``spinmap`` check their graph (two or more sites,
connected, and for ``spinmap`` every spin 1/2: ``ssep.gap_graph_problem``)
right after reading it and raise ``UsageError``, also exit 2; so does an
unreadable or malformed graph file (a coupling that is not positive and
finite, a negative spin).  Nothing else is a usage error: a ``ValueError``
from the library is a program bug.  ``foel`` hands a chain to
``temperley_lieb.chain_sector_energies``, which picks the diagram basis
or the SU(2) route; graphs take ``sectors.sector_energies``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

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
    sector_labels,
    spectrum_csv_rows,
)
from .spinops import HalfInt, HilbertShape
from .ssep import check_aldous, gap_graph_problem, ssep_csv_rows, verify_spin_map
from .temperley_lieb import (
    chain_sector_energies,
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
EXIT_BUG = 4

DEFAULT_SEED = 12345
BETA_SWEEP_L = 5
RANDOM_TRIALS_L = 8
RANDOM_TRIALS_MAX_DIM = 4096

# foel/spectrum flag -> the inputs it applies with
_FLAG_INPUTS = {
    "J": ("chain",),
    "L": ("spin1_beta", "random_trials"),
    "max_dim": ("random_trials",),
    "seed": ("random_trials",),
}


class UsageError(Exception):
    """A usage error seen only once an input file is read (exit 2)."""


def _int_list(text):
    """Comma-separated integers; empty items are skipped."""
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text):
    """Comma-separated floats; empty items are skipped."""
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _checked(convert, ok, requirement):
    """argparse type: ``convert`` the text, then reject a value failing ``ok``."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _at_least(low):
    """argparse type: an integer >= low."""
    return _checked(int, lambda n: n >= low, f"must be at least {low}")


_open_unit_float = _checked(float, lambda q: 0.0 < q < 1.0, "must lie strictly between 0 and 1")
_finite_float = _checked(float, math.isfinite, "must be finite")
# twice-spins of --chain and --spins; couplings of every --J
_twice_spins = _checked(_int_list, lambda t: bool(t) and min(t) > 0,
                        "needs one or more sites, each spin positive")
_couplings_list = _checked(_float_list, lambda js: all(0.0 < j < math.inf for j in js),
                           "couplings must be positive and finite")


def _tl_matrix_usage(args):
    """Usage error of tl-matrix that no single flag shows, or None."""
    if 2 * args.n > args.k:
        return f"--n {args.n} needs 2n <= --k {args.k}"
    if args.J is not None and len(args.J) != args.k - 1:
        return f"--J gives {len(args.J)} couplings; --k {args.k} needs {args.k - 1}"
    return None


def _droplet_usage(args):
    """Usage error of droplet's --n sweep, or None."""
    if not args.n:
        return "--n names no droplet size"
    if len(set(args.n)) < len(args.n):
        return f"--n repeats a droplet size: {args.n}"
    lengths = range(args.Lmin, args.Lmax + 1)
    for n in args.n:
        if sum(1 <= n <= L / 2 for L in lengths) < 2:
            return (f"droplet size n={n} has fewer than two lengths "
                    f"L >= 2n in --Lmin..--Lmax")
    return None


def _fk_basis_usage(args):
    """Usage error of fk-basis, or None."""
    spins, js = args.spins, args.J
    if js is not None and len(js) != len(spins) - 1:
        return f"--J needs {len(spins) - 1} positive couplings, got {js}"
    if HalfInt(args.S2) not in sector_labels(HilbertShape([HalfInt(t) for t in spins])):
        return f"--S2 {args.S2} is not twice a total-spin label of --spins {spins}"
    return None


def _couplings(args, nsites):
    """--J as given, else unit couplings on the nsites - 1 bonds."""
    return [1.0] * (nsites - 1) if args.J is None else args.J


def _chain(args):
    """ChainSpec of --chain and --J."""
    return ChainSpec([HalfInt(t) for t in args.chain], _couplings(args, len(args.chain)))


def _model(args):
    """Heisenberg operator of --graph, or normalized chain of --chain."""
    if args.graph is not None:
        return build_heisenberg(_load_graph(args.graph))
    return build_normalized_chain(_chain(args))


def _model_usage(args):
    """Usage error of foel or spectrum that no single flag shows, or None."""
    given = {dest for dest, value in vars(args).items() if value is not None}
    for dest, inputs in _FLAG_INPUTS.items():
        if dest in given and given.isdisjoint(inputs):
            flags = ["--" + d.replace("_", "-") for d in (dest,) + inputs]
            return f"{flags[0]} applies only with {' or '.join(flags[1:])}"
    if args.J is not None and len(args.J) != len(args.chain) - 1:
        return f"--J gives {len(args.J)} couplings; --chain needs {len(args.chain) - 1}"
    return None


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"--graph: {exc}") from None
    return parse_graph_spec(text)


def _gap_graph(args, spin_half=False):
    """--graph of ssep-gap or spinmap, read and checked against the
    preconditions of gap equality and of the spin map; UsageError if it
    fails one."""
    g = _load_graph(args.graph)
    if problem := gap_graph_problem(g, spin_half):
        raise UsageError(f"{args.command}: --graph {args.graph} {problem}")
    return g


def _margins_json(margins):
    return [
        {"S_hi_times2": a.twice, "S_lo_times2": b.twice, "gap": g}
        for a, b, g in margins
    ]


def _verdict_json(verdict):
    """The margins, crossings and violations of an ordering verdict."""
    return {"margins": _margins_json(verdict.margins),
            "crossings": _margins_json(verdict.crossings),
            "violations": _margins_json(verdict.violations)}


def _out(args, name):
    """Path of an output file.  ``reports`` makes the directory with the
    first file, so a run that fails before writing any leaves none behind."""
    return os.path.join(args.output, name)


def cmd_spectrum(args):
    h = _model(args)
    spec = full_spectrum_by_s3(h, offset=args.offset)
    write_csv(_out(args, "spectrum.csv"), ("M_times2", "energy"),
              spectrum_csv_rows(spec))
    write_json(_out(args, "spectrum.json"), {
        "dim": h.dim,
        "offset": args.offset,
        "block_sizes": {str(m.twice): len(w) for m, w in spec},
        "ground_energy": min(float(w[0]) for _, w in spec),
    })
    return EXIT_OK


def cmd_foel(args):
    if args.spin1_beta is not None:
        return _foel_beta_sweep(args)
    if args.random_trials is not None:
        return _foel_random_trials(args)
    if args.graph is not None:
        report = sector_energies(_model(args))
    else:
        report = chain_sector_energies(_chain(args))
    verdict = check_foel(report, args.tol)
    write_csv(_out(args, "sectors.csv"),
              ("S_times2", "dim", "min_energy", "max_energy"),
              sector_csv_rows(report))
    write_json(_out(args, "foel.json"), {
        "foel_ok": verdict.ok,
        **_verdict_json(verdict),
        "strict_tol": args.tol,
        # the minimum's [lo, hi] on the diagram route, null on the SU(2) routes
        "brackets": [{"S_times2": s.twice, "bracket": report.entries[s].bracket}
                     for s in report.labels],
    })
    return EXIT_OK if verdict.ok else EXIT_VIOLATION


def _foel_beta_sweep(args):
    beta = args.spin1_beta
    l_max = BETA_SWEEP_L if args.L is None else args.L
    rows, summary = [], []
    found_violation = False
    found_crossing = False
    for L in range(2, l_max + 1):
        report = sector_energies(build_spin1_beta_chain(L, beta))
        verdict = check_foel(report, args.tol)
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
    write_csv(_out(args, "sectors.csv"),
              ("L", "S_times2", "dim", "min_energy", "max_energy"), rows)
    write_json(_out(args, "foel.json"), {
        "beta": beta,
        "L_max": l_max,
        "witness_found": found_violation,
        "crossing_found": found_crossing,
        "note": "" if found_violation else "no violation witness at desk scale",
        "per_L": summary,
    })
    return EXIT_VIOLATION if found_violation else EXIT_OK


def _foel_random_trials(args):
    trials = args.random_trials
    l_max = RANDOM_TRIALS_L if args.L is None else args.L
    max_dim = RANDOM_TRIALS_MAX_DIM if args.max_dim is None else args.max_dim
    seed = DEFAULT_SEED if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    rows = []
    worst = np.inf
    failures = 0
    for trial in range(trials):
        chain = random_chain(rng, max_sites=l_max, max_dim=max_dim)
        verdict = check_foel(chain_sector_energies(chain), args.tol)
        worst = min(worst, verdict.min_margin)
        failures += 0 if verdict.ok else 1
        rows.append((trial, len(chain.spins), chain.shape.dim,
                     verdict.min_margin, verdict.ok))
    write_csv(_out(args, "trials.csv"),
              ("trial", "L", "dim", "min_margin", "foel_ok"), rows)
    write_json(_out(args, "foel.json"), {
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "worst_margin": worst,
        "foel_ok": failures == 0,
    })
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def cmd_figure1(args):
    g = SpinGraph.path([HalfInt(2)] * 5, [1.0] * 4)
    h = build_heisenberg(g)
    spec = full_spectrum_by_s3(h, offset=True)
    write_csv(_out(args, "figure1.csv"), ("M_times2", "energy"),
              spectrum_csv_rows(spec))
    report = sector_energies(h)
    foel_ok = check_foel(report, args.tol).ok
    max_verdict = check_max_ordering(report, s_low=HalfInt(2))
    ground = min(float(w[0]) for _, w in spec)
    write_json(_out(args, "figure1.json"), {
        "foel_ok": foel_ok,
        "max_ordering_ok": max_verdict.ok,
        "offset_ground_energy": ground,
        "sectors": {str(s.twice): report.entries[s].min_energy
                    for s in report.labels},
    })
    ok = foel_ok and max_verdict.ok and abs(ground) <= 1e-10
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_tl_matrix(args):
    k, n, q = args.k, args.n, args.q
    tl = tl_hamiltonian_matrix(k, n, _couplings(args, k), q)
    write_csv(_out(args, "tl_matrix.csv"), ("row", "col", "value"),
              tl_matrix_csv_rows(tl))
    write_csv(_out(args, "tl_basis.csv"), ("diagram_id", "arcs"),
              tl_basis_csv_rows(tl))
    off_max = tl.off_diagonal_max()
    payload = {
        "k": k, "n": n, "q": q, "dim": tl.dim,
        "off_diagonal_max": off_max,
        "sign_ok": off_max <= args.tol,
    }
    try:
        pf = perron_ground_vector(tl)
        # the gap is the dense route's (dim < PERRON_SPARSE_MIN_DIM); the
        # Arnoldi route and a one-diagram matrix have none
        payload.update({
            "ground_energy": pf.eigenvalue,
            "ground_bracket": list(pf.bracket),
            "ground_gap": pf.gap if pf.gap is not None and np.isfinite(pf.gap) else None,
            "ground_vector_positive": bool(np.min(pf.vector) > 0),
        })
    except ReducibleMatrixError as exc:
        payload.update({"perron_frobenius": f"irreducibility failed: {exc}"})
    write_json(_out(args, "tl.json"), payload)
    return EXIT_OK if payload["sign_ok"] else EXIT_VIOLATION


def cmd_fk_basis(args):
    spins = [HalfInt(t) for t in args.spins]
    S = HalfInt(args.S2)
    basis = fk_highest_weight_basis(spins, S)
    a = fk_hamiltonian_matrix(spins, _couplings(args, len(spins)), basis)
    rows = [(i, ",".join(str(b.n_down) for b in v.blocks),
             ";".join(f"{x}-{y}" for x, y in v.arcs) or "empty")
            for i, v in enumerate(basis)]
    write_csv(_out(args, "fk_basis.csv"), ("vector_id", "n_down", "arcs"), rows)
    write_csv(_out(args, "fk_matrix.csv"), ("row", "col", "value"),
              tl_matrix_csv_rows(a))
    off = a - np.diag(np.diag(a))
    off_max = float(off.max()) if off.size else 0.0
    expected = sector_labels(HilbertShape(spins))[S]
    payload = {
        "spins_times2": [s.twice for s in spins],
        "S_times2": S.twice,
        "basis_count": len(basis),
        "expected_dim": expected,
        "count_ok": len(basis) == expected,
        "off_diagonal_max": off_max,
        "sign_ok": off_max <= 1e-10,
    }
    write_json(_out(args, "fk.json"), payload)
    return EXIT_OK if payload["count_ok"] and payload["sign_ok"] else EXIT_VIOLATION


def cmd_qfoel(args):
    qp = QParam(args.q)
    report = q_sector_energies(args.L, qp)
    verdict = check_foel(report, args.tol)
    write_csv(_out(args, "qsectors.csv"), ("S_times2", "dim", "min_energy"),
              [(s.twice, report.entries[s].dimension, report.entries[s].min_energy)
               for s in report.labels])
    write_json(_out(args, "qfoel.json"), {
        "L": args.L, "q": qp.q, "delta": qp.delta,
        "qfoel_ok": verdict.ok,
        **_verdict_json(verdict),
        "brackets": [{"S_times2": s.twice, "bracket": list(report.entries[s].bracket)}
                     for s in report.labels],
    })
    return EXIT_OK if verdict.ok else EXIT_VIOLATION


def cmd_droplet(args):
    qp = QParam(args.q)
    rows = droplet_csv_rows(range(args.Lmin, args.Lmax + 1), args.n, qp)
    write_csv(_out(args, "droplet.csv"),
              ("L", "n", "q", "finite_energy", "E_infinity", "bandwidth"),
              [row[:6] for row in rows])
    checks = {}
    ok = True
    for n in args.n:
        energies = [e for (_, nn, _, e, _, _, _) in rows if nn == n]
        widths = [hi - lo for (_, nn, _, _, _, _, (lo, hi)) in rows if nn == n]
        e_inf = droplet_energy(n, qp)
        mono = all(b < a for a, b in zip(energies, energies[1:]))
        above = all(e >= e_inf for e in energies)
        checks[str(n)] = {
            "monotone_decreasing": mono,
            "above_infinite_volume": above,
            "final_gap": energies[-1] - e_inf,
            "bandwidth": droplet_bandwidth(n, qp),
            "max_bracket_width": max(widths),
        }
        ok = ok and mono and above
    write_json(_out(args, "droplet.json"), {"q": qp.q, "checks": checks, "ok": ok})
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_ssep_gap(args):
    g = _gap_graph(args)
    report = check_aldous(g, rel_tol=args.tol)
    write_csv(_out(args, "ssep_gap.csv"),
              ("n", "sector_dim", "lambda_n", "lambda_1", "relative_deviation"),
              ssep_csv_rows(report))
    write_json(_out(args, "ssep.json"), {
        "lambda_1": report.lambda_1,
        "max_relative_deviation": report.max_rel_deviation,
        "gap_equality_ok": report.ok,
    })
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_spinmap(args):
    g = _gap_graph(args, spin_half=True)
    result = verify_spin_map(g)
    write_csv(_out(args, "spinmap.csv"),
              ("n", "lambda_n", "h_second_eigenvalue", "deviation"),
              result.sector_rows)
    write_json(_out(args, "spinmap.json"), {
        "max_entry_deviation": result.max_deviation,
        "eigenvalue_bound": result.eigenvalue_bound,
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


def run(args):
    """Dispatch a parsed namespace; returns the process exit code."""
    try:
        return _HANDLERS[args.command](args)
    except (GraphSpecError, UsageError) as exc:
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

    def common(p, tol=None):
        """--output, and --tol (default 1e-8) described by ``tol`` if given."""
        p.add_argument("--output", default=".", help="output directory")
        if tol:
            p.add_argument("--tol", type=_finite_float, default=1e-8,
                           help=f"{tol} (default 1e-8)")

    def model(p):
        """Required input group {--chain, --graph}, plus --J for --chain."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--chain", type=_twice_spins,
                           help="comma-separated twice-spin integers")
        group.add_argument("--graph", help="graph-spec file")
        p.add_argument("--J", type=_couplings_list,
                       help="comma-separated --chain couplings (default all 1)")
        return group

    p = sub.add_parser("spectrum", help="full spectrum per S^3 block")
    model(p)
    p.add_argument("--offset", action="store_true",
                   help="shift the ground energy to 0")
    common(p)

    p = sub.add_parser("foel", help="sector minima and the FOEL verdict")
    group = model(p)
    group.add_argument("--spin1-beta", type=_finite_float, dest="spin1_beta",
                       help="sweep the spin-1 chain with this quartic weight")
    group.add_argument("--random-trials", type=_at_least(1), dest="random_trials",
                       help="number of random chains to test")
    p.add_argument("--L", type=_at_least(2),
                   help=f"max length: sweep up to L (default {BETA_SWEEP_L}), "
                        f"random chains of at most L sites (default {RANDOM_TRIALS_L})")
    # 4: two spin-1/2 sites, the smallest chain random_chain draws
    p.add_argument("--max-dim", type=_at_least(4), dest="max_dim",
                   help="max Hilbert dimension of a random chain "
                        f"(default {RANDOM_TRIALS_MAX_DIM})")
    p.add_argument("--seed", type=int,
                   help=f"seed of the random chains (default {DEFAULT_SEED})")
    common(p, "strictness tolerance of the FOEL ordering")

    p = sub.add_parser("tl-matrix", help="diagram-basis Hamiltonian matrix")
    p.add_argument("--k", type=_at_least(1),
                   required=True, help="number of vertices")
    p.add_argument("--n", type=_at_least(0),
                   required=True, help="number of arcs, 2n <= k")
    p.add_argument("--J", type=_couplings_list,
                   help="comma-separated couplings, k-1 values (default all 1)")
    p.add_argument("--q", type=_checked(float, lambda q: 0.0 < q < math.inf,
                                        "must be positive and finite"),
                   default=1.0)
    common(p, "largest off-diagonal entry accepted as nonpositive")

    p = sub.add_parser("fk-basis", help="higher-spin highest-weight basis")
    p.add_argument("--spins", type=_twice_spins, required=True,
                   help="comma-separated twice-spin integers")
    p.add_argument("--S2", type=int, required=True,
                   help="twice the total-spin label")
    p.add_argument("--J", type=_couplings_list,
                   help="comma-separated couplings (default all 1)")
    common(p)

    p = sub.add_parser("qfoel", help="deformed sector energies and ordering")
    p.add_argument("--L", type=_at_least(2), required=True)
    p.add_argument("--q", type=_open_unit_float, required=True, help="in (0, 1)")
    common(p, "strictness tolerance of the q-FOEL ordering")

    p = sub.add_parser("droplet", help="droplet energies: finite size vs closed form")
    p.add_argument("--q", type=_open_unit_float, required=True, help="in (0, 1)")
    p.add_argument("--n", type=_int_list, default=(1, 2, 3),
                   help="comma-separated droplet sizes (default 1,2,3)")
    p.add_argument("--Lmin", type=int, default=4)
    p.add_argument("--Lmax", type=int, default=16)
    common(p)

    p = sub.add_parser("ssep-gap", help="exclusion-process gaps per particle number")
    p.add_argument("--graph", required=True, help="graph-spec file (J = rates)")
    common(p, "largest relative gap deviation accepted")

    p = sub.add_parser("spinmap", help="unitary equivalence of SSEP and spin chain")
    p.add_argument("--graph", required=True, help="graph-spec file")
    common(p)

    p = sub.add_parser("figure1", help="spin-1 five-site chain spectrum data")
    common(p, "strictness tolerance of the FOEL ordering")

    return parser


# Built once per process (nine subparsers cost more than a small job);
# parse_args does not modify the parser.
_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None):
    parser = _cached_parser()
    try:
        args = parser.parse_args(argv)
        check = {"tl-matrix": _tl_matrix_usage, "droplet": _droplet_usage,
                 "foel": _model_usage, "spectrum": _model_usage,
                 "fk-basis": _fk_basis_usage}.get(args.command)
        problem = check and check(args)
        if problem:
            parser.error(f"{args.command}: {problem}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(args)
