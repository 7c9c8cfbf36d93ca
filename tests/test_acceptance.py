"""Acceptance suite: one test per stated criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict printed.
Criterion 7's finite-size convergence tolerance is known to be unattainable
at these system sizes (see test docstring); that sub-check is kept faithful
and red rather than weakened.
"""

from math import comb

import numpy as np
import pytest
from reference import highest_weight_space, min_spec_comparison, random_connected_graph

from foelab.errors import ReducibleMatrixError
from foelab.hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    random_chain,
)
from foelab.qgroup import (
    QParam,
    droplet_bandwidth,
    droplet_csv_rows,
    droplet_energy,
    q_sector_energies,
)
from foelab.sectors import (
    check_foel,
    check_max_ordering,
    full_spectrum_by_s3,
    sector_energies,
    sector_labels,
)
from foelab.spinops import HalfInt, HilbertShape
from foelab.ssep import check_aldous, spectral_gap, ssep_generator, verify_spin_map
from foelab.temperley_lieb import (
    check_dominance,
    enumerate_arc_diagrams,
    perron_ground_vector,
    tl_hamiltonian_matrix,
)


def verdict(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip()
    print(line)
    assert ok, line


def test_criterion_1_foel_random_chains():
    """Strict sector-minimum ordering for 100 randomized open chains."""
    rng = np.random.default_rng(20240801)
    worst = np.inf
    failures = 0
    for _ in range(100):
        chain = random_chain(rng, max_sites=8, max_dim=4096,
                             spin_choices=(1, 2, 3), j_max=2.0)
        rep = sector_energies(build_normalized_chain(chain))
        v = check_foel(rep, strict_tol=1e-8)
        worst = min(worst, v.min_margin)
        failures += 0 if v.ok else 1
    verdict("1 (chains FOEL)", failures == 0 and worst > 1e-8,
            f"100 chains, failures={failures}, worst margin={worst:.3e}")


def test_criterion_2_figure_one():
    """Five spin-1 sites, constant coupling: both orderings plus exact offset."""
    g = SpinGraph.path([HalfInt(2)] * 5, [1.0] * 4)
    h = build_heisenberg(g)
    rep = sector_energies(h)
    foel_ok = check_foel(rep, strict_tol=1e-8).ok
    max_ok = check_max_ordering(rep, s_low=HalfInt(2)).ok
    spec = full_spectrum_by_s3(h, offset=True)
    ground = min(float(w[0]) for _, w in spec)
    ok = foel_ok and max_ok and abs(ground) <= 1e-10
    verdict("2 (figure system)", ok,
            f"foel={foel_ok}, max ordering={max_ok}, offset ground={ground:.2e}")


def test_criterion_3_sign_and_dominance():
    """Off-diagonal signs, prefix dominance, and dimension monotonicity."""
    rng = np.random.default_rng(3)
    sign_violations = 0
    dominance_violations = 0
    dim_violations = 0
    for k in range(2, 11):
        for n in range(0, k // 2 + 1):
            for _ in range(50):
                js = 2.0 * (1.0 - rng.random(k))
                a = tl_hamiltonian_matrix(k, n, js[: k - 1])
                if a.off_diagonal_max() > 0.0:
                    sign_violations += 1
                if k < 10:
                    b = tl_hamiltonian_matrix(k + 1, n, js)
                    if b.off_diagonal_max() > 0.0:
                        sign_violations += 1
                    d = check_dominance(a, b)
                    if not d.dims_ok:
                        dim_violations += 1
                    if d.max_violation > 1e-12:
                        dominance_violations += 1
    ok = sign_violations == 0 and dominance_violations == 0 and dim_violations == 0
    verdict("3 (sign/dominance)", ok,
            f"sign={sign_violations}, dominance={dominance_violations}, "
            f"dims={dim_violations} violations")


def test_criterion_4_diagram_basis_oracle():
    """Diagram-matrix spectra equal sector spectra; counts match dimensions."""
    rng = np.random.default_rng(4)
    worst = 0.0
    count_ok = True
    for k in range(2, 11):
        js = 2.0 * (1.0 - rng.random(k - 1))
        shape = HilbertShape([HalfInt(1)] * k)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * k, js))
        labels = sector_labels(shape)
        for n in range(0, k // 2 + 1):
            basis = enumerate_arc_diagrams(k, n)
            expected = comb(k, n) - (comb(k, n - 1) if n else 0)
            s = HalfInt(k - 2 * n)
            count_ok &= len(basis) == expected == labels[s]
            tl = tl_hamiltonian_matrix(k, n, js)
            v = highest_weight_space(shape, s)
            hs = v.T @ (h.matrix @ v)
            w_sector = np.sort(np.linalg.eigvalsh(0.5 * (hs + hs.T)))
            w_tl = np.sort(np.linalg.eigvals(tl.A).real)
            worst = max(worst, float(np.abs(w_sector - w_tl).max()))
    five = len(enumerate_arc_diagrams(5, 2))
    ok = worst <= 1e-9 and count_ok and five == 5
    verdict("4 (diagram oracle)", ok,
            f"max spectral diff={worst:.2e}, counts ok={count_ok}, "
            f"k=5 n=2 count={five}")


def _random_comparison_pair(rng):
    m = int(rng.integers(2, 13))
    n = int(rng.integers(1, m + 1))
    b = np.zeros((m, m))
    low = np.tril(-(0.1 + rng.random((m, m))), k=-1)
    b += low + low.T
    b += np.diag(2.0 * rng.random(m) - 1.0)
    a = b[:n, :n].copy()
    mode = rng.integers(0, 3)
    if mode == 0 and n >= 2:
        # lift off-diagonals toward zero: strictness via the shared block
        scale = rng.random((n, n))
        scale = np.tril(scale, k=-1)
        scale = scale + scale.T
        off = a - np.diag(np.diag(a))
        a = np.diag(np.diag(a)) + off * scale
    elif mode == 1:
        a += np.diag(rng.random(n))
    # mode 2 keeps A equal to the block: strictness only via outer entries
    return a, b, n, m


def test_criterion_5_perron_frobenius():
    """Positive ground vectors for diagram matrices; comparison-theorem suite."""
    pf_failures = 0
    reducible = 0
    checked = 0
    for k in range(2, 11):
        for n in range(0, k // 2 + 1):
            tl = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1))
            try:
                res = perron_ground_vector(tl)
                checked += 1
                if res.vector.min() <= 0 or res.gap < 1e-10:
                    pf_failures += 1
            except ReducibleMatrixError:
                reducible += 1
    rng = np.random.default_rng(5)
    comparison_failures = 0
    strict_seen = {"i": 0, "ii": 0}
    trials = 0
    while trials < 200:
        a, b, n, m = _random_comparison_pair(rng)
        v = min_spec_comparison(a, b)
        if not v.hypotheses_ok:
            continue
        trials += 1
        if not v.inequality_ok:
            comparison_failures += 1
        if v.strict_condition:
            strict_seen[v.strict_condition] += 1
            if not v.strict_ok:
                comparison_failures += 1
    ok = (pf_failures == 0 and comparison_failures == 0
          and strict_seen["i"] > 0 and strict_seen["ii"] > 0)
    verdict("5 (Perron-Frobenius)", ok,
            f"{checked} diagram matrices positive ({reducible} reducible skipped); "
            f"200 comparison pairs, failures={comparison_failures}, "
            f"strict cases i/ii={strict_seen['i']}/{strict_seen['ii']}")


def test_criterion_6_q_deformed_ordering():
    """Deformed sector energies strictly decreasing; exact two-site values."""
    worst = np.inf
    exact_ok = True
    for q in (0.2, 0.5, 0.8):
        qp = QParam(q)
        two = q_sector_energies(2, qp)
        exact_ok &= abs(two.entries[HalfInt(2)].min_energy) <= 1e-10
        exact_ok &= abs(two.entries[HalfInt(0)].min_energy - 1.0) <= 1e-10
        for L in range(2, 9):
            v = check_foel(q_sector_energies(L, qp), strict_tol=1e-8)
            worst = min(worst, v.min_margin)
    ok = worst > 1e-8 and exact_ok
    verdict("6 (q-deformed ordering)", ok,
            f"worst margin={worst:.3e}, two-site exact={exact_ok}")


QP_HALF = QParam(0.5)
DROPLET_ROWS = None


def _droplet_rows():
    global DROPLET_ROWS
    if DROPLET_ROWS is None:
        DROPLET_ROWS = droplet_csv_rows(range(4, 17), [1, 2, 3], QP_HALF)
    return DROPLET_ROWS


def test_criterion_7_droplet_structure():
    """Closed-form spot values; monotone decrease in volume; lower bound."""
    spot_ok = (abs(droplet_energy(1, QP_HALF) - 0.2) <= 1e-15
               and abs(droplet_bandwidth(1, QP_HALF) - 2.0) <= 1e-15)
    rows = _droplet_rows()
    mono_ok = True
    bound_ok = True
    for n in (1, 2, 3):
        seq = sorted((L, e) for (L, nn, _, e, _, _, _) in rows if nn == n)
        es = [e for _, e in seq]
        mono_ok &= all(b < a for a, b in zip(es, es[1:]))
        bound_ok &= all(e >= droplet_energy(n, QP_HALF) for e in es)
    ok = spot_ok and mono_ok and bound_ok
    verdict("7a (droplet structure)", ok,
            f"spot values={spot_ok}, monotone in L={mono_ok}, "
            f"bounded below={bound_ok}")


def test_criterion_7_convergence_tolerance():
    """Stated tolerance |finite(16,n) - E(n)| <= 1e-3.

    Kept faithful and expected to FAIL: the finite-volume sector energy sits
    at the bottom of the droplet band discretized by the open chain, so its
    distance to the infinite-volume band bottom scales like
    bandwidth * pi^2 / (4 L^2)  (~1.5e-2 for n=1 at L=16, ratio test confirms
    the L^-2 law), not like q^L.  No eigenvalue of the 16-site chain gets
    within 1e-3 of E(n) for n <= 3 at q = 0.5.
    """
    rows = _droplet_rows()
    gaps = {}
    for n in (1, 2, 3):
        e16 = [e for (L, nn, _, e, _, _, _) in rows if nn == n and L == 16]
        gaps[n] = abs(e16[0] - droplet_energy(n, QP_HALF))
    ok = all(g <= 1e-3 for g in gaps.values())
    verdict("7b (droplet convergence tolerance)", ok,
            "gaps at L=16: " + ", ".join(f"n={n}: {g:.3e}" for n, g in gaps.items())
            + "  [stated 1e-3 tolerance is unattainable at L=16: band "
              "discretization converges as bandwidth*O(L^-2)]")


def test_criterion_8_gap_equality_on_proven_families():
    """Gap independence of the particle number on paths and trees."""
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(8)
    worst = 0.0
    ok = True
    for nv in range(2, 11):
        g = SpinGraph([(i, HalfInt(1)) for i in range(nv)],
                      [(i, i + 1, float(0.2 + 1.8 * rng.random()))
                       for i in range(nv - 1)])
        rep = check_aldous(g, rel_tol=1e-9)
        worst = max(worst, rep.max_rel_deviation)
        ok &= rep.ok
    trees = 0
    for nv in range(2, 10):
        for tree in networkx.nonisomorphic_trees(nv):
            g = SpinGraph([(i, HalfInt(1)) for i in range(nv)],
                          [(u, v, 1.0) for u, v in tree.edges])
            rep = check_aldous(g, rel_tol=1e-9)
            worst = max(worst, rep.max_rel_deviation)
            ok &= rep.ok
            trees += 1
    path3 = SpinGraph([(i, HalfInt(1)) for i in range(3)],
                      [(0, 1, 0.5), (1, 2, 0.5)])
    gap = spectral_gap(ssep_generator(path3, n=1))
    exact = abs(gap - 0.5) <= 1e-12
    verdict("8 (gap equality)", ok and exact,
            f"paths 2..10 and {trees} trees, worst rel dev={worst:.2e}, "
            f"path-of-3 gap={gap}")


def test_criterion_9_spin_map():
    """Entrywise unitary equivalence and per-sector gap identification."""
    rng = np.random.default_rng(9)
    worst_entry = 0.0
    worst_gap = 0.0
    for _ in range(20):
        nv = int(rng.integers(3, 9))
        g = random_connected_graph(rng, nv, extra_edges=int(rng.integers(0, 3)),
                                   spin=HalfInt(1))
        res = verify_spin_map(g)
        worst_entry = max(worst_entry, res.max_deviation)
        worst_gap = max(worst_gap, max(d for _, _, _, d in res.sector_rows))
    ok = worst_entry <= 1e-12 and worst_gap <= 1e-9
    verdict("9 (spin map)", ok,
            f"20 graphs, worst entry dev={worst_entry:.2e}, "
            f"worst gap dev={worst_gap:.2e}")


def test_criterion_10_spin1_quartic_chain():
    """Ordering below the degenerate point, crossing at it, witness beyond."""
    strict_ok = True
    for beta in (0.0, 0.1, 0.3):
        for L in range(2, 6):
            rep = sector_energies(build_spin1_beta_chain(L, beta))
            v = check_foel(rep, strict_tol=1e-8)
            strict_ok &= v.ok and v.min_margin > 1e-8
    crossing_found = False
    for L in range(2, 6):
        rep = sector_energies(build_spin1_beta_chain(L, 1.0 / 3.0))
        v = check_foel(rep, strict_tol=1e-8)
        crossing_found |= bool(v.crossings)
    witness = None
    for L in range(2, 7):
        rep = sector_energies(build_spin1_beta_chain(L, 0.4))
        v = check_foel(rep, strict_tol=1e-8)
        if v.violations:
            witness = (L, v.violations[0])
            break
    witness_note = (f"violation witness at L={witness[0]}" if witness
                    else "no witness at desk scale [flagged, non-failing]")
    ok = strict_ok and crossing_found
    verdict("10 (spin-1 quartic chain)", ok,
            f"strict below 1/3={strict_ok}, crossing at 1/3={crossing_found}, "
            f"beta=0.4: {witness_note}")
