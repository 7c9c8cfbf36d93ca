import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (build_xxz_chain, commutator_maxabs, droplet_rows_per_length,
                       kernel_basis, q_casimir, q_casimir_value, s3_blocks,
                       suq2_generators, xxz_bond)

import foelab.qgroup as qgroup
import foelab.temperley_lieb as tlmod
from foelab.hamiltonians import ChainSpec, build_normalized_chain
from foelab.qgroup import (
    QParam,
    droplet_bandwidth,
    droplet_csv_rows,
    droplet_energy,
    finite_droplet_energy,
    q_sector_energies,
)
from foelab.sectors import SectorEntry, check_foel, sector_energies, sector_labels
from foelab.spinops import HalfInt, HilbertShape, spin_matrices

DEMO = Path(__file__).resolve().parent.parent / "demos" / "xxz_droplets.py"


class TestQParam:
    def test_delta_roundtrip(self):
        qp = QParam(0.5)
        assert np.isclose(qp.delta, 1.25, atol=1e-15)
        assert abs(qp.delta - np.sqrt(qp.delta ** 2 - 1.0) - 0.5) <= 1e-14

    def test_invalid(self):
        for bad in (0.0, 1.0, 1.5, -0.3):
            with pytest.raises(ValueError):
                QParam(bad)


class TestGenerators:
    def test_single_site_undeformed(self):
        gen = suq2_generators(1, QParam(0.4))
        ops = spin_matrices(HalfInt(1))
        assert np.allclose(gen.sqplus.toarray(), ops.splus)
        assert np.allclose(gen.sqminus.toarray(), ops.sminus)

    def test_two_site_raising_action(self):
        q = 0.6
        gen = suq2_generators(2, QParam(q))
        down_down = np.array([0.0, 0.0, 0.0, 1.0])
        out = gen.sqplus.toarray() @ down_down
        # S+ x 1 gives |+->, t x S+ dresses |-> with q before raising site 2
        assert np.allclose(out, [0.0, 1.0, q, 0.0])

    @pytest.mark.parametrize("q", [0.3, 0.7])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_commutation_relations(self, L, q):
        gen = suq2_generators(L, QParam(q))
        s3, sp, sm = gen.s3.toarray(), gen.sqplus.toarray(), gen.sqminus.toarray()
        assert np.abs((s3 @ sp - sp @ s3) - sp).max() <= 1e-10
        assert np.abs((s3 @ sm - sm @ s3) + sm).max() <= 1e-10
        m = np.diag(s3)
        rhs = np.diag((q ** (2 * m) - q ** (-2 * m)) / (q - 1.0 / q))
        assert np.abs((sp @ sm - sm @ sp) - rhs).max() <= 1e-10

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_xxz_invariance(self, L):
        qp = QParam(0.5)
        h = build_xxz_chain(L, qp.delta)
        gen = suq2_generators(L, qp)
        scale = max(1.0, abs(h.dense()).max()) if L <= 6 else 10.0
        for op in (gen.sqplus, gen.sqminus, gen.s3):
            assert commutator_maxabs(h.matrix, op) <= 1e-9 * scale


class TestQCasimir:
    def test_single_site_scalar(self):
        qp = QParam(0.5)
        c = q_casimir(1, qp).toarray()
        expected = (0.5 ** -2 + 0.5 ** 2) / (2.0 - 0.5) ** 2
        assert np.allclose(c, expected * np.eye(2))
        assert np.isclose(expected, q_casimir_value(HalfInt(1), qp))

    def test_two_site_multiplicities(self):
        qp = QParam(0.5)
        w = np.sort(np.linalg.eigvals(q_casimir(2, qp).toarray()).real)
        v0, v1 = q_casimir_value(HalfInt(0), qp), q_casimir_value(HalfInt(2), qp)
        assert np.allclose(w, sorted([v0] + [v1] * 3), atol=1e-10)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_commutes_with_chain(self, L):
        qp = QParam(0.5)
        h = build_xxz_chain(L, qp.delta)
        c = q_casimir(L, qp)
        assert commutator_maxabs(h.matrix, c) <= 1e-9

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_eigenvalue_family(self, L):
        qp = QParam(0.37)
        w = np.linalg.eigvals(q_casimir(L, qp).toarray()).real
        family = [q_casimir_value(S, qp)
                  for S in sector_labels(HilbertShape([HalfInt(1)] * L))]
        for e in w:
            assert min(abs(e - f) for f in family) <= 1e-8

    def test_near_one_guarded(self):
        with pytest.raises(ValueError):
            q_casimir(2, QParam(1.0 - 1e-9))


class TestQSectorEnergies:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_two_site_exact(self, q):
        report = q_sector_energies(2, QParam(q))
        assert abs(report.entries[HalfInt(2)].min_energy) <= 1e-10
        assert abs(report.entries[HalfInt(0)].min_energy - 1.0) <= 1e-10
        assert check_foel(report).ok

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("L", [3, 4, 5, 6])
    def test_strictly_decreasing(self, L, q):
        verdict = check_foel(q_sector_energies(L, QParam(q)))
        assert verdict.ok
        assert all(g > 1e-8 for _, _, g in verdict.margins)

    @pytest.mark.parametrize("L", [2, 5, 8])
    def test_every_route_returns_sector_entries(self, L):
        js = [1.0 + 0.25 * x for x in range(L - 1)]
        chain = build_normalized_chain(ChainSpec([HalfInt(1)] * L, js))
        q_report = q_sector_energies(L, QParam(0.5))
        for report in (sector_energies(chain), tlmod.diagram_sector_energies(js), q_report):
            assert all(type(e) is SectorEntry for e in report.entries.values())
        for S, e in q_report.entries.items():
            assert e.max_energy is None
            assert e.dimension == tlmod.diagram_count(L, (L - S.twice) // 2)

    def test_dimensions_match_undeformed(self):
        report = q_sector_energies(5, QParam(0.3))
        labels = sector_labels(HilbertShape([HalfInt(1)] * 5))
        assert {s: e.dimension for s, e in report.entries.items()} == labels

    def test_continuity_toward_isotropic(self):
        # q -> 1: the sector energies approach those of the isotropic chain
        # with bonds 1/4 - S.S (the zero-boundary-field limit)
        L = 4
        report = q_sector_energies(L, QParam(1.0 - 1e-3))
        iso = build_normalized_chain(ChainSpec([HalfInt(1)] * L, [0.25] * (L - 1)))
        iso_report = sector_energies(iso)
        for S, e in report.entries.items():
            assert abs(e.min_energy - iso_report.entries[S].min_energy) <= 1e-2


def svd_sector_minima(L, qp):
    """Reference route: ker(S+_q) in each S^3 block by SVD, project H, eigvalsh."""
    shape = HilbertShape([HalfInt(1)] * L)
    h = build_xxz_chain(L, qp.delta).matrix.tocsr()
    gen = suq2_generators(L, qp)
    blocks = s3_blocks(shape)
    out = {}
    for S, d in sector_labels(shape).items():
        cols = blocks[S]
        rows = blocks.get(S + HalfInt(2), np.zeros(0, dtype=int))
        kern = kernel_basis(gen.sqplus[rows][:, cols])
        assert kern.shape[1] == d
        hs = kern.T @ h[cols][:, cols].toarray() @ kern
        out[S] = float(np.linalg.eigvalsh(0.5 * (hs + hs.T))[0])
    return out


class TestCrossRoute:
    """The diagram-basis route against the SVD projection, sector by sector."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(L=st.integers(2, 10), q=st.floats(min_value=0.05, max_value=0.95))
    def test_tl_route_matches_svd_projection(self, L, q):
        qp = QParam(q)
        ref = svd_sector_minima(L, qp)
        report = q_sector_energies(L, qp)
        assert set(report.entries) == set(ref)
        for S, e in ref.items():
            tol = 1e-10 * max(1.0, abs(e))
            assert abs(report.entries[S].min_energy - e) <= tol
            n = (L - S.twice) // 2
            if n >= 1:
                assert abs(finite_droplet_energy(L, n, qp) - e) <= tol

    def test_sparse_route_brackets_contain_svd_minima(self):
        # sectors n = 3..6 (m = 154, 275, 297, 132) take the Arnoldi route;
        # each SVD minimum must lie in the certified bracket of its sector
        L, qp = 12, QParam(0.5)
        ref = svd_sector_minima(L, qp)
        report = q_sector_energies(L, qp)
        sparse = [S for S, e in report.entries.items()
                  if e.dimension >= tlmod.PERRON_SPARSE_MIN_DIM]
        assert sorted(report.entries[S].dimension for S in sparse) == [132, 154, 275, 297]
        for S, e in ref.items():
            lo, hi = report.entries[S].bracket
            assert lo - 1e-10 <= e <= hi + 1e-10


class TestQFoelVerdict:
    def test_margins_split_like_check_foel(self):
        report = q_sector_energies(6, QParam(0.5))
        verdict = check_foel(report)
        assert verdict.crossings == [] and verdict.violations == []
        # a tolerance above every gap turns each adjacent pair into a crossing
        wide = check_foel(report, 10.0)
        assert not wide.ok
        assert wide.crossings == wide.margins == verdict.margins
        assert wide.violations == []


class TestDropletFormulas:
    def test_spot_values(self):
        qp = QParam(0.5)
        assert abs(droplet_energy(1, qp) - 0.2) <= 1e-15
        assert abs(droplet_bandwidth(1, qp) - 2.0) <= 1e-15

    def test_small_q_limits(self):
        qp = QParam(1e-9)
        for n in (1, 2, 3):
            assert abs(droplet_energy(n, qp) - 1.0) <= 1e-8
            assert droplet_bandwidth(n, qp) <= 1e-8

    def test_monotone_in_droplet_size(self):
        qp = QParam(0.5)
        es = [droplet_energy(n, qp) for n in range(1, 11)]
        assert all(b > a for a, b in zip(es, es[1:]))

    def test_bandwidth_ratio_tends_to_inverse_q(self):
        qp = QParam(0.5)
        ratio = droplet_bandwidth(8, qp) / droplet_bandwidth(9, qp)
        assert abs(ratio - 1.0 / qp.q) <= 1e-2

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            droplet_energy(0, QParam(0.5))


class TestFiniteDroplet:
    def test_two_site_value(self):
        # the n=1 sector of the two-site chain is the deformed singlet at 1
        assert abs(finite_droplet_energy(2, 1, QParam(0.5)) - 1.0) <= 1e-12

    def test_monotone_decreasing_in_volume(self):
        qp = QParam(0.5)
        es = [finite_droplet_energy(L, 2, qp) for L in range(5, 15)]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_bounded_below_by_infinite_volume(self):
        qp = QParam(0.5)
        for n in (1, 2, 3):
            for L in range(2 * n, 13):
                assert finite_droplet_energy(L, n, qp) >= droplet_energy(n, qp)

    def test_long_chain_one_magnon(self):
        # oracle: the L x L one-down-spin block of the XXZ chain holds the
        # zero-energy descendant of the maximal multiplet and, above it,
        # the n = 1 sector levels
        L, qp = 40, QParam(0.5)
        bond = xxz_bond(qp.delta)  # basis ++, +-, -+, -- of sites (x, x+1)
        block = np.zeros((L, L))
        for x in range(L - 1):
            idx = [x, x + 1]
            block[np.ix_(idx, idx)] += bond[np.ix_([2, 1], [2, 1])]
        levels = np.linalg.eigvalsh(block)
        assert abs(levels[0]) <= 1e-12
        e = finite_droplet_energy(L, 1, qp)
        assert abs(e - levels[1]) <= 1e-12
        assert droplet_energy(1, qp) < e < finite_droplet_energy(L - 1, 1, qp)

    def test_domain(self):
        with pytest.raises(ValueError):
            finite_droplet_energy(4, 3, QParam(0.5))

    def test_sweep_rows(self):
        qp = QParam(0.5)
        rows = droplet_csv_rows(range(4, 9), [1, 2], qp)
        assert all(r[3] >= r[4] for r in rows)  # finite >= infinite volume
        by_n = {}
        for L, n, _, e, _, _, _ in rows:
            by_n.setdefault(n, []).append((L, e))
        for seq in by_n.values():
            es = [e for _, e in sorted(seq)]
            assert all(b < a for a, b in zip(es, es[1:]))


class TestDropletSweep:
    """droplet_csv_rows reads every length from one TL matrix per droplet
    size, against the sweep that builds each (L, n) sector from scratch and
    against the SVD projection on the 2^L space."""

    # n = 7 has no length in 0..11; L = 0, 1 admit no n
    LENGTHS, SIZES = range(0, 12), [2, 7, 1, 3]

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    def test_rows_match_the_per_length_sweep(self, q, monkeypatch):
        qp = QParam(q)
        builds = []

        def spy(k, n, couplings, q):
            builds.append((k, n))
            return tlmod.tl_hamiltonian_matrix(k, n, couplings, q)

        monkeypatch.setattr(qgroup, "tl_hamiltonian_matrix", spy)
        rows = droplet_csv_rows(self.LENGTHS, self.SIZES, qp)
        assert builds == [(11, 2), (11, 1), (11, 3)]
        monkeypatch.undo()
        assert rows == droplet_rows_per_length(self.LENGTHS, self.SIZES, qp)
        assert sorted((L, n) for L, n, *_ in rows) == sorted(
            (L, n) for n in (1, 2, 3) for L in range(2 * n, 12))

    def test_no_admissible_length_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(qgroup, "tl_hamiltonian_matrix", None)
        assert droplet_csv_rows(range(0, 5), [3, 4], QParam(0.5)) == []

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    def test_energies_match_svd_projection(self, q):
        qp = QParam(q)
        rows = droplet_csv_rows(range(2, 11), [1, 2, 3, 4, 5], qp)
        minima = {L: svd_sector_minima(L, qp) for L in range(2, 11)}
        for L, n, _, e, _, _, (lo, hi) in rows:
            ref = minima[L][HalfInt(L - 2 * n)]
            assert abs(e - ref) <= 1e-10 * max(1.0, abs(ref))
            assert lo <= e <= hi


def test_droplet_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "L = 14:  E = 0.37793731" in out
    rows = (tmp_path / "droplet_sweep.csv").read_text().splitlines()
    assert rows[0] == "L,n,q,finite_energy,E_infinity,bandwidth"
    assert len(rows) == 1 + 11 + 11 + 9  # n = 1, 2 at L = 4..14; n = 3 at L = 6..14
