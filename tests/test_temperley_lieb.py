import dataclasses
import itertools
import runpy
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (basis_csv_tuples, build_xxz_chain, collatz_wielandt_bracket,
                       expand_diagram_to_tensor, fk_arrow_basis, fk_gram_matrix,
                       highest_weight_space, kernel_basis, matrix_csv_tuples,
                       min_spec_comparison, s3_blocks, suq2_generators, total_s3,
                       total_splus)

import foelab.linalg as linalg
import foelab.temperley_lieb as tlmod
from foelab.errors import NumericalError, ReducibleMatrixError
from foelab.hamiltonians import ChainSpec, build_normalized_chain
from foelab.reports import csv_text
from foelab.sectors import SectorEntry, sector_energies, sector_labels
from foelab.spinops import HalfInt, HilbertShape, _local_sum
from foelab.temperley_lieb import (
    check_dominance,
    enumerate_arc_diagrams,
    fk_hamiltonian_matrix,
    fk_highest_weight_basis,
    perron_ground_vector,
    tl_basis_csv_rows,
    tl_hamiltonian_matrix,
    tl_matrix_csv_rows,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "diagram_basis_tour.py"
MATRIX_HEADER, BASIS_HEADER = ("row", "col", "value"), ("diagram_id", "arcs")


def brute_force_diagrams(k, n):
    """Oracle: filter all pairings of all 2n-subsets with direct predicates."""
    found = set()

    def matchings(verts):
        if not verts:
            yield ()
            return
        a = verts[0]
        for i in range(1, len(verts)):
            b = verts[i]
            rest = verts[1:i] + verts[i + 1:]
            for m in matchings(rest):
                yield ((a, b),) + m

    for subset in itertools.combinations(range(1, k + 1), 2 * n):
        for arcs in matchings(list(subset)):
            unpaired = set(range(1, k + 1)) - set(subset)
            noncrossing = all(
                not (a < c < b < d or c < a < d < b)
                for (a, b), (c, d) in itertools.combinations(arcs, 2)
            )
            nospan = all(not (x < u < y) for x, y in arcs for u in unpaired)
            if noncrossing and nospan:
                found.add(tuple(sorted(arcs)))
    return found


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_arc_diagrams(5, 2)) == 5
        assert len(enumerate_arc_diagrams(2, 1)) == 1
        assert len(enumerate_arc_diagrams(4, 2)) == 2

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_brute_force(self, k):
        for n in range(0, k // 2 + 1):
            assert set(enumerate_arc_diagrams(k, n)) == brute_force_diagrams(k, n)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_count_formula_and_sector_dimension(self, k):
        shape = HilbertShape([HalfInt(1)] * k)
        labels = sector_labels(shape)
        for n in range(0, k // 2 + 1):
            count = len(enumerate_arc_diagrams(k, n))
            assert count == comb(k, n) - (comb(k, n - 1) if n else 0)
            assert count == labels[HalfInt(k - 2 * n)]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_embedding_is_basis_prefix(self, k):
        for n in range(0, k // 2 + 1):
            basis_k = enumerate_arc_diagrams(k, n)
            basis_k1 = enumerate_arc_diagrams(k + 1, n)
            # the same arcs, the new last vertex unpaired
            assert basis_k1[: len(basis_k)] == basis_k


@st.composite
def leading_block_inputs(draw):
    k = draw(st.integers(2, 12))
    n = draw(st.integers(0, k // 2))
    length = draw(st.integers(max(2 * n, 1), k))
    q = draw(st.sampled_from([0.05, 0.5, 1.0, 2.0]))
    js = draw(st.lists(st.floats(0.0, 2.0, exclude_min=True),
                       min_size=k - 1, max_size=k - 1))
    return k, n, length, q, js


class TestMemoryEstimate:
    @pytest.mark.parametrize("k,n", [(16, 8), (18, 6), (20, 5), (40, 3)])
    def test_estimate_bounds_the_traced_peak(self, k, n):
        tracemalloc.start()
        try:
            tl_hamiltonian_matrix(k, n, [1.0] * (k - 1), 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tlmod.TL_BYTES_PER_DIAGRAM_VERTEX * k * tlmod.diagram_count(k, n)

    def test_guard_before_the_basis(self, monkeypatch):
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        with pytest.raises(NumericalError, match="the basis of 9694845 diagrams \\(15 arcs "
                                                 "on 30 vertices\\) needs an estimated"):
            tl_hamiltonian_matrix(30, 15, [1.0] * 29)


class TestLeadingBlock:
    """The L-vertex TL matrix is the leading block of the K-vertex one,
    bit for bit, which lets a droplet sweep build one matrix per n."""

    @settings(max_examples=60, database=None, deadline=None)
    @given(leading_block_inputs())
    def test_matches_the_direct_build(self, inputs):
        k, n, length, q, js = inputs
        block = tl_hamiltonian_matrix(k, n, js, q).leading_block(length)
        direct = tl_hamiltonian_matrix(length, n, js[:length - 1], q)
        assert (block.k, block.n, block.q, block.couplings) == (
            direct.k, direct.n, direct.q, direct.couplings)
        assert np.array_equal(block.partners, direct.partners)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(block.matrix, name), getattr(direct.matrix, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert block.matrix.shape == direct.matrix.shape
        assert block.matrix.has_canonical_format

    @pytest.mark.parametrize("length", [7, 3, 1])
    def test_out_of_range_length_raises(self, length):
        # above k, or below 2n (no diagram of n = 2 arcs fits)
        tl = tl_hamiltonian_matrix(6, 2, [1.0] * 5)
        with pytest.raises(ValueError, match="need 2n <= k"):
            tl.leading_block(length)

    def test_prefix_pairing_a_vertex_above_length_raises(self):
        tl = tl_hamiltonian_matrix(6, 2, [1.0] * 5, 0.5)
        swapped = dataclasses.replace(tl, partners=tl.partners[::-1])
        with pytest.raises(ValueError, match="pairs a vertex above k=4"):
            swapped.leading_block(4)


def bond_matrix(k, n, x, q):
    """Dense matrix of U_{x,x+1} on the (k, n) diagram basis, read from the
    builder: its matrix with coupling 1 on bond x and 0 elsewhere, over -2."""
    couplings = [float(y == x) for y in range(1, k)]
    return tlmod._tl_csr(tlmod._diagram_basis(k, n), couplings, q).toarray() / -2.0


def bond_action(arcs, k, x, q=1.0):
    """{image arcs: coefficient} of U_{x,x+1} on one diagram, per the builder."""
    basis = enumerate_arc_diagrams(k, len(arcs))
    column = bond_matrix(k, len(arcs), x, q)[:, basis.index(arcs)]
    return {basis[i]: c for i, c in enumerate(column) if c != 0.0}


class TestGeneratorAction:
    """The builder's matrix of each bond generator, rule by rule."""

    def test_bubble(self):
        assert bond_action(((1, 2),), 2, 1, q=1.0) == {((1, 2),): -2.0}

    def test_q_bubble_value(self):
        assert np.isclose(bond_action(((1, 2),), 2, 1, q=0.5)[((1, 2),)], -2.5)

    def test_unpaired_pair_annihilates(self):
        assert bond_action((), 2, 1) == {}

    def test_rearch(self):
        assert bond_action(((1, 2),), 3, 2) == {((2, 3),): 1.0}

    def test_double_rearch(self):
        assert bond_action(((1, 2), (3, 4)), 4, 2) == {((1, 4), (2, 3)): 1.0}

    @pytest.mark.parametrize("q", [1.0, 0.5])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_rules_match_operator_action(self, k, q):
        """Strong oracle: each bond's matrix reproduces the actual projector
        operator acting on the expanded tensor vectors, U_x V = V B_x."""
        xi = np.array([0.0, q, -1.0, 0.0])
        u_local = -np.outer(xi, xi) / q
        for n in range(0, k // 2 + 1):
            v = np.column_stack([expand_diagram_to_tensor(k, arcs, q)
                                 for arcs in enumerate_arc_diagrams(k, n)])
            for x in range(1, k):
                left, right = 2 ** (x - 1), 2 ** (k - x - 1)
                u_op = np.kron(np.kron(np.eye(left), u_local), np.eye(right))
                assert np.abs(u_op @ v - v @ bond_matrix(k, n, x, q)).max() <= 1e-12


class TestTLMatrix:
    def test_one_by_one(self):
        tl = tl_hamiltonian_matrix(2, 1, [1.0])
        assert tl.A.shape == (1, 1)
        assert np.isclose(tl.A[0, 0], 4.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_off_diagonals_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(2, 9):
            js = 2.0 * (1.0 - rng.random(k - 1))
            for n in range(0, k // 2 + 1):
                tl = tl_hamiltonian_matrix(k, n, js)
                assert tl.off_diagonal_max() <= 0.0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_spectrum_equals_sector_spectrum(self, k):
        rng = np.random.default_rng(k)
        js = 2.0 * (1.0 - rng.random(k - 1))
        shape = HilbertShape([HalfInt(1)] * k)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * k, js))
        for n in range(0, k // 2 + 1):
            tl = tl_hamiltonian_matrix(k, n, js)
            v = highest_weight_space(shape, HalfInt(k - 2 * n))
            hs = v.T @ (h.matrix @ v)
            w_sector = np.sort(np.linalg.eigvalsh(0.5 * (hs + hs.T)))
            w_tl = np.sort(np.linalg.eigvals(tl.A).real)
            assert np.abs(w_sector - w_tl).max() <= 1e-9

    def test_coupling_count_enforced(self):
        with pytest.raises(ValueError):
            tl_hamiltonian_matrix(4, 1, [1.0])

    @pytest.mark.parametrize("q", [0.0, -0.5, float("nan"), float("inf")])
    def test_nonpositive_q_rejected(self, q):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            tl_hamiltonian_matrix(4, 1, [1.0] * 3, q)

    @pytest.mark.parametrize("j", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_coupling_rejected(self, j):
        # a NaN passed a "j <= 0" test and reached the Perron solve as a
        # raw LinAlgError
        with pytest.raises(ValueError, match="couplings must be positive and finite"):
            tl_hamiltonian_matrix(4, 1, [1.0, j, 1.0])


class TestDominance:
    def test_two_to_three(self):
        a = tl_hamiltonian_matrix(2, 1, [1.0])
        b = tl_hamiltonian_matrix(3, 1, [1.0, 1.0])
        verdict = check_dominance(a, b)
        assert verdict.ok and verdict.dims_ok
        # the spin-1/2 chain prefix is exactly equal (no strict surplus)
        assert verdict.max_violation == 0.0

    def test_five_to_six(self):
        rng = np.random.default_rng(5)
        js = 2.0 * (1.0 - rng.random(5))
        a = tl_hamiltonian_matrix(5, 2, js[:4])
        b = tl_hamiltonian_matrix(6, 2, js)
        assert check_dominance(a, b).ok

    def test_smaller_basis_fails_dims(self):
        a = tl_hamiltonian_matrix(4, 2, [1.0] * 3)
        b = tl_hamiltonian_matrix(5, 2, [1.0] * 4)
        short = dataclasses.replace(b, partners=b.partners[:1], matrix=b.matrix[:1, :1])
        verdict = check_dominance(a, short)
        assert not verdict.dims_ok and not verdict.ok
        assert np.isnan(verdict.max_violation)

    def test_misaligned_input_rejected(self):
        a = tl_hamiltonian_matrix(4, 1, [1.0] * 3)
        b = tl_hamiltonian_matrix(6, 1, [1.0] * 5)
        with pytest.raises(ValueError):
            check_dominance(a, b)


class TestPerron:
    def test_trivial(self):
        res = perron_ground_vector(np.array([[3.0]]))
        assert res.vector[0] == 1.0 and res.eigenvalue == 3.0

    def test_k4_n1(self):
        res = perron_ground_vector(tl_hamiltonian_matrix(4, 1, [1.0] * 3))
        assert res.vector.shape == (3,)
        assert res.vector.min() > 0

    def test_k5_n2(self):
        res = perron_ground_vector(tl_hamiltonian_matrix(5, 2, [1.0] * 4))
        assert res.vector.shape == (5,)
        assert res.vector.min() > 0
        assert res.gap > 1e-10

    def test_reducible_rejected(self):
        block = np.diag([1.0, 2.0])
        with pytest.raises(ReducibleMatrixError):
            perron_ground_vector(block)

    def test_positive_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            perron_ground_vector(np.array([[1.0, 0.5], [-0.5, 2.0]]))

    @pytest.mark.parametrize("route", ["dense", "sparse"])
    def test_residual_reads_the_shared_tolerance(self, route, monkeypatch):
        # a zero bound certifies no eigenpair of _extremal_pair
        assert tlmod.RESIDUAL_TOL is linalg.RESIDUAL_TOL
        monkeypatch.setattr(tlmod, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match="ground pair residual"):
            _perron(tl_hamiltonian_matrix(8, 3, [1.0, 0.5, 2.0, 1.0, 0.7, 1.5, 0.3], 0.5).matrix,
                    route, monkeypatch)


def _perron(a, route, monkeypatch):
    """perron_ground_vector forced onto the dense or the sparse route."""
    cutoff = {"dense": a.shape[0] + 1, "sparse": 0}[route]
    monkeypatch.setattr(tlmod, "PERRON_SPARSE_MIN_DIM", cutoff)
    return perron_ground_vector(a)


class TestPerronRoutes:
    """Dense eig and sparse Arnoldi on TL matrices either side of the
    crossover: (10,3) has dimension 75, (11,3) has 110."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("k,n", [(10, 3), (11, 3)])
    def test_dense_and_sparse_agree(self, k, n, q, monkeypatch):
        a = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1), q).A
        assert (a.shape[0] < tlmod.PERRON_SPARSE_MIN_DIM) == (k == 10)
        dense = _perron(a, "dense", monkeypatch)
        sparse = _perron(a, "sparse", monkeypatch)
        assert abs(sparse.eigenvalue - dense.eigenvalue) <= 1e-10 * abs(dense.eigenvalue)
        # each route's root lies in the bracket built from the other's vector
        assert sparse.bracket[0] <= dense.eigenvalue <= sparse.bracket[1]
        lo, hi = collatz_wielandt_bracket(a, dense.vector)
        assert lo <= sparse.eigenvalue <= hi
        assert dense.gap > 0 and sparse.gap is None
        for res in (dense, sparse):
            assert res.vector.min() > 0
        cos = dense.vector @ sparse.vector / (
            np.linalg.norm(dense.vector) * np.linalg.norm(sparse.vector))
        assert cos >= 1.0 - 1e-12

    def test_sparse_reruns_are_bit_identical(self, monkeypatch):
        a = tl_hamiltonian_matrix(11, 3, [1.0] * 10, 0.5).A
        runs = [_perron(a, "sparse", monkeypatch) for _ in range(3)]
        assert len({(r.eigenvalue, r.gap, r.bracket, r.vector.tobytes()) for r in runs}) == 1


class TestCollatzWielandtBracket:
    @pytest.mark.parametrize("k,n", [(10, 3), (11, 3)])
    def test_bracket_does_not_depend_on_the_solver(self, k, n):
        # any positive vector encloses the root, not only the solver's
        tl = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1), 0.5)
        res = perron_ground_vector(tl)
        rng = np.random.default_rng(k)
        x = res.vector * (1.0 + 1e-3 * rng.random(tl.dim))
        lo, hi = collatz_wielandt_bracket(tl, x)
        assert lo <= res.eigenvalue <= hi
        assert hi - lo > 1e3 * (res.bracket[1] - res.bracket[0])

    @pytest.mark.parametrize("entry", [0.0, -1e-3, np.nan])
    def test_nonpositive_vector_rejected(self, entry):
        tl = tl_hamiltonian_matrix(7, 2, [1.0] * 6, 0.5)
        x = perron_ground_vector(tl).vector.copy()
        x[3] = entry
        with pytest.raises(ValueError, match="strictly positive"):
            collatz_wielandt_bracket(tl, x)

    def test_k16_n5_bracket_width(self):
        tl = tl_hamiltonian_matrix(16, 5, [1.0] * 15, 0.5)
        assert tl.dim == 2548
        res = perron_ground_vector(tl)
        lo, hi = res.bracket
        assert lo <= res.eigenvalue <= hi
        assert hi - lo <= 1e-10 * abs(tl.matrix).sum(axis=1).max()

    def test_wrong_eigenpair_from_the_solver_raises(self, monkeypatch):
        # Arnoldi converging to another eigenvalue gives a vector with both
        # signs: the certificate refuses it whatever the residual says
        tl = tl_hamiltonian_matrix(11, 3, [1.0] * 10, 0.5)
        w, v = np.linalg.eig(tl.A)
        second = np.argsort(w.real)[1]
        monkeypatch.setattr(tlmod.sla, "eigs",
                            lambda *a, **kw: (w[[second]], v[:, [second]]))
        with pytest.raises(NumericalError, match="not strictly positive"):
            perron_ground_vector(tl)

    def test_root_off_the_bracket(self, monkeypatch):
        # a root a few ulps outside is the solver's rounding: it is returned
        # as computed and the bracket widened to hold it; farther out raises
        tl = tl_hamiltonian_matrix(11, 3, [1.0] * 10, 0.5)
        exact = perron_ground_vector(tl)
        lo, hi = exact.bracket
        for root in (np.nextafter(lo, -np.inf), hi + 1e3 * np.spacing(hi)):
            monkeypatch.setattr(tlmod.sla, "eigs", lambda *a, r=root, **kw:
                                (np.array([r]), exact.vector[:, None]))
            if root < lo:
                res = perron_ground_vector(tl)
                assert res.eigenvalue == root and res.bracket == (root, hi)
            else:
                with pytest.raises(NumericalError, match="outside"):
                    perron_ground_vector(tl)

    @pytest.mark.parametrize("k,n", [(12, 4), (14, 4)])
    def test_solver_noise_below_the_old_floor_is_certified(self, k, n, monkeypatch):
        # at q = 0.05 Arnoldi's smallest entries are noise: 5e-14 of the
        # largest at (12,4), -1e-16 at (14,4); clamped and sharpened, the
        # vector is strictly positive and brackets the root
        q = 0.05
        tl = tl_hamiltonian_matrix(k, n, [1.0 / (2.0 * (q + 1.0 / q))] * (k - 1), q)
        raw, real = [], tlmod.sla.eigs

        def eigs(*a, **kw):
            w, v = real(*a, **kw)
            raw.append(v[:, 0].real * np.sign(v[np.argmax(np.abs(v[:, 0])), 0].real))
            return w, v

        monkeypatch.setattr(tlmod.sla, "eigs", eigs)
        res = perron_ground_vector(tl)
        assert -1e-10 < raw[0].min() / raw[0].max() <= 1e-10
        lo, hi = res.bracket
        assert res.vector.min() > 0 and lo <= res.eigenvalue <= hi
        assert hi - lo <= 1e-9 * max(1.0, abs(tl.matrix).sum(axis=1).max())
        assert lo - 1e-10 <= np.linalg.eigvals(tl.A).real.min() <= hi + 1e-10

    @pytest.mark.parametrize("k,n,q", [(10, 4, 0.05), (12, 4, 0.1)])
    def test_small_q_vectors_are_sharpened(self, k, n, q, monkeypatch):
        # entries down to 1e-10 of the largest: the solver's vector brackets
        # the root too loosely, the Jacobi sweeps make it tight
        j = 1.0 / (2.0 * (q + 1.0 / q))
        tl = tl_hamiltonian_matrix(k, n, [j] * (k - 1), q)
        res = perron_ground_vector(tl)
        scale = max(1.0, abs(tl.matrix).sum(axis=1).max())
        assert res.bracket[1] - res.bracket[0] <= 1e-9 * scale
        assert res.bracket[0] <= res.eigenvalue <= res.bracket[1]
        assert res.vector.min() > 0
        monkeypatch.setattr(tlmod, "PERRON_REFINE_SWEEPS", 0)
        with pytest.raises(NumericalError, match="bracket"):
            perron_ground_vector(tl)


def test_matrix_csv_rows_match_double_loop():
    for k, n, q in [(2, 1, 1.0), (7, 2, 0.3), (11, 3, 0.5)]:
        tl = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1), q)
        loop = [(i, j, float(tl.A[i, j])) for i in range(tl.dim)
                for j in range(tl.dim) if tl.A[i, j] != 0.0]
        assert matrix_csv_tuples(tl) == loop
        text = csv_text(MATRIX_HEADER, loop)
        assert csv_text(MATRIX_HEADER, tl_matrix_csv_rows(tl)) == text
        assert csv_text(MATRIX_HEADER, tl_matrix_csv_rows(tl.matrix)) == text
        for form in non_canonical_forms(tl.matrix):
            assert csv_text(MATRIX_HEADER, tl_matrix_csv_rows(form)) == text


def non_canonical_forms(csr):
    """The same matrix as a COO and as a raw CSR, both with every
    off-diagonal entry v stored as 2v and -v (a positive stored entry on a
    nonpositive matrix) and a stored 0.0 on every anti-diagonal position."""
    coo = csr.tocoo()
    m, off = csr.shape[0], coo.row != coo.col
    row = np.concatenate([coo.row, coo.row[off], np.arange(m)])
    col = np.concatenate([coo.col, coo.col[off], np.arange(m)[::-1]])
    data = np.concatenate([np.where(off, 2.0 * coo.data, coo.data),
                           -coo.data[off], np.zeros(m)])
    order = np.argsort(row, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=m))])
    raw = sp.csr_matrix((data[order], col[order], indptr), shape=(m, m))
    assert not raw.has_canonical_format
    return sp.coo_matrix((data, (row, col)), shape=(m, m)), raw


def walk_basis(k, n):
    """Reference enumerator: recursive walk, one sorted arc tuple per
    diagram, sorted by (last paired vertex, arc tuple)."""
    out = []

    def walk(pos, stack, arcs, opened):
        if pos > k:
            if not stack and opened == n:
                out.append(tuple(sorted(arcs)))
            return
        if len(stack) > k - pos + 1:
            return
        if opened < n:
            walk(pos + 1, stack + [pos], arcs, opened + 1)
        if stack:
            walk(pos + 1, stack[:-1], arcs + [(stack[-1], pos)], opened)
        else:
            walk(pos + 1, stack, arcs, opened)

    walk(1, [], [], 0)
    return sorted(out, key=lambda arcs: (max((y for _, y in arcs), default=0), arcs))


def rule_image(arcs, x, q):
    """Graphical rules of the bond generator U_{x,x+1} on a sorted arc tuple:
    (image arcs, coefficient), or None for zero.

    (i)   x and x+1 both unpaired      -> 0
    (ii)  arc [x,x+1] present          -> -(q + 1/q) times the diagram
    (iii) exactly one of x,x+1 paired  -> +1 times the re-arched diagram
    (iv)  both paired (to a and b)     -> +1 times the diagram with arcs
                                          [a,b] and [x,x+1] instead
    """
    partner = {v: w for arc in arcs for v, w in (arc, arc[::-1])}
    a, b = partner.get(x), partner.get(x + 1)
    if a is None and b is None:
        return None
    if a == x + 1:
        return arcs, -(q + 1.0 / q)
    image = [arc for arc in arcs if x not in arc and x + 1 not in arc] + [(x, x + 1)]
    if a is not None and b is not None:
        image.append((min(a, b), max(a, b)))
    return tuple(sorted(image)), 1.0


def dense_reference(k, n, couplings, q):
    """Reference builder: the graphical rules applied per diagram and bond,
    summed entry by entry into a dense array (an image outside the basis
    raises KeyError)."""
    basis = walk_basis(k, n)
    index = {arcs: i for i, arcs in enumerate(basis)}
    a = np.zeros((len(basis), len(basis)))
    for col, alpha in enumerate(basis):
        for x in range(1, k):
            term = rule_image(alpha, x, q)
            if term is not None:
                a[index[term[0]], col] += -2.0 * couplings[x - 1] * term[1]
    return basis, a


def tl_operator(k, couplings, q):
    """H = -2 sum_x J_x U_x on (C^2)^k, U_x = -xi xi^T / q on sites x, x+1,
    xi = q|+-> - |-+> (local state 0 = |+>)."""
    xi = np.array([0.0, q, -1.0, 0.0])
    u_local = -np.outer(xi, xi) / q
    shape = HilbertShape([HalfInt(1)] * k)
    return _local_sum(shape, [((x - 1, x), -2.0 * couplings[x - 1] * u_local)
                              for x in range(1, k)])


@st.composite
def tl_inputs(draw):
    k = draw(st.integers(2, 12))
    n = draw(st.integers(0, k // 2))
    q = draw(st.floats(0.05, 1.0))
    js = draw(st.lists(st.floats(0.0, 2.0, exclude_min=True),
                       min_size=k - 1, max_size=k - 1))
    return k, n, q, js


class TestSparseBuilder:
    """The index-based CSR builder against the operator it represents and
    against the per-diagram dense loop of the graphical rules."""

    @settings(max_examples=30, database=None, deadline=None)
    @given(tl_inputs())
    def test_represents_the_operator(self, inputs):
        """H V = V A: V has the expanded basis diagrams as columns.

        Subnormal products round in absolute steps of the smallest
        subnormal, one per product, and each entry sums at most k of them
        on either side; the bound adds that floor to the relative one."""
        k, n, q, js = inputs
        tl = tl_hamiltonian_matrix(k, n, js, q)
        v = np.column_stack([expand_diagram_to_tensor(k, arcs, q)
                             for arcs in enumerate_arc_diagrams(k, n)])
        hv, va = tl_operator(k, js, q) @ v, v @ tl.A
        floor = 4 * k * np.finfo(float).smallest_subnormal
        assert np.abs(hv - va).max() <= 1e-12 * max(np.abs(hv).max(), np.abs(va).max()) + floor

    @settings(max_examples=30, database=None, deadline=None)
    @given(tl_inputs())
    def test_matches_dense_reference(self, inputs):
        k, n, q, js = inputs
        basis, a = dense_reference(k, n, js, q)
        tl = tl_hamiltonian_matrix(k, n, js, q)
        assert enumerate_arc_diagrams(k, n) == basis
        assert (csv_text(BASIS_HEADER, tl_basis_csv_rows(tl))
                == csv_text(BASIS_HEADER, basis_csv_tuples(basis)))
        assert tl.A.tobytes() == a.tobytes()
        assert tl.matrix.has_canonical_format
        assert tl.matrix.nnz == np.count_nonzero(a)

    @pytest.mark.parametrize("k,n", [(32, 1), (40, 2), (64, 1)])
    def test_long_chains_match_dense_reference(self, k, n):
        # codes need more than 64 bits beyond k = 31, closer masks beyond 63
        rng = np.random.default_rng(k)
        js = list(2.0 * (1.0 - rng.random(k - 1)))
        basis, a = dense_reference(k, n, js, 0.5)
        tl = tl_hamiltonian_matrix(k, n, js, 0.5)
        assert tl.dim == len(basis) == comb(k, n) - comb(k, n - 1)
        assert (csv_text(BASIS_HEADER, tl_basis_csv_rows(tl))
                == csv_text(BASIS_HEADER, basis_csv_tuples(basis)))
        assert tl.A.tobytes() == a.tobytes()

    def test_long_chain_basis_matches_brute_force(self):
        assert set(enumerate_arc_diagrams(33, 1)) == brute_force_diagrams(33, 1)

    def test_image_outside_basis_raises(self):
        partners = tlmod._diagram_basis(6, 2)
        with pytest.raises(AssertionError, match="outside the basis"):
            tlmod._tl_csr(partners[:-1], (1.0,) * 5, 1.0)

    @pytest.mark.parametrize("k,n", [(10, 3), (11, 3)])
    def test_perron_same_bits_on_every_input_form(self, k, n):
        tl = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1), 0.5)
        runs = [perron_ground_vector(tl), perron_ground_vector(tl.matrix)]
        runs += [perron_ground_vector(form) for form in non_canonical_forms(tl.matrix)]
        assert "A" not in vars(tl)  # no dense copy on the sparse pipeline
        runs.append(perron_ground_vector(tl.A))
        assert len({(r.eigenvalue, r.gap, r.bracket, r.vector.tobytes()) for r in runs}) == 1


class TestDiagramSectorEnergies:
    """Spin-1/2 chain sectors from the diagram bases against the SU(2)
    penalty route on the 2^L product space."""

    @settings(max_examples=30, database=None, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda L: st.lists(
        st.floats(2e-8, 2.0), min_size=L - 1, max_size=L - 1)))
    def test_matches_the_su2_route(self, js):
        chain = ChainSpec([HalfInt(1)] * (len(js) + 1), js)
        report = tlmod.diagram_sector_energies(js)
        ref = sector_energies(build_normalized_chain(chain))
        assert {s: e.dimension for s, e in report.entries.items()} == sector_labels(chain.shape)
        for s, e in ref.entries.items():
            got = report.entries[s]
            for a, b in ((got.min_energy, e.min_energy), (got.max_energy, e.max_energy)):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
            lo, hi = got.bracket
            assert lo <= got.min_energy <= hi
            assert e.bracket is None

    def test_root_far_below_the_norm_is_certified(self):
        # couplings spanning 1e7 put the S = 3/2 root at 1.2e-7, far below
        # ||A||_inf; the solver returns it only to about eps ||A||_inf, which
        # a slack in ulps of the root itself refused
        js = [5.960464477539063e-08, 0.25, 0.6142023984502939, 5.960464477539063e-08]
        report = tlmod.diagram_sector_energies(js)
        for s, e in report.entries.items():
            a = tl_hamiltonian_matrix(len(js) + 1, (len(js) + 1 - s.twice) // 2, js, 1.0)
            lo, hi = e.bracket
            assert lo <= e.min_energy <= hi
            assert hi - lo <= 1e-9 * max(1.0, abs(a.matrix).sum(axis=1).max())
        assert report.entries[HalfInt(3)].bracket[0] == pytest.approx(1.192e-7, rel=1e-3)

    def test_one_site(self):
        report = tlmod.diagram_sector_energies([])
        assert report.entries == {HalfInt(1): SectorEntry(0.0, 0.0, 1, (0.0, 0.0))}

    @pytest.mark.parametrize("L", [11, 13])
    def test_top_start_vector_sees_mirror_odd_tops(self, L, monkeypatch):
        # uniform couplings read the same backwards: with L and n odd the top
        # eigenvector of A is odd under the mirror, so ones are orthogonal
        # to it, but not to the positive bottom vector of -DAD (n = 3 ... 5
        # and 3 ... 6 reach Arnoldi at 11 and 13 sites); the top solve is the
        # one on -DAD, whose diagonal is negative
        real, starts = tlmod.sla.eigs, []

        def eigs(a, k, which, **kw):
            if a.diagonal().max() < 0:
                starts.append((a, kw["v0"]))
            return real(a, k=k, which=which, **kw)

        monkeypatch.setattr(tlmod.sla, "eigs", eigs)
        tlmod.diagram_sector_energies([1.0] * (L - 1))
        assert len(starts) == {11: 3, 13: 4}[L]
        for a, v0 in starts:
            assert np.array_equal(v0, np.ones(a.shape[0]))
            w, vecs = np.linalg.eig(a.toarray())
            bottom = vecs[:, np.argmin(w.real)].real
            assert np.all(bottom * np.sign(bottom[0]) > 0)

    @pytest.mark.parametrize("L,solver", [(8, "eig"), (13, "eigs")])
    def test_perturbed_top_vector_raises(self, L, solver, monkeypatch):
        # 8 sites: every basis below PERRON_SPARSE_MIN_DIM (dense eig);
        # 13 sites: n = 3 ... 6 (208 ... 572 diagrams) take Arnoldi
        real = {"eig": np.linalg.eig, "eigs": tlmod.sla.eigs}[solver]

        def perturbed(w, v):
            bottom = np.argmin(w.real)
            v = v.copy()
            v[0, bottom] += 1e-6 * np.abs(v[:, bottom]).max()
            return w, v

        # the top solve is the one on -DAD, whose diagonal is negative
        def eig(a):
            return perturbed(*real(a)) if np.diag(a).max() < 0 else real(a)

        def eigs(a, k, which, **kw):
            w, v = real(a, k=k, which=which, **kw)
            return perturbed(w, v) if a.diagonal().max() < 0 else (w, v)

        target = tlmod.np.linalg if solver == "eig" else tlmod.sla
        monkeypatch.setattr(target, solver, {"eig": eig, "eigs": eigs}[solver])
        with pytest.raises(NumericalError, match="top pair residual"):
            tlmod.diagram_sector_energies([1.0] * (L - 1))


@settings(max_examples=40, database=None, deadline=None)
@given(st.integers(1, 14).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, k // 2), st.floats(0.0, 2.0, exclude_min=True),
    st.lists(st.floats(0.0, 2.0, exclude_min=True), min_size=k - 1, max_size=k - 1))))
def test_sign_flip_gives_a_perron_matrix_and_the_top(inputs):
    """-DAD, D = diag((-1)^(arcs opening at an odd vertex)), has no positive
    off-diagonal entry at any q, and minus its bottom eigenvalue is the top
    of A."""
    k, n, q, js = inputs
    tl = tl_hamiltonian_matrix(k, n, js, q)
    d = np.array([(-1.0) ** sum(x % 2 for x, _ in arcs)
                  for arcs in enumerate_arc_diagrams(k, n)])
    flipped = -(d[:, None] * tl.A * d[None, :])
    assert flipped[~np.eye(tl.dim, dtype=bool)].max(initial=0.0) <= 0.0
    # below q ~ 1e-150 the squared entries overflow the residual norm
    if tl.dim < 100 and q >= 1e-100:
        top = np.linalg.eigvals(tl.A).real.max()
        scale = max(1.0, np.abs(tl.A).sum(axis=1).max())
        assert abs(tlmod._top_eigenvalue(tl, -np.inf) - top) <= 1e-10 * scale


def test_diagram_basis_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "[[ 8. -4. -2.  0. -2.]" in out  # the dense view of the (5,2) matrix
    assert "largest off-diagonal entry: 0 (never positive)" in out
    assert "max prefix violation 0)" in out


class TestMinSpecComparison:
    def test_equal_matrices(self):
        a = np.array([[1.0, -0.5], [-0.5, 2.0]])
        v = min_spec_comparison(a, a)
        assert v.hypotheses_ok and v.inequality_ok
        assert v.strict_condition == ""

    def test_strict_via_outer_entry(self):
        a = np.zeros((1, 1))
        b = np.array([[0.0, -1.0], [-1.0, 0.0]])
        v = min_spec_comparison(a, b)
        assert v.hypotheses_ok and v.inequality_ok
        assert np.isclose(v.inf_b, -1.0)
        assert v.strict_condition == "ii" and v.strict_ok

    def test_strict_via_block_entry(self):
        a = np.array([[0.0, -0.1], [-0.1, 0.0]])
        b = np.array([[0.0, -0.5], [-0.5, 0.0]])
        v = min_spec_comparison(a, b)
        assert v.strict_condition == "i" and v.strict_ok

    def test_hypothesis_violation_reported(self):
        a = np.zeros((1, 1))
        b = np.array([[0.0, 0.5], [0.5, 0.0]])
        v = min_spec_comparison(a, b)
        assert not v.hypotheses_ok and "positive off-diagonal" in v.reason

    @pytest.mark.parametrize("seed", [3, 4])
    def test_randomized_spectral_radius_lemma(self, seed):
        # nonnegative entrywise dominance implies spectral-radius dominance
        rng = np.random.default_rng(seed)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            b = rng.random((m, m))
            a = b * rng.random((m, m))  # 0 <= a <= b entrywise
            ra = np.max(np.abs(np.linalg.eigvals(a)))
            rb = np.max(np.abs(np.linalg.eigvals(b)))
            assert ra <= rb + 1e-10


class TestConsequenceChain:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_sector_energy_decreases_with_growth(self, k):
        """Dominance + comparison theorem force E(H_{k+1}, S+1/2) <= E(H_k, S),
        and both infima match the sector energies computed independently."""
        rng = np.random.default_rng(100 + k)
        js = 2.0 * (1.0 - rng.random(k))
        h_k = build_normalized_chain(ChainSpec([HalfInt(1)] * k, js[: k - 1]))
        h_k1 = build_normalized_chain(ChainSpec([HalfInt(1)] * (k + 1), js))
        rep_k = sector_energies(h_k)
        rep_k1 = sector_energies(h_k1)
        for n in range(0, k // 2 + 1):
            a = tl_hamiltonian_matrix(k, n, js[: k - 1])
            b = tl_hamiltonian_matrix(k + 1, n, js)
            v = min_spec_comparison(a, b)
            assert v.hypotheses_ok and v.inequality_ok
            e_k = rep_k.entries[HalfInt(k - 2 * n)].min_energy
            e_k1 = rep_k1.entries[HalfInt(k + 1 - 2 * n)].min_energy
            assert abs(v.inf_a - e_k) <= 1e-9
            assert abs(v.inf_b - e_k1) <= 1e-9
            assert e_k1 <= e_k + 1e-9


class TestQDeformedSpectra:
    @pytest.mark.parametrize("q", [0.3, 0.7])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_tl_matrix_matches_xxz_sector_spectrum(self, k, q):
        """With couplings 1/(2(q + 1/q)) the diagram matrix carries exactly
        the deformed chain's sector spectrum."""
        from foelab.qgroup import QParam

        qp = QParam(q)
        shape = HilbertShape([HalfInt(1)] * k)
        h = build_xxz_chain(k, qp.delta)
        gen = suq2_generators(k, qp)
        blocks = s3_blocks(shape)
        j = 1.0 / (2.0 * (q + 1.0 / q))
        for n in range(0, k // 2 + 1):
            S = HalfInt(k - 2 * n)
            cols = blocks[S]
            rows = blocks.get(S + HalfInt(2), np.zeros(0, dtype=int))
            kern = kernel_basis(gen.sqplus[rows][:, cols])
            hb = h.matrix.tocsr()[cols][:, cols].toarray()
            hs = kern.T @ hb @ kern
            w_sector = np.sort(np.linalg.eigvalsh(0.5 * (hs + hs.T)))
            tl = tl_hamiltonian_matrix(k, n, [j] * (k - 1), q)
            w_tl = np.sort(np.linalg.eigvals(tl.A).real)
            assert np.abs(w_sector - w_tl).max() <= 1e-9


def su2_raising(k):
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = np.zeros((2 ** k, 2 ** k))
    for x in range(k):
        out += np.kron(np.kron(np.eye(2 ** x), sp), np.eye(2 ** (k - 1 - x)))
    return out


class TestExpansion:
    def test_singlet(self):
        v = expand_diagram_to_tensor(2, ((1, 2),), q=1.0)
        assert np.array_equal(v, [0.0, 1.0, -1.0, 0.0])

    def test_single_vertex(self):
        v = expand_diagram_to_tensor(1, (), q=1.0)
        assert np.array_equal(v, [1.0, 0.0])

    def test_gram_nonsingular(self):
        basis = enumerate_arc_diagrams(5, 2)
        v = np.column_stack([expand_diagram_to_tensor(5, arcs) for arcs in basis])
        gram = v.T @ v
        assert np.linalg.matrix_rank(gram) == 5

    @pytest.mark.parametrize("k,n", [(3, 1), (4, 2), (5, 2), (6, 3)])
    def test_annihilated_by_raising(self, k, n):
        sp = su2_raising(k)
        for arcs in enumerate_arc_diagrams(k, n):
            assert np.abs(sp @ expand_diagram_to_tensor(k, arcs)).max() <= 1e-10

    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_annihilated_by_q_raising(self, q):
        from foelab.qgroup import QParam

        k = 5
        gen = suq2_generators(k, QParam(q))
        for n in range(0, 3):
            for arcs in enumerate_arc_diagrams(k, n):
                v = expand_diagram_to_tensor(k, arcs, q)
                assert np.abs(gen.sqplus @ v).max() <= 1e-10

    def test_rejects_arcs_that_are_not_disjoint_pairs(self):
        # a repeated vertex would otherwise give a wrong vector silently
        for arcs in [((1, 2), (2, 3)), ((1, 1),), ((2, 1),), ((0, 2),), ((1, 4),)]:
            with pytest.raises(ValueError, match="disjoint pairs"):
                expand_diagram_to_tensor(3, arcs)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_tl_relations_on_operators(self, k):
        # U^2 = -2U and U_x U_{x+-1} U_x = U_x at q = 1
        xi = np.array([0.0, 1.0, -1.0, 0.0])
        u_local = -np.outer(xi, xi)
        ops = []
        for x in range(1, k):
            left, right = 2 ** (x - 1), 2 ** (k - x - 1)
            ops.append(np.kron(np.kron(np.eye(left), u_local), np.eye(right)))
        for u in ops:
            assert np.abs(u @ u + 2 * u).max() <= 1e-10
        for u, w in zip(ops, ops[1:]):
            assert np.abs(u @ w @ u - u).max() <= 1e-10
            assert np.abs(w @ u @ w - w).max() <= 1e-10


def fk_matrix(spins, couplings, S):
    """The fk-basis command's sequence: the basis, then its matrix."""
    return fk_hamiltonian_matrix(spins, couplings, fk_highest_weight_basis(spins, S))


def dense_columns(basis):
    return np.column_stack([b.expanded.toarray().ravel() for b in basis])


@st.composite
def fk_chains(draw):
    """Random chain of twice-spins 1-5 with sum(2s) <= 14, random couplings."""
    twice = [draw(st.integers(1, 5))]
    while len(twice) < 2 or draw(st.booleans()):
        t = draw(st.integers(1, 5))
        if sum(twice) + t > 14:
            break
        twice.append(t)
    if len(twice) < 2:
        twice = [1, 1]
    js = draw(st.lists(st.floats(0.1, 2.0), min_size=len(twice) - 1, max_size=len(twice) - 1))
    return [HalfInt(t) for t in twice], js


class TestFKBasis:
    def test_spin_half_reduces_to_diagrams(self):
        spins = [HalfInt(1)] * 5
        basis = fk_highest_weight_basis(spins, HalfInt(1))
        diagrams = enumerate_arc_diagrams(5, 2)
        assert len(basis) == len(diagrams)
        for vec, arcs in zip(basis, diagrams):
            assert vec.arcs == arcs
            assert np.abs(vec.expanded.toarray().ravel()
                          - expand_diagram_to_tensor(5, arcs)).max() <= 1e-12

    def test_two_spin_ones(self):
        basis = fk_highest_weight_basis([HalfInt(2)] * 2, HalfInt(2))
        assert len(basis) == 1
        assert [b.n_down for b in basis[0].blocks] == [0, 1]

    def test_three_spin_ones_s2(self):
        basis = fk_highest_weight_basis([HalfInt(2)] * 3, HalfInt(4))
        assert len(basis) == 2

    @pytest.mark.parametrize(
        "spins", [(2, 2), (2, 2, 2), (1, 2, 1), (3, 1, 2), (2, 1, 1, 2)]
    )
    def test_counts_and_highest_weight(self, spins):
        spins = [HalfInt(t) for t in spins]
        shape = HilbertShape(spins)
        splus = total_splus(shape)
        for S, dim in sector_labels(shape).items():
            basis = fk_highest_weight_basis(spins, S)
            assert len(basis) == dim
            if basis:
                v = dense_columns(basis)
                assert np.abs(splus @ v).max() <= 1e-10
                assert np.abs(total_s3(shape) @ v - S.value * v).max() <= 1e-10
                assert np.linalg.matrix_rank(v.T @ v) == dim

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            fk_highest_weight_basis([HalfInt(2)] * 2, HalfInt(3))

    def test_absent_label_has_an_empty_basis(self):
        # spins 5/2 and 1/2 couple to S = 3 and 2 only
        assert fk_highest_weight_basis([HalfInt(5), HalfInt(1)], HalfInt(2)) == []

    @pytest.mark.parametrize("spins, S2", [((1,) * 11, 3), ((2,) * 8, 4), ((4,) * 6, 2)])
    def test_memory_estimate_bounds_the_traced_peak(self, spins, S2):
        # the basis, then its matrix: the fk-basis command's sequence (peaks
        # 2.2 to 9.6 MB), against FK_BYTES_PER_BASIS_ENTRY per entry of the
        # basis held densely on the M = S block
        spins, S = [HalfInt(t) for t in spins], HalfInt(S2)
        labels = sector_labels(HilbertShape(spins))
        block = sum(d for label, d in labels.items() if label >= S)
        tracemalloc.start()
        try:
            fk_matrix(spins, [1.0] * (len(spins) - 1), S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tlmod.FK_BYTES_PER_BASIS_ENTRY * block * labels[S]

    def test_memory_guard_before_the_expansion(self, monkeypatch):
        # 12 spin-1/2 sites at S = 1: 297 vectors on the 792-state M = 1
        # block, 48 B per entry
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        monkeypatch.setattr(tlmod, "_fk_expansions", None)
        with pytest.raises(NumericalError, match="the S=1 basis on the 792-state M=1 "
                                                 "block needs an estimated 11 MB"):
            fk_highest_weight_basis([HalfInt(1)] * 12, HalfInt(2))

    def test_large_spins_need_no_arrow_space(self):
        # two spin-7 sites at S = 2: 12 arcs, 2^28 arrow states, but one
        # vector on the 13-state M = 2 block
        basis = fk_highest_weight_basis([HalfInt(14)] * 2, HalfInt(4))
        assert len(basis) == 1 and basis[0].expanded.nnz == 13
        assert fk_hamiltonian_matrix([HalfInt(14)] * 2, [1.0], basis).shape == (1, 1)

    def test_product_indices_past_int64_refused(self):
        # 64 spin-1/2 sites, S = 31: a two-vector basis, but 2^64 product states
        with pytest.raises(NumericalError, match="pass int64 indices"):
            fk_highest_weight_basis([HalfInt(1)] * 64, HalfInt(62))


class TestFKMatrix:
    def test_two_halves_matches_tl(self):
        a = fk_matrix([HalfInt(1)] * 2, [1.0], HalfInt(0))
        assert np.allclose(a, [[4.0]])

    def test_two_ones(self):
        a = fk_matrix([HalfInt(2)] * 2, [1.0], HalfInt(2))
        assert np.allclose(a, [[2.0]], atol=1e-12)

    @pytest.mark.parametrize("spins", [(2, 2), (2, 2, 2), (3, 1, 2)])
    def test_spectrum_matches_sector(self, spins):
        spins = [HalfInt(t) for t in spins]
        rng = np.random.default_rng(sum(s.twice for s in spins))
        js = 2.0 * (1.0 - rng.random(len(spins) - 1))
        shape = HilbertShape(spins)
        h = build_normalized_chain(ChainSpec(spins, js))
        rep = sector_energies(h)
        for S in sector_labels(shape):
            a = fk_matrix(spins, js, S)
            w = np.sort(np.linalg.eigvals(a).real)
            assert np.isclose(w[0], rep.entries[S].min_energy, atol=1e-9)
            assert np.isclose(w[-1], rep.entries[S].max_energy, atol=1e-9)

    def test_off_diagonal_sign_audit_three_ones(self):
        spins = [HalfInt(2)] * 3
        for S in sector_labels(HilbertShape(spins)):
            a = fk_matrix(spins, [1.0, 1.0], S)
            off = a - np.diag(np.diag(a))
            assert off.max() <= 1e-10

    def test_residual_reads_the_shared_tolerance(self, monkeypatch):
        # a zero bound refuses every basis as not spanning an invariant space
        assert tlmod.RESIDUAL_TOL is linalg.RESIDUAL_TOL
        monkeypatch.setattr(tlmod, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match=r"\|\|H V - V A\|\| = "):
            fk_matrix([HalfInt(2)] * 3, [1.0, 0.5], HalfInt(0))

    def test_ill_conditioned_gram_refused(self, monkeypatch):
        monkeypatch.setattr(tlmod, "FK_GRAM_COND_LIMIT", 1e-1)
        with pytest.raises(NumericalError, match="condition"):
            fk_matrix([HalfInt(1)] * 4, [1.0] * 3, HalfInt(0))

    @settings(max_examples=25, database=None, deadline=None)
    @given(fk_chains())
    def test_matches_the_arrow_space_oracle(self, chain):
        spins, js = chain
        report = sector_energies(build_normalized_chain(ChainSpec(spins, js)))
        for S in sector_labels(HilbertShape(spins)):
            basis = fk_highest_weight_basis(spins, S)
            found, v = fk_arrow_basis(spins, S)
            assert [b.arcs for b in basis] == [arcs for arcs, _ in found]
            assert [tuple(x.n_down for x in b.blocks) for b in basis] == [nd for _, nd in found]
            assert np.abs(dense_columns(basis) - v).max() <= 1e-14
            a, ref = fk_hamiltonian_matrix(spins, js, basis), fk_gram_matrix(spins, js, v)
            # the Gram solve's own error grows like cond(V^T V) = cond(R)^2
            cond = np.linalg.cond(v)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(a - ref).max() <= 100 * np.finfo(float).eps * cond ** 2 * scale
            w = np.linalg.eigvals(a).real
            entry = report.entries[S]
            tol = 1e-9 * max(1.0, abs(entry.max_energy))
            assert abs(w.min() - entry.min_energy) <= tol
            assert abs(w.max() - entry.max_energy) <= tol

    @pytest.mark.parametrize("spins, S2", [((2, 2, 2), 2), ((1,) * 6, 2), ((3, 1, 2), 2)])
    def test_a_wrong_coefficient_is_refused(self, spins, S2):
        # one coefficient with its sign flipped: the span is no longer
        # H-invariant, and the residual check refuses it
        spins = [HalfInt(t) for t in spins]
        basis = fk_highest_weight_basis(spins, HalfInt(S2))
        fk_hamiltonian_matrix(spins, [1.0] * (len(spins) - 1), basis)
        vec = basis[len(basis) // 2]
        flipped = vec.expanded.copy()
        flipped.data[0] = -flipped.data[0]
        basis[len(basis) // 2] = dataclasses.replace(vec, expanded=flipped)
        with pytest.raises(NumericalError, match="does not span an H-invariant space"):
            fk_hamiltonian_matrix(spins, [1.0] * (len(spins) - 1), basis)
