import runpy
import sys
import tracemalloc
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from hypothesis import given, note, settings
from hypothesis import strategies as st
from reference import (build_xxz_chain, casimir_sector_energies, fancy_block,
                       highest_weight_space, penalized_sector_spectra, raising_slice,
                       s3_blocks, spectrum_by_s3_blocks, total_s3, total_splus)

import foelab.linalg as linalg
import foelab.sectors as sectors
from foelab.errors import NonInvariantOperatorError, NumericalError
from foelab.hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    random_chain,
)
from foelab.linalg import max_abs
from foelab.sectors import (
    SectorEntry,
    SectorReport,
    _sector_bands,
    check_foel,
    check_max_ordering,
    full_spectrum_by_s3,
    low_energy_by_deviation,
    sector_energies,
    sector_labels,
)
from foelab.spinops import (
    HalfInt,
    HilbertShape,
    LocalHamiltonian,
    _local_sum,
    _s3_block,
    spin_matrices,
)

TWO_HALVES = HilbertShape([HalfInt(1), HalfInt(1)])
DEMOS = Path(__file__).resolve().parent.parent / "demos"
DENSE, SPARSE = 10 ** 9, 0  # SECTOR_SPARSE_MIN_DIM values forcing one route


def forced_route(min_dim):
    return mock.patch.object(sectors, "SECTOR_SPARSE_MIN_DIM", min_dim)


def report_from(mins):
    entries = {
        HalfInt.coerce(s): SectorEntry(e, e, 1) for s, e in mins.items()
    }
    return SectorReport(entries=entries)


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blocks(shape, *Ms):
    return [_s3_block(shape, M) for M in Ms]


class TestS3Blocks:
    """``spinops._s3_block`` against the argsort of every product state's
    S^3 (``reference.s3_blocks``)."""

    def test_two_halves(self):
        assert _s3_block(TWO_HALVES, HalfInt(2)).tolist() == [0]
        assert _s3_block(TWO_HALVES, HalfInt(0)).tolist() == [1, 2]
        assert _s3_block(TWO_HALVES, HalfInt(-2)).tolist() == [3]

    def test_single_spin_one(self):
        shape = HilbertShape([HalfInt(2)])
        assert [_s3_block(shape, HalfInt(t)).tolist() for t in (2, 0, -2)] == [[0], [1], [2]]

    def test_three_halves_binomials(self):
        shape = HilbertShape([HalfInt(1)] * 3)
        assert [len(_s3_block(shape, HalfInt(t))) for t in (3, 1, -1, -3)] == [1, 3, 3, 1]

    @settings(max_examples=200, deadline=None, database=None)
    @given(twice=st.lists(st.integers(0, 5), max_size=8))
    def test_matches_the_argsort(self, twice):
        # every M from past the top to past the bottom, both parities: an M
        # with no state, M > S_max included, gives an empty block
        shape = HilbertShape([HalfInt(t) for t in twice])
        oracle = s3_blocks(shape)
        top = shape.s_max.twice
        for t in range(top + 3, -top - 4, -1):
            block = _s3_block(shape, HalfInt(t))
            assert block.dtype == np.int64
            assert np.array_equal(block, oracle.get(HalfInt(t), np.zeros(0, dtype=np.int64)))

    def test_product_indices_past_int64_refused(self):
        with pytest.raises(NumericalError, match="pass int64"):
            _s3_block(HilbertShape([HalfInt(1)] * 64), HalfInt(0))

    @pytest.mark.parametrize("twice", [(1,) * 18, (2,) * 11, (1, 2, 3, 4) * 3])
    def test_memory_estimate_bounds_the_traced_peak(self, twice):
        # the estimates checked before a block is enumerated cover the
        # enumeration: the dense route's for its M* block and the one above,
        # the sparse route's for the S, S + 1 and S + 2 blocks (M* = 0 or
        # 1/2: the largest blocks)
        shape = HilbertShape([HalfInt(t) for t in twice])
        labels = sector_labels(shape)
        S = min(labels)
        m = sectors._block_size(labels, S)
        assert m == len(s3_blocks(shape)[S])
        dense = sectors.DENSE_BLOCK_ARRAYS * 8 * m ** 2
        assert traced_peak(blocks, shape, S, S + HalfInt(2)) <= dense
        terms = build_normalized_chain(ChainSpec(shape.spins, [1.0] * (len(twice) - 1))).terms
        up = sectors._block_size(labels, S + HalfInt(2))
        sparse = (sectors.SPARSE_BYTES_PER_ENTRY
                  * (sectors._entry_bound(terms, m)
                     + sectors._entry_bound(sectors._raising_terms(shape), m + up))
                  + sectors.LANCZOS_VECTORS * 8 * m)
        assert traced_peak(blocks, shape, S, S + HalfInt(2), S + HalfInt(4)) <= sparse

    def test_memory_guard_before_the_partition(self, monkeypatch):
        # the largest sparse block is refused before any block is enumerated
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        monkeypatch.setattr(sectors, "_s3_block", None)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 16, [1.0] * 15))
        with pytest.raises(NumericalError, match="the sparse S=0 block of dimension 12870 "
                                                 "needs an estimated"):
            sector_energies(h)


class TestHighestWeightSpace:
    def test_top_sector_is_polarized(self):
        v = highest_weight_space(TWO_HALVES, HalfInt(2))[:, 0]
        assert np.allclose(np.abs(v), [1, 0, 0, 0])

    def test_singlet(self):
        v = highest_weight_space(TWO_HALVES, HalfInt(0))[:, 0]
        assert np.allclose(np.abs(v), [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        assert np.isclose(v[1], -v[2])

    def test_five_halves_dimension(self):
        shape = HilbertShape([HalfInt(1)] * 5)
        v = highest_weight_space(shape, HalfInt(1))
        assert v.shape[1] == 5  # C(5,2) - C(5,1)

    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1), (2, 2, 2), (3, 1, 1)])
    def test_vectors_are_highest_weight(self, spins):
        shape = HilbertShape([HalfInt(t) for t in spins])
        splus = total_splus(shape)
        for S, dim in sector_labels(shape).items():
            v = highest_weight_space(shape, S, splus)
            assert v.shape[1] == dim
            assert np.abs(splus @ v).max() <= 1e-10
            assert np.abs(total_s3(shape) @ v - S.value * v).max() <= 1e-10

    def test_missing_label_raises(self):
        with pytest.raises(ValueError):
            highest_weight_space(TWO_HALVES, HalfInt(4))


class TestSectorEnergies:
    def test_normalized_two_site(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        rep = sector_energies(h)
        assert np.isclose(rep.entries[HalfInt(2)].min_energy, 0.0)
        assert np.isclose(rep.entries[HalfInt(0)].min_energy, 4.0)
        assert check_foel(rep).ok

    def test_spin1_quartic_point(self):
        rep = sector_energies(build_spin1_beta_chain(2, 1.0 / 3.0))
        mins = {s.twice: e.min_energy for s, e in rep.entries.items()}
        assert np.isclose(mins[4], 0.0, atol=1e-12)
        assert np.isclose(mins[2], 2.0, atol=1e-12)
        assert np.isclose(mins[0], 2.0, atol=1e-12)
        assert not check_foel(rep).ok  # degenerate pair flags a crossing

    def test_zero_operator(self):
        h = LocalHamiltonian(TWO_HALVES, [])
        rep = sector_energies(h)
        assert all(e.min_energy == 0.0 and e.max_energy == 0.0
                   for e in rep.entries.values())

    def test_dimension_sum_rule(self):
        for spins in [(1, 1, 1), (2, 2), (3, 1, 2), (2, 1, 1, 2)]:
            shape = HilbertShape([HalfInt(t) for t in spins])
            labels = sector_labels(shape)
            assert sum((s.twice + 1) * d for s, d in labels.items()) == shape.dim

    def test_rejects_non_invariant(self):
        h = build_xxz_chain(3, 1.5)
        with pytest.raises(NonInvariantOperatorError):
            sector_energies(h)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_casimir_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=5, max_dim=400)
        h = build_normalized_chain(chain)
        rep = sector_energies(h)
        oracle = casimir_sector_energies(h, chain.shape)
        assert set(rep.entries) == set(oracle.entries)
        for s in rep.entries:
            assert np.isclose(rep.entries[s].min_energy,
                              oracle.entries[s].min_energy, atol=1e-9)
            assert np.isclose(rep.entries[s].max_energy,
                              oracle.entries[s].max_energy, atol=1e-9)
            assert rep.entries[s].dimension == oracle.entries[s].dimension

    @pytest.mark.parametrize("seed", [21, 22])
    def test_sector_spectrum_inside_block_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=5, max_dim=500)
        h = build_normalized_chain(chain)
        shape = chain.shape
        blocks = s3_blocks(shape)
        splus = total_splus(shape)
        for S in sector_labels(shape):
            v = highest_weight_space(shape, S, splus, blocks)
            hs = v.T @ (h.matrix @ v)
            w_sector = np.linalg.eigvalsh(0.5 * (hs + hs.T))
            w_block = np.linalg.eigvalsh(h.matrix[blocks[S]][:, blocks[S]].toarray())
            # every sector eigenvalue appears in the block spectrum
            for e in w_sector:
                assert np.min(np.abs(w_block - e)) <= 1e-8


class TestInvarianceAndCounts:
    """The term-by-term invariance check and the label counts."""

    @staticmethod
    def transverse_chain(strength=0.3):
        """Spin-1/2 chain plus a one-site transverse field (S+ + S-)/2 on
        site 1: real, SU(2)-breaking, and not S^3-conserving."""
        chain = ChainSpec([HalfInt(1)] * 3, [1.0, 0.5])
        ops = spin_matrices(HalfInt(1))
        field = ((1,), strength * 0.5 * (ops.splus + ops.sminus))
        return LocalHamiltonian(chain.shape, build_normalized_chain(chain).terms + (field,))

    @pytest.mark.parametrize("solve", [sector_energies, full_spectrum_by_s3,
                                       lambda h: low_energy_by_deviation(h, 0)],
                             ids=["sector_energies", "full_spectrum_by_s3",
                                  "low_energy_by_deviation"])
    def test_transverse_field_breaks_s3(self, solve):
        with pytest.raises(NonInvariantOperatorError, match=r"\[H, S3\]"):
            solve(self.transverse_chain())

    @pytest.mark.parametrize("solve", [full_spectrum_by_s3,
                                       lambda h: low_energy_by_deviation(h, 0)],
                             ids=["full_spectrum_by_s3", "low_energy_by_deviation"])
    def test_su2_breaking_s3_conserving_rejected(self, solve):
        # the XXZ chain conserves S^3 but breaks SU(2)
        with pytest.raises(NonInvariantOperatorError, match=r"\[H, S\+\]"):
            solve(build_xxz_chain(3, 1.5))

    def test_field_below_the_tolerance_is_dropped(self):
        # its images lie off the S^3 blocks, which are assembled without them
        weak, h = self.transverse_chain(1e-13), self.transverse_chain(0.0)
        assert sector_energies(weak) == sector_energies(h)
        for (m, w), (m0, w0) in zip(full_spectrum_by_s3(weak),
                                    full_spectrum_by_s3(h), strict=True):
            assert m == m0 and np.array_equal(w, w0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(twice=st.lists(st.integers(0, 4), max_size=6))
    def test_labels_are_block_size_differences(self, twice):
        shape = HilbertShape([HalfInt(t) for t in twice])
        # the blocks are the pieces of the stable int64 argsort of S_max - M
        key = (shape.s_max.twice - np.rint(2 * shape.total_m()).astype(np.int64)) // 2
        assert np.array_equal(np.concatenate(list(s3_blocks(shape).values())),
                              np.argsort(key, kind="stable"))
        sizes = {m.twice: len(idx) for m, idx in s3_blocks(shape).items()}
        diffs = {HalfInt(tm): n - sizes.get(tm + 2, 0) for tm, n in sizes.items() if tm >= 0}
        expected = {s: d for s, d in diffs.items() if d > 0}
        labels = sector_labels(shape)
        assert labels == expected
        assert list(labels) == sorted(expected, reverse=True)


class TestWrongRaisingOperator:
    """With S+ replaced by zero, the S^3 = 0 block of two spin-1/2 sites has
    a two-dimensional "kernel" where sector_labels says one."""

    @staticmethod
    def raising_terms(factor):
        """The one-site S+ terms times ``factor``, in place of the true ones."""
        return mock.patch.object(sectors, "_raising_terms", lambda shape: [
            ((x,), factor * spin_matrices(s).splus) for x, s in enumerate(shape.spins)])

    def test_svd_route_checks_kernel_dimension(self):
        with pytest.raises(NumericalError):
            highest_weight_space(TWO_HALVES, HalfInt(0), sp.csr_matrix((4, 4)))

    def test_penalty_certificate_fails(self):
        # no penalty: the triplet's run, shifted down by the S = 1 band
        # offset, lands below g_lo
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        with self.raising_terms(0.0), pytest.raises(NumericalError, match="band S=1"):
            _sector_bands(h, sector_labels(TWO_HALVES), HalfInt(0))

    def test_band_dimensions_must_fill_the_block(self):
        # labels that count three states where the block enumerates two
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        _sector_bands(h, sector_labels(TWO_HALVES), HalfInt(0))
        with pytest.raises(NumericalError, match="do not fill"):
            _sector_bands(h, {HalfInt(2): 1, HalfInt(0): 2}, HalfInt(0))

    def assert_raising_certified(self, twice, wrong, min_dim):
        # S+ = 0 gives the singlet no penalty, and every Ritz certificate
        # passed with it; 2 S+ (wrong gap) commutes with H as well
        chain = ChainSpec([HalfInt(t) for t in twice], [1.0, 0.6, 1.4][:len(twice) - 1])
        h = build_normalized_chain(chain)
        with forced_route(min_dim):
            sector_energies(h)  # the true S+ passes
            with self.raising_terms({"zero": 0.0, "double": 2.0}[wrong]), \
                    pytest.raises(NumericalError, match="S\\+"):
                sector_energies(h)

    @pytest.mark.parametrize("twice", [[1, 1], [1, 2, 3, 2]])
    @pytest.mark.parametrize("wrong", ["zero", "double"])
    def test_sparse_route_certifies_raising(self, twice, wrong):
        self.assert_raising_certified(twice, wrong, 2)

    @pytest.mark.parametrize("twice", [[1, 1], [1, 2, 3, 2]])
    @pytest.mark.parametrize("wrong", ["zero", "double"])
    def test_dense_route_certifies_raising(self, twice, wrong):
        # the route forced dense: the banded solve must refuse the wrong S+
        self.assert_raising_certified(twice, wrong, DENSE)


CROSS_ROUTE_MAX_DIM = 512
CROSS_ROUTE_TOL = 1e-10


@st.composite
def mixed_spins(draw, max_sites=9, max_dim=CROSS_ROUTE_MAX_DIM):
    """Twice-spins in {1, 2, 3}, 2 to max_sites sites, total dimension
    <= max_dim."""
    twice, dim = [], 1
    for _ in range(draw(st.integers(2, max_sites))):
        fits = [t for t in (1, 2, 3) if dim * (t + 1) <= max_dim]
        if not fits:
            break
        t = draw(st.sampled_from(fits))
        twice.append(t)
        dim *= t + 1
    return [HalfInt(t) for t in twice]


couplings = st.floats(min_value=0.01, max_value=2.0)


@st.composite
def connected_graphs(draw):
    """Random spanning tree plus up to four extra edges, mixed spins."""
    spins = draw(mixed_spins())
    n = len(spins)
    edges = {(draw(st.integers(0, v - 1)), v): draw(couplings) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 4))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.setdefault((u, v), draw(couplings))
    return SpinGraph(list(enumerate(spins)), [(u, v, j) for (u, v), j in edges.items()])


def assert_routes_agree(h, shape):
    """Dense and sparse penalty routes vs SVD projection vs Casimir oracle,
    every sector."""
    labels = sector_labels(shape)
    oracle = casimir_sector_energies(h, shape).entries
    assert set(oracle) == set(labels)
    splus = total_splus(shape)
    refs = {}
    for S, d in labels.items():
        v = highest_weight_space(shape, S, splus)
        hs = v.T @ (h.matrix @ v)
        w = np.linalg.eigvalsh(0.5 * (hs + hs.T))
        refs[S] = (SectorEntry(float(w[0]), float(w[-1]), v.shape[1]), oracle[S])
    for min_dim in (DENSE, SPARSE):
        with forced_route(min_dim):
            penalty = sector_energies(h).entries
        assert set(penalty) == set(labels)
        for S, d in labels.items():
            for ref in refs[S]:
                assert ref.dimension == penalty[S].dimension == d
                assert abs(penalty[S].min_energy - ref.min_energy) <= CROSS_ROUTE_TOL
                assert abs(penalty[S].max_energy - ref.max_energy) <= CROSS_ROUTE_TOL


class TestCrossRoute:
    @settings(max_examples=30, deadline=None, database=None)
    @given(spins=mixed_spins(), data=st.data())
    def test_random_mixed_chains(self, spins, data):
        js = data.draw(st.lists(couplings, min_size=len(spins) - 1,
                                max_size=len(spins) - 1))
        chain = ChainSpec(spins, js)
        assert_routes_agree(build_normalized_chain(chain), chain.shape)

    @settings(max_examples=30, deadline=None, database=None)
    @given(g=connected_graphs())
    def test_random_connected_graphs(self, g):
        note(f"twice-spins {[s.twice for _, s in g.sites]}, edges {list(g.edges)}")
        assert_routes_agree(build_heisenberg(g), g.shape)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_beta_one_third_crossing_chain(self, L):
        shape = HilbertShape([HalfInt(2)] * L)
        assert_routes_agree(build_spin1_beta_chain(L, 1.0 / 3.0), shape)


@st.composite
def su2_operators(draw):
    """(H, shape): a normalized mixed chain or a Heisenberg graph."""
    if draw(st.booleans()):
        g = draw(connected_graphs())
        return build_heisenberg(g), g.shape
    spins = draw(mixed_spins())
    chain = ChainSpec(spins, draw(st.lists(couplings, min_size=len(spins) - 1,
                                           max_size=len(spins) - 1)))
    return build_normalized_chain(chain), chain.shape


def assert_same_csr_bytes(out, ref):
    assert out.shape == ref.shape
    assert out.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(out.indices, ref.indices)
    assert np.array_equal(out.indptr, ref.indptr)


class TestS3SortedCopy:
    """The S^3 blocks and S+ maps assembled from the terms on the enumerated
    blocks against scipy's indexing of the full matrices by the argsorted
    blocks, bit for bit: the solves see the same numbers as the indexed
    blocks."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(problem=su2_operators())
    def test_same_bytes_as_fancy_indexing(self, problem):
        H, shape = problem
        index, splus = s3_blocks(shape), total_splus(shape)
        for M, idx in index.items():
            states = _s3_block(shape, M)
            assert np.array_equal(states, idx)
            assert_same_csr_bytes(_local_sum(shape, H.terms, states),
                                  fancy_block(H.matrix, idx))
            b = _local_sum(shape, sectors._raising_terms(shape), states,
                           _s3_block(shape, M + HalfInt(2)))
            assert_same_csr_bytes(b, raising_slice(splus, index, M))
        # a one-site field of 1e-13 changes M by one: within the tolerance,
        # and its images drop out of every block
        ops = spin_matrices(shape.spins[0])
        weak = LocalHamiltonian(shape, H.terms + (((0,), 1e-13 * (ops.splus + ops.sminus)),))
        sectors._check_invariance(weak)
        for idx in index.values():
            assert_same_csr_bytes(_local_sum(shape, weak.terms, idx), fancy_block(H.matrix, idx))

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    def test_su2_route_assembles_blocks_only(self, min_dim):
        # every matrix of the SU(2) route is assembled on an S^3 block
        chain = ChainSpec([HalfInt(t) for t in (1, 2, 3, 2, 1)], [1.0, 0.7, 1.3, 0.9])
        real = sectors._local_sum
        # each term's own S^+ (cached per site spins) is built once, here
        sectors._check_invariance(build_normalized_chain(chain))

        def blocks_only(shape, terms, states=None, targets=None):
            assert states is not None, "_local_sum on the whole product space"
            return real(shape, terms, states, targets)

        with forced_route(min_dim), mock.patch.object(sectors, "_local_sum", blocks_only), \
                mock.patch("foelab.spinops._local_sum", blocks_only):
            sector_energies(build_normalized_chain(chain))
            full_spectrum_by_s3(build_normalized_chain(chain))
            # 144 states: the precondition check solves every sector
            low_energy_by_deviation(build_normalized_chain(chain), 0)

    def test_dense_route_indexes_no_sparse_block(self):
        # every block of this 144-state chain takes the dense route
        chain = ChainSpec([HalfInt(t) for t in (1, 2, 3, 2, 1)], [1.0, 0.7, 1.3, 0.9])
        callers = []

        def spy(real):
            def getitem(self, key):
                callers.append(Path(sys._getframe(1).f_code.co_filename).name)
                return real(self, key)
            return getitem

        with ExitStack() as stack:
            for cls in (sp.csr_matrix, sp.csc_matrix):
                stack.enter_context(mock.patch.object(cls, "__getitem__",
                                                      spy(cls.__getitem__)))
            sector_energies(build_normalized_chain(chain))
        assert callers == []


class TestBandedSolve:
    """One eigvalsh on the lowest dense block against one penalized solve
    per sector on its own block (``reference.penalized_sector_spectra``)."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(problem=su2_operators())
    def test_matches_per_sector_solves(self, problem):
        H, shape = problem
        oracle = penalized_sector_spectra(H)
        labels = sector_labels(shape)
        bands = _sector_bands(H, labels, min(labels))
        with forced_route(DENSE):
            report = sector_energies(H).entries
        assert set(bands) == set(report) == set(oracle)
        for S, w in oracle.items():
            assert bands[S].shape == w.shape
            assert np.max(np.abs(bands[S] - w)) <= CROSS_ROUTE_TOL
            assert abs(report[S].min_energy - w[0]) <= CROSS_ROUTE_TOL
            assert abs(report[S].max_energy - w[-1]) <= CROSS_ROUTE_TOL
        # every sector at full depth: each level with multiplicity 2S + 1
        every = np.sort(np.concatenate([np.repeat(w, S.twice + 1)
                                        for S, w in oracle.items()]))
        low = low_energy_by_deviation(H, len(labels) - 1)
        assert low.shape == every.shape
        assert np.max(np.abs(low - every)) <= CROSS_ROUTE_TOL


REAL_EIGSH = sla.eigsh


class TestSparseRoute:
    """The Lanczos route against the dense one beyond the Casimir oracle's
    reach, and its certificates."""

    @settings(max_examples=10, deadline=None, database=None)
    @given(spins=mixed_spins(max_sites=12, max_dim=4096), data=st.data())
    def test_matches_dense_on_larger_chains(self, spins, data):
        chain = ChainSpec(spins, data.draw(st.lists(couplings, min_size=len(spins) - 1,
                                                    max_size=len(spins) - 1)))
        h = build_normalized_chain(chain)
        with forced_route(DENSE):
            dense = sector_energies(h).entries
        with forced_route(SPARSE):
            sparse = sector_energies(h).entries
        tol = CROSS_ROUTE_TOL * max(1.0, max_abs(h.matrix))
        for S, e in dense.items():
            assert abs(sparse[S].min_energy - e.min_energy) <= tol
            assert abs(sparse[S].max_energy - e.max_energy) <= tol

    def test_crossover_blocks_take_the_sparse_route(self):
        # L = 13 spin-1/2: the M = 3/2, 1/2 blocks (1287, 1716 states) are
        # at or above the crossover, the rest below it; the largest first
        chain = ChainSpec([HalfInt(1)] * 13, list(np.linspace(0.5, 1.5, 12)))
        h = build_normalized_chain(chain)
        calls = []
        real = sectors._sector_extremes

        def spy(H, labels, S):
            calls.append(sectors._block_size(labels, S))
            return real(H, labels, S)

        with mock.patch.object(sectors, "_sector_extremes", spy):
            rep = sector_energies(h)
        assert calls == [1716, 1287]
        with forced_route(DENSE):
            dense = sector_energies(h)
        for S, e in dense.entries.items():
            assert abs(rep.entries[S].min_energy - e.min_energy) <= 1e-10
            assert abs(rep.entries[S].max_energy - e.max_energy) <= 1e-10

    @staticmethod
    def flipped_eigsh(op, k, which, **kw):
        """The opposite end of the penalized spectrum: a penalized level."""
        return REAL_EIGSH(op, k=k, which={"SA": "LA", "LA": "SA"}[which], **kw)

    @staticmethod
    def perturbed_eigsh(op, **kw):
        w, v = REAL_EIGSH(op, **kw)
        return w, v + 1e-4 * np.random.default_rng(1).standard_normal(v.shape)

    @staticmethod
    def unconverged_eigsh(op, **kw):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    @pytest.mark.parametrize("fake", ["flipped_eigsh", "perturbed_eigsh",
                                      "unconverged_eigsh"])
    def test_uncertified_ritz_pair_raises(self, fake):
        chain = ChainSpec([HalfInt(1)] * 6, [1.0, 0.5, 1.5, 0.7, 1.2])
        with forced_route(SPARSE), mock.patch.object(sectors.sla, "eigsh",
                                                     getattr(self, fake)), \
                pytest.raises(NumericalError):
            sector_energies(build_normalized_chain(chain))


class TestCheckFoel:
    def test_ordered(self):
        v = check_foel(report_from({1: 0.0, 0: 4.0}))
        assert v.ok and np.isclose(v.min_margin, 4.0)

    def test_crossing_flagged(self):
        v = check_foel(report_from({2: 0.0, 1: 2.0, 0: 2.0}))
        assert not v.ok
        assert len(v.crossings) == 1
        (s_hi, s_lo, gap) = v.crossings[0]
        assert (s_hi.twice, s_lo.twice) == (2, 0)
        assert abs(gap) <= 1e-8

    def test_violation(self):
        v = check_foel(report_from({1: 1.0, 0: 0.0}))
        assert not v.ok and len(v.violations) == 1

    def test_margin_tolerance(self):
        v = check_foel(report_from({1: 0.0, 0: 5e-9}), strict_tol=1e-8)
        assert not v.ok and v.crossings


class TestCheckMaxOrdering:
    def test_figure_system(self):
        g = SpinGraph.path([HalfInt(2)] * 5, [1.0] * 4)
        rep = sector_energies(build_heisenberg(g))
        assert check_max_ordering(rep, s_low=HalfInt(2)).ok
        # including S=0 breaks the ordering: its top is below the S=1 top
        assert not check_max_ordering(rep, s_low=HalfInt(0)).ok

    def test_single_spin_vacuous(self):
        rep = report_from({0.5: 0.0})
        assert check_max_ordering(rep).ok

    def test_reversed_false(self):
        entries = {
            HalfInt(4): SectorEntry(0.0, 5.0, 1),
            HalfInt(2): SectorEntry(1.0, 4.0, 1),
        }
        assert not check_max_ordering(SectorReport(entries=entries)).ok

    @pytest.mark.parametrize("top, ok", [(1e-10, False), (2e-10, True), (-1e-10, False)])
    def test_boundary(self, top, ok):
        # the S = 1 maximum must exceed the S = 2 one by more than 1e-10
        entries = {HalfInt(4): SectorEntry(0.0, 0.0, 1), HalfInt(2): SectorEntry(0.0, top, 1)}
        v = check_max_ordering(SectorReport(entries=entries))
        assert v.ok is ok
        assert v.margins == [(HalfInt(4), HalfInt(2), top)]


class TestResidualTolerance:
    def test_sparse_solve_reads_the_shared_tolerance(self):
        # a zero bound certifies no Ritz pair, so the sparse route must raise
        assert sectors.RESIDUAL_TOL is linalg.RESIDUAL_TOL
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 6, [1.0, 0.5, 2.0, 1.0, 0.7]))
        with forced_route(SPARSE), mock.patch.object(sectors, "RESIDUAL_TOL", 0.0), \
                pytest.raises(NumericalError, match=r"not certified \(residual"):
            sector_energies(h)


class TestFullSpectrumByS3:
    @settings(max_examples=30, deadline=None, database=None)
    @given(problem=su2_operators(), offset=st.booleans())
    def test_matches_per_block_solves(self, problem, offset):
        H, _ = problem
        spec = full_spectrum_by_s3(H, offset=offset)
        oracle = spectrum_by_s3_blocks(H, offset=offset)
        scale = max(1.0, max(float(np.max(np.abs(w))) for _, w in oracle))
        assert [m for m, _ in spec] == [m for m, _ in oracle]
        for (_, w), (_, w0) in zip(spec, oracle, strict=True):
            assert w.shape == w0.shape
            assert np.max(np.abs(w - w0)) <= 1e-11 * scale

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_blocks_nest_value_for_value(self, seed):
        # block M holds the multiplets of every S >= |M|: for M >= 0 each
        # level of block M + 1 is the same double in block M, and block -M
        # is block M
        chain = random_chain(np.random.default_rng(seed), max_sites=6, max_dim=600)
        spec = dict(full_spectrum_by_s3(build_normalized_chain(chain)))
        for M, w in spec.items():
            assert np.array_equal(spec[-M], w)
            if M.twice >= 0 and M + HalfInt(2) in spec:
                values, counts = np.unique(spec[M + HalfInt(2)], return_counts=True)
                have = dict(zip(*np.unique(w, return_counts=True)))
                assert all(have.get(v, 0) >= c for v, c in zip(values, counts))

    def test_two_site_blocks(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        spec = dict(full_spectrum_by_s3(h))
        assert np.allclose(spec[HalfInt(0)], [0.0, 4.0])
        assert np.allclose(spec[HalfInt(2)], [0.0])

    def test_counts_match_blocks(self):
        shape = HilbertShape([HalfInt(2), HalfInt(1)])
        h = build_normalized_chain(ChainSpec([HalfInt(2), HalfInt(1)], [1.0]))
        blocks = s3_blocks(shape)
        for m, w in full_spectrum_by_s3(h):
            assert len(w) == len(blocks[m])

    def test_offset_makes_ground_zero(self):
        chain = ChainSpec([HalfInt(1)] * 3, [0.5, 1.5])
        h = build_heisenberg(SpinGraph.path(chain.spins, chain.couplings))
        spec = full_spectrum_by_s3(h, offset=True)
        assert np.isclose(min(w[0] for _, w in spec), 0.0, atol=1e-14)
        assert all(w.min() >= -1e-12 for _, w in spec)


class TestLowEnergyByDeviation:
    def test_zero_deviations(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 3, [1.0, 1.0]))
        w = low_energy_by_deviation(h, 0)
        assert np.allclose(w, np.zeros(4))  # the maximal multiplet, 2S+1 = 4

    def test_matches_truncated_full_spectrum(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 6, [1.0] * 5))
        w = low_energy_by_deviation(h, 1)
        full = np.linalg.eigvalsh(h.dense())
        cutoff = w[-1]
        assert np.allclose(w, full[full <= cutoff + 1e-9], atol=1e-9)

    def test_full_depth_recovers_everything(self):
        shape = HilbertShape([HalfInt(1)] * 4)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 4, [1.0] * 3))
        labels = sector_labels(shape)
        w = low_energy_by_deviation(h, len(labels) - 1)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(h.dense()), atol=1e-9)

    def test_precondition_failure_detected(self):
        # antiferromagnetic sign violates FOEL; the truncation cross-check
        # must notice on a small system
        g = SpinGraph.path([HalfInt(1)] * 4, [1.0] * 3)
        h = LocalHamiltonian(g.shape, [(x, -local) for x, local in build_heisenberg(g).terms])
        with pytest.raises(NonInvariantOperatorError):
            low_energy_by_deviation(h, 1)


class TestFoelFamilies:
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=6, max_dim=800)
        rep = sector_energies(build_normalized_chain(chain))
        verdict = check_foel(rep)
        assert verdict.ok, (chain.spins, chain.couplings, verdict.margins)
        assert verdict.min_margin > 1e-8

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cycles_spin_half(self, n):
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        g = SpinGraph([(i, HalfInt(1)) for i in range(n)], edges)
        rep = sector_energies(build_heisenberg(g))
        assert check_foel(rep).ok, f"cycle of {n}"

    def test_even_cycles_fail_and_are_reported(self):
        # Even rings genuinely break the strict ordering between S=1 and
        # S=0 (degenerate at length 4, inverted at 6 and 8); confirmed
        # against an independent dense Casimir-filter oracle.  The check
        # must report this, never paper over it.
        observed = {}
        for n in (4, 6, 8):
            edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
            g = SpinGraph([(i, HalfInt(1)) for i in range(n)], edges)
            rep = sector_energies(build_heisenberg(g))
            verdict = check_foel(rep)
            assert not verdict.ok
            pair = (verdict.crossings + verdict.violations)[0]
            observed[n] = (pair[0].twice, pair[1].twice, pair[2])
        assert observed[4][:2] == (2, 0) and abs(observed[4][2]) <= 1e-8
        assert np.isclose(observed[6][2], -0.021999231327, atol=1e-9)
        assert np.isclose(observed[8][2], -0.014779, atol=1e-5)

    def test_small_trees_spin_half(self):
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(99)
        for nv in (4, 5, 6, 7):
            for tree in networkx.nonisomorphic_trees(nv):
                g = SpinGraph([(i, HalfInt(1)) for i in range(nv)],
                              [(u, v, float(1.0 + rng.random())) for u, v in tree.edges])
                rep = sector_energies(build_heisenberg(g))
                assert check_foel(rep).ok, f"tree on {nv} vertices {list(tree.edges)}"


def test_figure_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "figure_spin1_chain.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "FOEL ordering of minima:            True" in out
    assert "Lieb-Mattis ordering of maxima 1..5: True" in out
    rows = (tmp_path / "figure_spin1_L5.csv").read_text().splitlines()
    assert rows[0] == "M_times2,energy" and len(rows) == 1 + 3 ** 5


def test_level_ordering_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "level_ordering_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("FOEL: holds") == 3 and "FAILS" not in out
    assert "six-cycle verdict: ok=False, violations=[('1', '0', -0.021999)]" in out
