import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from foelab.errors import NonInvariantOperatorError, NumericalError
from foelab.hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    build_xxz_chain,
    random_chain,
)
from foelab.sectors import (
    SectorEntry,
    SectorReport,
    _sector_spectrum,
    casimir_sector_energies,
    check_foel,
    check_max_ordering,
    full_spectrum_by_s3,
    highest_weight_space,
    low_energy_by_deviation,
    s3_blocks,
    sector_energies,
    sector_labels,
)
from foelab.spinops import (
    HalfInt,
    HilbertShape,
    RealOperator,
    TotalSpinOps,
    total_spin_ops,
)

TWO_HALVES = HilbertShape([HalfInt(1), HalfInt(1)])


def report_from(mins):
    entries = {
        HalfInt.coerce(s): SectorEntry(e, e, 1) for s, e in mins.items()
    }
    return SectorReport(entries=entries)


class TestS3Blocks:
    def test_two_halves(self):
        blocks = s3_blocks(TWO_HALVES)
        assert list(blocks[HalfInt(2)]) == [0]
        assert list(blocks[HalfInt(0)]) == [1, 2]
        assert list(blocks[HalfInt(-2)]) == [3]

    def test_single_spin_one(self):
        blocks = s3_blocks(HilbertShape([HalfInt(2)]))
        assert all(len(idx) == 1 for idx in blocks.values())
        assert [m.twice for m in blocks] == [2, 0, -2]

    def test_three_halves_binomials(self):
        blocks = s3_blocks(HilbertShape([HalfInt(1)] * 3))
        assert [len(idx) for idx in blocks.values()] == [1, 3, 3, 1]


class TestHighestWeightSpace:
    def test_top_sector_is_polarized(self):
        basis = highest_weight_space(TWO_HALVES, HalfInt(2))
        v = basis.vectors[:, 0]
        assert np.allclose(np.abs(v), [1, 0, 0, 0])

    def test_singlet(self):
        basis = highest_weight_space(TWO_HALVES, HalfInt(0))
        v = basis.vectors[:, 0]
        assert np.allclose(np.abs(v), [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        assert np.isclose(v[1], -v[2])

    def test_five_halves_dimension(self):
        shape = HilbertShape([HalfInt(1)] * 5)
        basis = highest_weight_space(shape, HalfInt(1))
        assert basis.dimension == 5  # C(5,2) - C(5,1)

    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1), (2, 2, 2), (3, 1, 1)])
    def test_vectors_are_highest_weight(self, spins):
        shape = HilbertShape([HalfInt(t) for t in spins])
        tot = total_spin_ops(shape)
        for S, dim in sector_labels(shape).items():
            basis = highest_weight_space(shape, S, tot)
            assert basis.dimension == dim
            v = basis.vectors
            assert np.abs(tot.sptot.matrix @ v).max() <= 1e-10
            assert np.abs(tot.s3tot.matrix @ v - S.value * v).max() <= 1e-10

    def test_missing_label_raises(self):
        with pytest.raises(ValueError):
            highest_weight_space(TWO_HALVES, HalfInt(4))


class TestSectorEnergies:
    def test_normalized_two_site(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        rep = sector_energies(h, TWO_HALVES)
        assert np.isclose(rep.entries[HalfInt(2)].min_energy, 0.0)
        assert np.isclose(rep.entries[HalfInt(0)].min_energy, 4.0)
        assert rep.foel_ok

    def test_spin1_quartic_point(self):
        shape = HilbertShape([HalfInt(2)] * 2)
        rep = sector_energies(build_spin1_beta_chain(2, 1.0 / 3.0), shape)
        mins = {s.twice: e.min_energy for s, e in rep.entries.items()}
        assert np.isclose(mins[4], 0.0, atol=1e-12)
        assert np.isclose(mins[2], 2.0, atol=1e-12)
        assert np.isclose(mins[0], 2.0, atol=1e-12)
        assert not rep.foel_ok  # degenerate pair flags a crossing

    def test_zero_operator(self):
        h = RealOperator(np.zeros((4, 4)))
        rep = sector_energies(h, TWO_HALVES)
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
            sector_energies(h, HilbertShape([HalfInt(1)] * 3))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_casimir_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=5, max_dim=400)
        h = build_normalized_chain(chain)
        rep = sector_energies(h, chain.shape)
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
        tot = total_spin_ops(shape)
        for S in sector_labels(shape):
            basis = highest_weight_space(shape, S, tot, blocks)
            hs = basis.vectors.T @ (h.matrix @ basis.vectors)
            w_sector = np.linalg.eigvalsh(0.5 * (hs + hs.T))
            w_block = np.linalg.eigvalsh(h.sub(blocks[S]))
            # every sector eigenvalue appears in the block spectrum
            for e in w_sector:
                assert np.min(np.abs(w_block - e)) <= 1e-8


class TestWrongRaisingOperator:
    """With S+ replaced by zero, the S^3 = 0 block of two spin-1/2 sites has
    a two-dimensional "kernel" where sector_labels says one."""

    @staticmethod
    def broken_ops():
        tot = total_spin_ops(TWO_HALVES)
        zero = RealOperator(sp.csr_matrix((4, 4)))
        return TotalSpinOps(s3tot=tot.s3tot, sptot=zero, smtot=zero)

    def test_svd_route_checks_kernel_dimension(self):
        with pytest.raises(NumericalError):
            highest_weight_space(TWO_HALVES, HalfInt(0), self.broken_ops())

    def test_penalty_certificate_fails(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        with pytest.raises(NumericalError):
            _sector_spectrum(h, self.broken_ops(), s3_blocks(TWO_HALVES), HalfInt(0), 1)


CROSS_ROUTE_MAX_DIM = 512
CROSS_ROUTE_TOL = 1e-10


@st.composite
def mixed_spins(draw):
    """Twice-spins in {1, 2, 3}, 2 to 9 sites, total dimension <= 512."""
    twice, dim = [], 1
    for _ in range(draw(st.integers(2, 9))):
        fits = [t for t in (1, 2, 3) if dim * (t + 1) <= CROSS_ROUTE_MAX_DIM]
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
    """Penalty route vs SVD projection vs Casimir oracle, every sector."""
    labels = sector_labels(shape)
    penalty = sector_energies(h, shape).entries
    oracle = casimir_sector_energies(h, shape).entries
    assert set(penalty) == set(oracle) == set(labels)
    tot = total_spin_ops(shape)
    for S, d in labels.items():
        v = highest_weight_space(shape, S, tot).vectors
        hs = v.T @ (h.matrix @ v)
        w = np.linalg.eigvalsh(0.5 * (hs + hs.T))
        svd = SectorEntry(float(w[0]), float(w[-1]), v.shape[1])
        for ref in (svd, oracle[S]):
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
        assert_routes_agree(build_heisenberg(g), g.shape)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_beta_one_third_crossing_chain(self, L):
        shape = HilbertShape([HalfInt(2)] * L)
        assert_routes_agree(build_spin1_beta_chain(L, 1.0 / 3.0), shape)


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
        rep = sector_energies(build_heisenberg(g), HilbertShape([HalfInt(2)] * 5))
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


class TestFullSpectrumByS3:
    def test_two_site_blocks(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 2, [1.0]))
        spec = dict(full_spectrum_by_s3(h, TWO_HALVES))
        assert np.allclose(spec[HalfInt(0)], [0.0, 4.0])
        assert np.allclose(spec[HalfInt(2)], [0.0])

    def test_counts_match_blocks(self):
        shape = HilbertShape([HalfInt(2), HalfInt(1)])
        h = build_normalized_chain(ChainSpec([HalfInt(2), HalfInt(1)], [1.0]))
        blocks = s3_blocks(shape)
        for m, w in full_spectrum_by_s3(h, shape):
            assert len(w) == len(blocks[m])

    def test_offset_makes_ground_zero(self):
        chain = ChainSpec([HalfInt(1)] * 3, [0.5, 1.5])
        h = build_heisenberg(SpinGraph.path(chain.spins, chain.couplings))
        spec = full_spectrum_by_s3(h, chain.shape, offset=True)
        assert np.isclose(min(w[0] for _, w in spec), 0.0, atol=1e-14)
        assert all(w.min() >= -1e-12 for _, w in spec)


class TestLowEnergyByDeviation:
    def test_zero_deviations(self):
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 3, [1.0, 1.0]))
        w = low_energy_by_deviation(h, HilbertShape([HalfInt(1)] * 3), 0)
        assert np.allclose(w, np.zeros(4))  # the maximal multiplet, 2S+1 = 4

    def test_matches_truncated_full_spectrum(self):
        shape = HilbertShape([HalfInt(1)] * 6)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 6, [1.0] * 5))
        w = low_energy_by_deviation(h, shape, 1)
        full = np.linalg.eigvalsh(h.dense())
        cutoff = w[-1]
        assert np.allclose(w, full[full <= cutoff + 1e-9], atol=1e-9)

    def test_full_depth_recovers_everything(self):
        shape = HilbertShape([HalfInt(1)] * 4)
        h = build_normalized_chain(ChainSpec([HalfInt(1)] * 4, [1.0] * 3))
        labels = sector_labels(shape)
        w = low_energy_by_deviation(h, shape, len(labels) - 1)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(h.dense()), atol=1e-9)

    def test_precondition_failure_detected(self):
        # antiferromagnetic sign violates FOEL; the truncation cross-check
        # must notice on a small system
        g = SpinGraph.path([HalfInt(1)] * 4, [1.0] * 3)
        h = RealOperator(-build_heisenberg(g).dense())
        with pytest.raises(NonInvariantOperatorError):
            low_energy_by_deviation(h, g.shape, 1)


class TestFoelFamilies:
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=6, max_dim=800)
        rep = sector_energies(build_normalized_chain(chain), chain.shape)
        verdict = check_foel(rep)
        assert verdict.ok, (chain.spins, chain.couplings, verdict.margins)
        assert verdict.min_margin > 1e-8

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cycles_spin_half(self, n):
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        g = SpinGraph([(i, HalfInt(1)) for i in range(n)], edges)
        rep = sector_energies(build_heisenberg(g), g.shape)
        assert rep.foel_ok, f"cycle of {n}"

    def test_even_cycles_fail_and_are_reported(self):
        # Even rings genuinely break the strict ordering between S=1 and
        # S=0 (degenerate at length 4, inverted at 6 and 8); confirmed
        # against an independent dense Casimir-filter oracle.  The check
        # must report this, never paper over it.
        observed = {}
        for n in (4, 6, 8):
            edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
            g = SpinGraph([(i, HalfInt(1)) for i in range(n)], edges)
            rep = sector_energies(build_heisenberg(g), g.shape)
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
                rep = sector_energies(build_heisenberg(g), g.shape)
                assert rep.foel_ok, f"tree on {nv} vertices {list(tree.edges)}"
