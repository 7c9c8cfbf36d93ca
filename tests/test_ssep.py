import runpy
import tracemalloc
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, note, settings
from hypothesis import strategies as st
from reference import random_connected_graph, s3_blocks

import foelab.linalg as linalg
import foelab.ssep as ssep
from foelab.errors import NumericalError
from foelab.hamiltonians import SpinGraph, build_heisenberg
from foelab.spinops import HalfInt, HilbertShape, _s3_block
from foelab.ssep import (
    GAP_SPARSE_MIN_DIM,
    SSEPGenerator,
    check_aldous,
    spectral_gap,
    ssep_csv_rows,
    ssep_generator,
    verify_spin_map,
)

DEMO = Path(__file__).resolve().parents[1] / "demos" / "exclusion_gaps.py"
DENSE, SPARSE = 10 ** 9, 0  # GAP_SPARSE_MIN_DIM values forcing one route
REAL_EIGSH = ssep.sla.eigsh


def path_graph(n, rate=1.0):
    return SpinGraph([(i, HalfInt(1)) for i in range(n)],
                     [(i, i + 1, rate) for i in range(n - 1)])


def complete_graph(n, rate=1.0):
    edges = [(i, j, rate) for i in range(n) for j in range(i + 1, n)]
    return SpinGraph([(i, HalfInt(1)) for i in range(n)], edges)


def star_graph(n, rate=1.0):
    return SpinGraph([(i, HalfInt(1)) for i in range(n)],
                     [(0, i, rate) for i in range(1, n)])


def forced_route(min_dim):
    return mock.patch.object(ssep, "GAP_SPARSE_MIN_DIM", min_dim)


def dense_gap(gen):
    return float(np.linalg.eigvalsh(gen.L.toarray())[1])


@st.composite
def connected_graphs(draw):
    """Random spin-1/2 spanning tree plus up to five extra edges, N <= 9."""
    n = draw(st.integers(2, 9))
    rate = st.floats(min_value=0.05, max_value=2.0)
    edges = {(draw(st.integers(0, v - 1)), v): draw(rate) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 5))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.setdefault((u, v), draw(rate))
    return SpinGraph([(i, HalfInt(1)) for i in range(n)],
                     [(u, v, j) for (u, v), j in edges.items()])


def dense_assemble(nsites, edge_rates, config_ints):
    """Per-configuration loop into a dense array (reference assembly)."""
    index = {c: i for i, c in enumerate(config_ints)}
    m = np.zeros((len(config_ints), len(config_ints)))
    for i, eta in enumerate(config_ints):
        for pu, pv, r in edge_rates:
            if (eta >> pu) & 1 == (eta >> pv) & 1:
                continue
            m[i, i] += r
            m[i, index[eta ^ ((1 << pu) | (1 << pv))]] -= r
    return m


def dense_spin_map(g):
    """Reference spin map on dense 2^N x 2^N arrays: (deviation, bound, rows)."""
    nsites = g.nsites
    half = [(g.site_position(u), g.site_position(v), 0.5 * j) for u, v, j in g.edges]
    full = dense_assemble(nsites, half, list(range(2 ** nsites)))
    h = build_heisenberg(g).dense()
    h += 0.25 * sum(j for _, _, j in g.edges) * np.eye(2 ** nsites)
    perm = np.zeros(2 ** nsites, dtype=int)
    for eta in range(2 ** nsites):
        for p in range(nsites):
            if not (eta >> p) & 1:
                perm[eta] |= 1 << (nsites - 1 - p)
    mapped = np.zeros_like(full)
    mapped[np.ix_(perm, perm)] = full
    blocks = s3_blocks(g.shape)
    rows = []
    for n in range(1, nsites):
        # the sector in product-index order, as ``ssep`` orders it
        ints = sorted((c for c in range(2 ** nsites) if bin(c).count("1") == n),
                      key=lambda c: perm[c])
        sector = dense_assemble(nsites, half, ints)
        lam = float(la.eigvalsh(sector, subset_by_index=[1, 1])[0])
        idx = blocks[HalfInt(2 * n - nsites)]
        second = float(la.eigvalsh(h[np.ix_(idx, idx)])[1])
        rows.append((n, lam, second, abs(lam - second)))
    delta = np.abs(mapped - h)
    return float(delta.max()), float(delta.sum(axis=1).max()), rows


class TestGenerator:
    def test_path3_single_particle(self):
        gen = ssep_generator(path_graph(3, 0.5), n=1)
        w = np.linalg.eigvalsh(gen.L.toarray())
        assert np.allclose(w, [0.0, 0.5, 1.5])  # half the path Laplacian

    def test_frozen_sectors(self):
        g = path_graph(3)
        for n in (0, 3):
            gen = ssep_generator(g, n=n)
            assert gen.L.toarray().shape == (1, 1)
            assert gen.L.toarray()[0, 0] == 0.0

    def test_complete_graph_single_particle(self):
        gen = ssep_generator(complete_graph(3), n=1)
        w = np.linalg.eigvalsh(gen.L.toarray())
        assert np.allclose(w, [0.0, 3.0, 3.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_structure(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 6, extra_edges=3, spin=HalfInt(1))
        for n in (1, 2, 3):
            m = ssep_generator(g, n=n).L.toarray()
            assert np.abs(m - m.T).max() <= 1e-14
            assert np.abs(m.sum(axis=1)).max() <= 1e-12  # uniform measure invariant
            off = m - np.diag(np.diag(m))
            assert off.max() <= 0.0
            assert np.linalg.eigvalsh(m)[0] >= -1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_memory_estimate_bounds_the_traced_peak(self, n):
        # complete graph, 12 sites: the half-filled sector acts on the most
        # edges per configuration (peak about 2.3 MB)
        g = complete_graph(12)
        tracemalloc.start()
        try:
            ssep_generator(g, n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ssep._matrix_bytes(comb(12, n), len(g.edges))

    @pytest.mark.parametrize("nsites", [0, 1, 5, 12])
    def test_configs_are_the_popcount_filter(self, nsites):
        # the S^3-block enumeration against a scan of all 2^N indices
        every = np.arange(2 ** nsites)
        ones = np.array([bin(c).count("1") for c in every.tolist()])
        shape = HilbertShape([HalfInt(1)] * nsites)
        for n in range(nsites + 1):
            assert np.array_equal(_s3_block(shape, HalfInt(2 * n - nsites)),
                                  every[ones == nsites - n])

    def test_config_order_is_integer_order(self):
        gen = ssep_generator(path_graph(3), n=1)
        assert gen.configs.dtype == np.int64
        # product indices, vertex x at bit 2 - x: the particle is the one 0 digit
        assert gen.configs.tolist() == [3, 5, 6]

    @pytest.mark.parametrize("seed", [4, 5])
    def test_sparse_matches_dense_loop(self, seed):
        g = random_connected_graph(np.random.default_rng(seed), 7, extra_edges=4,
                                   spin=HalfInt(1))
        pos = [(6 - g.site_position(u), 6 - g.site_position(v), j) for u, v, j in g.edges]
        for n in range(8):
            gen = ssep_generator(g, n=n)
            assert sp.issparse(gen.L)
            ints = gen.configs.tolist()
            # n particles are n spins up: n zero digits
            assert ints == [c for c in range(2 ** 7) if bin(c).count("1") == 7 - n]
            assert np.array_equal(gen.L.toarray(), dense_assemble(7, pos, ints))


class TestSharedIndex:
    @settings(max_examples=30, deadline=None, database=None)
    @given(g=connected_graphs())
    def test_generator_is_the_heisenberg_block(self, g):
        # configuration index = product-state index: the n-particle sector
        # is the S^3 = n - N/2 block, and the generator with rates J is
        # 2 (H + 1/4 sum J) on it, entry by entry up to the rounding of
        # diagonals summed in another order
        note(f"edges {list(g.edges)}")
        nsites = g.nsites
        shift = 0.25 * sum(j for _, _, j in g.edges)
        h = 2.0 * (build_heisenberg(g).matrix
                   + shift * sp.identity(2 ** nsites, format="csr"))
        blocks = s3_blocks(g.shape)
        for n in range(nsites + 1):
            gen = ssep_generator(g, n=n)
            idx = blocks[HalfInt(2 * n - nsites)]
            assert np.array_equal(gen.configs, idx)
            ref = h[idx][:, idx].toarray()
            assert np.abs(gen.L.toarray() - ref).max() <= 1e-14 * max(1.0, shift)


class TestSpectralGap:
    def test_path3_both_sectors(self):
        g = path_graph(3, 0.5)
        assert np.isclose(spectral_gap(ssep_generator(g, n=1)), 0.5, atol=1e-12)
        assert np.isclose(spectral_gap(ssep_generator(g, n=2)), 0.5, atol=1e-12)

    def test_complete_graph(self):
        assert np.isclose(spectral_gap(ssep_generator(complete_graph(3), n=1)), 3.0)

    def test_disconnected_diagnosed(self):
        with pytest.warns(UserWarning):
            g = SpinGraph([(i, HalfInt(1)) for i in range(4)],
                          [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(NumericalError, match="disconnected"):
            spectral_gap(ssep_generator(g, n=1))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_particle_hole_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 6, extra_edges=2, spin=HalfInt(1))
        for n in (1, 2):
            a = ssep_generator(g, n=n)
            b = ssep_generator(g, n=6 - n)
            # complement bijection maps one sector onto the other exactly
            comp = {c: i for i, c in enumerate(a.configs.tolist())}
            perm = [comp[(2 ** 6 - 1) ^ c] for c in b.configs.tolist()]
            mapped = a.L.toarray()[np.ix_(perm, perm)]
            assert np.array_equal(mapped, b.L.toarray())


class TestGapRoutes:
    @settings(max_examples=30, deadline=None, database=None)
    @given(g=connected_graphs())
    def test_both_routes_match_dense_spectrum(self, g):
        note(f"twice-spins {[s.twice for _, s in g.sites]}, edges {list(g.edges)}")
        for n in range(1, g.nsites):
            gen = ssep_generator(g, n=n)
            ref = dense_gap(gen)
            for min_dim in (DENSE, SPARSE):
                with forced_route(min_dim):
                    assert abs(spectral_gap(gen) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    @pytest.mark.parametrize("g, expected", [
        (path_graph(8), 2.0 * (1.0 - np.cos(np.pi / 8))),
        (star_graph(8), 1.0),
        (complete_graph(7), 7.0),  # lambda_1 has multiplicity 6 at n = 1
    ])
    def test_symmetric_and_degenerate(self, g, expected, min_dim):
        with forced_route(min_dim):
            for n in range(1, g.nsites):
                gen = ssep_generator(g, n=n)
                assert abs(spectral_gap(gen) - expected) <= 1e-10 * expected
                assert abs(spectral_gap(gen) - dense_gap(gen)) <= 1e-10 * expected

    def test_sparse_route_is_deterministic(self):
        gen = ssep_generator(path_graph(10), n=5)
        with forced_route(SPARSE):
            gaps = {spectral_gap(gen) for _ in range(3)}
        assert len(gaps) == 1

    def test_crossover_sectors_match(self):
        g = path_graph(12)
        gen = ssep_generator(g, n=6)
        assert gen.L.shape[0] >= ssep.GAP_SPARSE_MIN_DIM
        assert abs(spectral_gap(gen) - dense_gap(gen)) <= 1e-10 * dense_gap(gen)

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    def test_disconnected_diagnosed_on_both_routes(self, min_dim):
        with pytest.warns(UserWarning):
            g = SpinGraph([(i, HalfInt(1)) for i in range(6)],
                          [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        with forced_route(min_dim), pytest.raises(NumericalError, match="disconnected"):
            spectral_gap(ssep_generator(g, n=2))

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    def test_shifted_zero_mode_rejected(self, min_dim):
        gen = ssep_generator(path_graph(6), n=2)
        shifted = gen.L + 0.5 * sp.identity(gen.L.shape[0], format="csr")
        bad = SSEPGenerator(n=2, configs=gen.configs, L=shifted)
        with forced_route(min_dim), pytest.raises(NumericalError, match="zero mode"):
            spectral_gap(bad)

    @pytest.mark.parametrize("min_dim, module, name", [
        (DENSE, ssep.la, "eigh"),
        (SPARSE, ssep.sla, "eigsh"),
    ])
    def test_bad_eigenvector_rejected(self, monkeypatch, min_dim, module, name):
        solver = getattr(module, name)

        def perturbed(*args, **kwargs):
            w, vecs = solver(*args, **kwargs)
            return w, vecs + 0.1

        monkeypatch.setattr(module, name, perturbed)
        gen = ssep_generator(path_graph(6), n=2)
        with forced_route(min_dim), pytest.raises(NumericalError, match="residual"):
            spectral_gap(gen)

    def test_arpack_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ssep.sla.ArpackNoConvergence("synthetic", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(ssep.sla, "eigsh", no_convergence)
        with forced_route(SPARSE), pytest.raises(NumericalError, match="converge"):
            spectral_gap(ssep_generator(path_graph(5), n=2))


def spin_block(g, n):
    """S^3 = n - N/2 block of sum_edges J (1/4 - S.S), built independently."""
    dim = 2 ** g.nsites
    h = build_heisenberg(g).matrix
    h = h + 0.25 * sum(j for _, _, j in g.edges) * sp.identity(dim, format="csr")
    idx = s3_blocks(g.shape)[HalfInt(2 * n - g.nsites)]
    return h[idx][:, idx]


class TestParticleHoleMirror:
    @settings(max_examples=25, deadline=None, database=None)
    @given(g=connected_graphs(), min_dim=st.sampled_from([DENSE, SPARSE]))
    def test_rows_match_independent_solves(self, g, min_dim):
        note(f"edges {list(g.edges)}, GAP_SPARSE_MIN_DIM {min_dim}")
        nsites = g.nsites
        halved = SpinGraph(g.sites, [(u, v, 0.5 * j) for u, v, j in g.edges])
        with forced_route(min_dim):
            with mock.patch.object(ssep, "_s3_block", wraps=ssep._s3_block) as spy:
                report = check_aldous(g)
                spin = verify_spin_map(g)
            # n = N/2 ... 1 for each table, largest sector first
            solved = [(c.args[1].twice + nsites) // 2 for c in spy.call_args_list]
            assert solved == 2 * list(range(nsites // 2, 0, -1))
            assert [r[0] for r in report.rows] == list(range(1, nsites))
            for n, dim, lam in report.rows:
                ref = spectral_gap(ssep_generator(g, n=n))
                assert dim == comb(nsites, n)
                assert abs(lam - ref) <= 1e-12 * ref
            assert [r[0] for r in spin.sector_rows] == list(range(1, nsites))
            for n, lam, second, _ in spin.sector_rows:
                ref = spectral_gap(ssep_generator(halved, n=n))
                assert abs(lam - ref) <= 1e-12 * ref
                ref = ssep._certified_gap(spin_block(g, n))[0]
                assert abs(second - ref) <= 1e-12 * ref
                assert abs(second - ref) <= spin.eigenvalue_bound + 1e-12 * lam


class TestGapCertificates:
    """Each certificate of the gap fires on its own kind of bad answer."""

    @staticmethod
    def zero_mode_eigsh(op, k, **kw):
        m = op.shape[0]
        return np.zeros(1), np.full((m, 1), 1 / np.sqrt(m))

    @staticmethod
    def large_residual_eigsh(op, k, **kw):
        w, _ = REAL_EIGSH(op, k=k, **kw)
        v = np.random.default_rng(2).standard_normal(op.shape[0])
        return w, (v - v.mean())[:, None]

    @staticmethod
    def uniform_component_eigsh(op, k, **kw):
        # on path6, n = 2: theta = 0.27 and ||a||_inf = 8, so a component
        # c 1 adds 0.27 c sqrt(m) to the residual (allowed 8e-9) and c m to
        # <1, v> (allowed 1e-9 sqrt(m)): c = 5e-9 / sqrt(m) passes the first
        w, v = REAL_EIGSH(op, k=k, **kw)
        m = op.shape[0]
        return w, v + 5e-9 / np.sqrt(m)

    @pytest.mark.parametrize("fake, message", [
        ("zero_mode_eigsh", "zero mode"),
        ("large_residual_eigsh", "residual"),
        ("uniform_component_eigsh", "zero mode"),
    ])
    def test_bad_ritz_pair_raises(self, fake, message):
        gen = ssep_generator(path_graph(6), n=2)
        with forced_route(SPARSE), mock.patch.object(ssep.sla, "eigsh",
                                                     getattr(self, fake)), \
                pytest.raises(NumericalError, match=message):
            spectral_gap(gen)

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    def test_residual_reads_the_shared_tolerance(self, min_dim):
        # a zero bound certifies no gap pair, on either route
        assert ssep.RESIDUAL_TOL is linalg.RESIDUAL_TOL
        a = ssep_generator(path_graph(6), n=2).L
        with forced_route(min_dim), mock.patch.object(ssep, "RESIDUAL_TOL", 0.0), \
                pytest.raises(NumericalError, match="gap eigenpair residual"):
            ssep._certified_gap(a)

    @pytest.mark.parametrize("min_dim", [DENSE, SPARSE])
    def test_nonzero_row_sums_rejected(self, min_dim):
        # rows sum to +-1e-6 but the lowest eigenvalue is still 0 to 1e-11:
        # only the residual of the uniform vector shows it is not the zero mode
        a = ssep_generator(path_graph(6), n=2).L.tolil()
        a[0, 0] += 1e-6
        a[1, 1] -= 1e-6
        a = a.tocsr()
        assert abs(np.linalg.eigvalsh(a.toarray())[0]) <= ssep.ZERO_MODE_TOL
        with forced_route(min_dim), pytest.raises(NumericalError, match="zero mode"):
            ssep._certified_gap(a)

    def test_positive_off_diagonal_rejected(self):
        a = ssep_generator(path_graph(6), n=2).L.tolil()
        j = a[0].nonzero()[1][-1]  # a configuration one jump from the first
        rate = -a[0, j]
        a[0, j] = a[j, 0] = rate  # positive; the diagonal keeps rows at sum 0
        a[0, 0] -= 2 * rate
        a[j, j] -= 2 * rate
        a = a.tocsr()
        assert np.abs(a @ np.ones(a.shape[0])).max() <= 1e-15
        with pytest.raises(NumericalError, match="positive off-diagonal"):
            ssep._certified_gap(a)


class TestAldous:
    @pytest.mark.parametrize("nv", [3, 4, 5, 6])
    def test_paths_random_rates(self, nv):
        rng = np.random.default_rng(nv)
        g = SpinGraph([(i, HalfInt(1)) for i in range(nv)],
                      [(i, i + 1, float(0.2 + rng.random())) for i in range(nv - 1)])
        report = check_aldous(g)
        assert report.ok, report

    def test_star_tree(self):
        g = SpinGraph([(i, HalfInt(1)) for i in range(5)],
                      [(0, i, 1.0) for i in range(1, 5)])
        assert check_aldous(g).ok

    def test_rows_format(self):
        report = check_aldous(path_graph(4))
        rows = ssep_csv_rows(report)
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][1] == 4 and rows[1][1] == 6
        assert all(abs(r[4]) <= 1e-9 for r in rows)

    def test_disconnected_rejected(self):
        with pytest.warns(UserWarning):
            g = SpinGraph([(0, HalfInt(1)), (1, HalfInt(1))], [])
        with pytest.raises(ValueError):
            check_aldous(g)


class TestSpinMap:
    def test_two_site_exact(self):
        res = verify_spin_map(path_graph(2))
        assert res.ok and res.max_deviation == 0.0

    def test_path4_random_couplings(self):
        rng = np.random.default_rng(7)
        g = SpinGraph([(i, HalfInt(1)) for i in range(4)],
                      [(i, i + 1, float(0.3 + rng.random())) for i in range(3)])
        res = verify_spin_map(g)
        assert res.max_deviation <= 1e-12
        assert res.ok

    def test_gap_equals_second_block_eigenvalue(self):
        res = verify_spin_map(path_graph(5))
        for _, lam, second, diff in res.sector_rows:
            assert diff <= 1e-9 * max(1.0, lam)
            assert np.isclose(lam, second, atol=1e-9)

    @pytest.mark.parametrize("nsites, seed", [(2, 0), (3, 1), (5, 2), (6, 3), (8, 4)])
    def test_matches_dense_reference(self, nsites, seed):
        g = random_connected_graph(np.random.default_rng(seed), nsites,
                                   extra_edges=3, spin=HalfInt(1))
        dev, bound, rows = dense_spin_map(g)
        res = verify_spin_map(g)
        assert res.ok
        assert res.max_deviation == dev
        assert abs(res.eigenvalue_bound - bound) <= 1e-15 * max(1.0, bound)
        # sectors n <= N/2 are solved, all on the dense route; row n > N/2
        # is a copy of row N - n, an ulp away from its own dense solve.  The
        # H value is a Rayleigh quotient at the generator's gap vector, not
        # an eigensolve of the H block, so it agrees to rounding only
        half = nsites // 2
        for (n, lam, second, diff), (n_ref, lam_ref, second_ref, diff_ref) in zip(
                res.sector_rows, rows):
            assert n == n_ref
            if n <= half:
                assert lam == lam_ref
            else:
                assert (lam, second, diff) == res.sector_rows[nsites - n - 1][1:]
                assert abs(lam - lam_ref) <= 1e-12 * lam_ref
            assert abs(second - second_ref) <= 1e-12 * second_ref
            assert abs(diff - diff_ref) <= 1e-12 * lam_ref
        with forced_route(SPARSE):
            sparse_rows = verify_spin_map(g).sector_rows
        for (_, lam, second, _), (_, lam_ref, second_ref, _) in zip(sparse_rows, rows):
            assert abs(lam - lam_ref) <= 1e-10 * lam_ref
            assert abs(second - second_ref) <= 1e-10 * second_ref

    @pytest.mark.parametrize("nsites, min_dim", [(2, DENSE), (5, DENSE), (8, DENSE),
                                                 (9, SPARSE), (10, GAP_SPARSE_MIN_DIM)])
    def test_one_solve_per_sector(self, nsites, min_dim):
        # the H side is read off the generator's gap vector: no second solve
        with forced_route(min_dim), mock.patch.object(
                ssep, "_certified_gap", wraps=ssep._certified_gap) as spy:
            res = verify_spin_map(path_graph(nsites))
        assert res.ok
        assert spy.call_count == nsites // 2

    def test_perturbed_hamiltonian_fails(self):
        # one bond of H scaled by 1 + 1e-6: the spin map must fail on the
        # entries and on every row's gap (the H value is read off H, not off
        # the generator), and each H value stays within Weyl's bound of the
        # perturbed block's own eigenvalue
        g = path_graph(6)
        edges = list(g.edges)
        u, v, j = edges[2]
        edges[2] = (u, v, j * (1 + 1e-6))
        perturbed = SpinGraph(g.sites, edges)
        real_build = ssep.build_heisenberg
        with mock.patch.object(ssep, "build_heisenberg",
                               lambda _: real_build(perturbed)):
            res = verify_spin_map(g)
        assert not res.ok
        assert res.max_deviation > 1e-12
        assert res.eigenvalue_bound >= res.max_deviation
        shift = 0.25 * sum(j for _, _, j in g.edges)
        h = build_heisenberg(perturbed).dense() + shift * np.eye(2 ** 6)
        blocks = s3_blocks(g.shape)
        for n, lam, second, diff in res.sector_rows:
            assert diff > 1e-9 * max(1.0, lam)
            idx = blocks[HalfInt(2 * n - 6)]
            exact = np.linalg.eigvalsh(h[np.ix_(idx, idx)])[1]
            assert abs(second - exact) <= 2 * res.eigenvalue_bound + 1e-9 * lam

    def test_path12_traced_memory(self):
        tracemalloc.start()
        try:
            res = verify_spin_map(path_graph(12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.ok
        assert peak < 32 * 2 ** 20

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        with pytest.raises(NumericalError, match="estimated"):
            verify_spin_map(path_graph(10))

    def test_requires_spin_half(self):
        g = SpinGraph([(0, HalfInt(2)), (1, HalfInt(2))], [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            verify_spin_map(g)

    def test_disconnected_rejected(self):
        # the same precondition as the gap table: no sector is solved
        with pytest.warns(UserWarning):
            g = SpinGraph([(i, HalfInt(1)) for i in range(3)], [(0, 1, 1.0)])
        with mock.patch.object(ssep, "_certified_gap") as solve, \
                pytest.raises(ValueError, match="disconnected"):
            verify_spin_map(g)
        solve.assert_not_called()


def test_exclusion_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "equality verdict: True" in out and "False" not in out
