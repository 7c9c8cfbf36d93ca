import numpy as np
import pytest
from reference import (BondPolynomial, build_general_bond_chain, build_xxz_chain, casimir,
                       commutator_maxabs, total_s3, total_splus, xxz_bond, xxz_boundary_coeff)

from foelab.errors import GraphSpecError
from foelab.hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    parse_graph_spec,
    random_chain,
)
from foelab.spinops import HalfInt, HilbertShape

HALVES = [HalfInt(1), HalfInt(1)]


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


class TestBuildHeisenberg:
    def test_two_site(self):
        g = SpinGraph.path(HALVES, [1.0])
        w = np.linalg.eigvalsh(build_heisenberg(g).dense())
        assert np.allclose(np.sort(w), [-0.25, -0.25, -0.25, 0.75])

    def test_single_site_zero(self):
        g = SpinGraph([(0, HalfInt(1))], [])
        assert build_heisenberg(g).dense().max() == 0.0

    def test_three_site_path_against_hand_oracle(self):
        # independent construction with explicit 2x2 matrices
        sz = np.diag([0.5, -0.5])
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])
        sm = sp.T
        eye = np.eye(2)
        ss12 = kron3(sz, sz, eye) + 0.5 * kron3(sp, sm, eye) + 0.5 * kron3(sm, sp, eye)
        ss23 = kron3(eye, sz, sz) + 0.5 * kron3(eye, sp, sm) + 0.5 * kron3(eye, sm, sp)
        oracle = -(ss12 + ss23)
        g = SpinGraph.path([HalfInt(1)] * 3, [1.0, 1.0])
        h = build_heisenberg(g).dense()
        assert np.abs(h - oracle).max() <= 1e-14
        assert np.isclose(np.linalg.eigvalsh(h)[0], -0.5)

    def test_nonadjacent_edge_embedding(self):
        # triangle: edge (0,2) skips a site
        g = SpinGraph([(i, HalfInt(1)) for i in range(3)],
                      [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        h = build_heisenberg(g)
        assert commutator_maxabs(h.matrix, total_splus(g.shape)) <= 1e-12
        # total spin 3/2 multiplet at -3/4 * (number of edges) / ... oracle:
        # S.S summed over all pairs = (C - 3*3/4)/2, so H = -(C - 9/4)/2
        c = casimir(g.shape).toarray()
        expected = -(c - 2.25 * np.eye(8)) / 2.0
        assert np.abs(h.dense() - expected).max() <= 1e-12


class TestNormalizedChain:
    def test_two_halves_sector_energies(self):
        h = build_normalized_chain(ChainSpec(HALVES, [1.0]))
        assert np.allclose(np.linalg.eigvalsh(h.dense()), [0, 0, 0, 4])

    def test_two_ones_sector_energies(self):
        h = build_normalized_chain(ChainSpec([HalfInt(2)] * 2, [1.0]))
        w = np.sort(np.linalg.eigvalsh(h.dense()))
        assert np.allclose(w, [0] * 5 + [2] * 3 + [3])

    def test_polarized_state_in_kernel(self):
        chain = ChainSpec([HalfInt(2), HalfInt(1), HalfInt(3)], [0.7, 1.3])
        h = build_normalized_chain(chain).dense()
        e0 = np.zeros(h.shape[0])
        e0[0] = 1.0  # all-up product state is index 0
        assert np.abs(h @ e0).max() <= 1e-12
        assert np.linalg.eigvalsh(h)[0] >= -1e-10

    def test_affine_relation_to_heisenberg(self):
        js = [0.8, 1.1, 0.4]
        hn = build_normalized_chain(ChainSpec([HalfInt(1)] * 4, js)).dense()
        hh = build_heisenberg(SpinGraph.path([HalfInt(1)] * 4, js)).dense()
        assert np.abs(hn - (4.0 * hh + sum(js) * np.eye(16))).max() <= 1e-12

    def test_spin_zero_rejected(self):
        with pytest.raises(ValueError):
            build_normalized_chain(ChainSpec([HalfInt(1), HalfInt(0)], [1.0]))


class TestXXZChain:
    @pytest.mark.parametrize("delta", [1.05, 1.25, 2.0, 10.0])
    def test_two_site_spectrum(self, delta):
        w = np.linalg.eigvalsh(build_xxz_chain(2, delta).dense())
        assert np.allclose(np.sort(w), [0, 0, 0, 1], atol=1e-12)

    def test_large_delta_limit(self):
        bond = xxz_bond(1e8)
        # transverse part vanishes, boundary coefficient tends to 1/2
        assert abs(bond[1, 2]) <= 1e-7
        assert abs(xxz_boundary_coeff(1e8) - 0.5) <= 1e-8

    def test_three_site_ground_degeneracy(self):
        w = np.linalg.eigvalsh(build_xxz_chain(3, 1.25).dense())
        assert w[0] >= -1e-12
        assert np.sum(np.abs(w) <= 1e-10) >= 4  # maximal multiplet has L+1 members

    def test_polarized_states_have_zero_energy(self):
        h = build_xxz_chain(4, 1.5).dense()
        for idx in (0, 15):
            v = np.zeros(16)
            v[idx] = 1.0
            assert np.abs(h @ v).max() <= 1e-12

    def test_bond_is_singlet_projector(self):
        # the 4x4 bond is the orthogonal projector onto q|+-> - |-+>
        from foelab.qgroup import QParam

        qp = QParam(0.5)  # Delta = 1.25
        xi = np.array([0.0, qp.q, -1.0, 0.0])
        proj = np.outer(xi, xi) / (1.0 + qp.q ** 2)
        assert np.abs(xxz_bond(1.25) - proj).max() <= 1e-12

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            build_xxz_chain(3, 1.0)
        with pytest.raises(ValueError):
            build_xxz_chain(1, 2.0)


class TestSpin1BetaChain:
    def test_beta_zero_matches_normalized(self):
        hb = build_spin1_beta_chain(3, 0.0).dense()
        hn = build_normalized_chain(ChainSpec([HalfInt(2)] * 3, [1.0, 1.0])).dense()
        assert np.abs(hb - hn).max() <= 1e-12

    def test_two_site_bond_channels(self):
        # bond eigenvalues (1 - lam) + beta (1 - lam^2) at lam = 1, -1, -2
        for beta in (0.0, 1.0 / 3.0, 0.7):
            w = np.sort(np.linalg.eigvalsh(build_spin1_beta_chain(2, beta).dense()))
            expected = np.sort([0.0] * 5 + [2.0] * 3 + [3.0 - 3.0 * beta])
            assert np.allclose(w, expected, atol=1e-12)

    def test_maximal_sector_always_zero(self):
        for beta in (-0.2, 0.0, 0.5, 2.0):
            h = build_spin1_beta_chain(2, beta).dense()
            v = np.zeros(9)
            v[0] = 1.0
            assert np.abs(h @ v).max() <= 1e-12


class TestGeneralBondChain:
    def test_linear_poly_reproduces_heisenberg(self):
        js = [0.9, 1.4]
        polys = [BondPolynomial((0.0, -1.0))] * 2
        hg = build_general_bond_chain([HalfInt(1)] * 3, js, polys).dense()
        hh = build_heisenberg(SpinGraph.path([HalfInt(1)] * 3, js)).dense()
        assert np.abs(hg - hh).max() <= 1e-13

    def test_quadratic_poly_reproduces_beta_chain(self):
        beta = 0.4
        # (1 - lam) + beta (1 - lam^2) = (1 + beta) - lam - beta lam^2
        polys = [BondPolynomial((1.0 + beta, -1.0, -beta))] * 2
        hg = build_general_bond_chain([HalfInt(2)] * 3, [1.0, 1.0], polys).dense()
        hb = build_spin1_beta_chain(3, beta).dense()
        assert np.abs(hg - hb).max() <= 1e-12

    def test_constant_poly(self):
        polys = [BondPolynomial((2.5,))] * 3
        h = build_general_bond_chain([HalfInt(1)] * 4, [1.0] * 3, polys).dense()
        assert np.abs(h - 7.5 * np.eye(16)).max() == 0.0

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            build_general_bond_chain(HALVES, [1.0], [BondPolynomial((0, 1, 1))])

    def test_commutes_with_totals(self):
        polys = [BondPolynomial((0.3, -1.0, 0.2))]
        h = build_general_bond_chain([HalfInt(2), HalfInt(2)], [1.0], polys)
        shape = HilbertShape([HalfInt(2)] * 2)
        assert commutator_maxabs(h.matrix, total_splus(shape)) <= 1e-10
        assert commutator_maxabs(h.matrix, total_s3(shape)) <= 1e-10


class TestGraphSpec:
    def test_minimal_file(self):
        g = parse_graph_spec("site 0 1\nsite 1 1\nedge 0 1 1.0")
        assert g.nsites == 2
        assert g.sites[0][1] == HalfInt(1)
        assert g.edges == ((0, 1, 1.0),)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nsite 0 2  # spin 1\nsite 1 2\nedge 0 1 0.5\n"
        g = parse_graph_spec(text)
        assert g.sites[0][1] == HalfInt(2)

    def test_disconnected_warns(self):
        with pytest.warns(UserWarning, match="disconnected"):
            parse_graph_spec("site 0 1\nsite 1 1")

    def test_nonpositive_coupling(self):
        with pytest.raises(GraphSpecError):
            parse_graph_spec("site 0 1\nsite 1 1\nedge 0 1 -1")

    def test_duplicate_edge(self):
        with pytest.raises(GraphSpecError, match="duplicate"):
            parse_graph_spec("site 0 1\nsite 1 1\nedge 0 1 1\nedge 1 0 2")

    def test_unknown_site(self):
        with pytest.raises(GraphSpecError, match="unknown"):
            parse_graph_spec("site 0 1\nedge 0 3 1")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(GraphSpecError, match="line 2"):
            parse_graph_spec("site 0 1\nsite x 1")

    def test_unknown_directive(self):
        with pytest.raises(GraphSpecError, match="vertex"):
            parse_graph_spec("vertex 0 1")


class TestBuilderInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_su2_builders_commute_with_totals(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, max_sites=5, max_dim=300)
        h = build_normalized_chain(chain)
        assert commutator_maxabs(h.matrix, total_s3(chain.shape)) <= 1e-10
        assert commutator_maxabs(h.matrix, total_splus(chain.shape)) <= 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"max_sites": 1},
        {"max_dim": 3},
        {"max_dim": 8, "spin_choices": (2, 3)},
    ])
    def test_random_chain_rejects_unsatisfiable_limits(self, kwargs):
        with pytest.raises(ValueError, match="no chain"):
            random_chain(np.random.default_rng(0), **kwargs)

    def test_random_chain_smallest_dimension_allowed(self):
        chain = random_chain(np.random.default_rng(0), max_dim=4)
        assert [s.twice for s in chain.spins] == [1, 1]

    def test_xxz_commutes_with_s3_only(self):
        h = build_xxz_chain(4, 1.3)
        shape = HilbertShape([HalfInt(1)] * 4)
        assert commutator_maxabs(h.matrix, total_s3(shape)) <= 1e-12
        assert commutator_maxabs(h.matrix, total_splus(shape)) > 1e-3
