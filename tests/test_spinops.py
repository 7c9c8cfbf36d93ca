import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from foelab.hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    build_xxz_chain,
    xxz_bond,
)
from foelab.spinops import (
    HalfInt,
    HilbertShape,
    _local_sum,
    casimir,
    embed_product,
    embed_site,
    heisenberg_bond,
    spin_matrices,
    total_spin_ops,
)


def comm(a, b):
    return a @ b - b @ a


class TestHalfInt:
    def test_exact_arithmetic(self):
        a, b = HalfInt(3), HalfInt(1)  # 3/2 and 1/2
        assert (a + b).twice == 4
        assert (a - b) == HalfInt(2)
        assert a > b
        assert HalfInt(2) == 1
        assert -HalfInt(1) == HalfInt(-1)

    def test_coerce(self):
        assert HalfInt.coerce(1.5).twice == 3
        assert HalfInt.coerce(2).twice == 4
        with pytest.raises(ValueError):
            HalfInt.coerce(0.3)

    def test_hash_and_repr(self):
        assert len({HalfInt(1), HalfInt(1), HalfInt(2)}) == 2
        assert repr(HalfInt(1)) == "1/2"
        assert repr(HalfInt(4)) == "2"

    def test_is_integer(self):
        assert HalfInt(2).is_integer()
        assert not HalfInt(3).is_integer()


class TestSpinMatrices:
    def test_spin_half(self):
        ops = spin_matrices(HalfInt(1))
        assert np.array_equal(ops.sz, np.diag([0.5, -0.5]))
        assert np.array_equal(ops.splus, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(ops.sminus, ops.splus.T)

    def test_spin_one_ladder_entries(self):
        # <m+1|S+|m> = sqrt(s(s+1) - m(m+1)) gives sqrt(2) twice
        ops = spin_matrices(HalfInt(2))
        assert np.array_equal(np.diag(ops.sz), [1.0, 0.0, -1.0])
        assert np.allclose(ops.splus[ops.splus > 0], np.sqrt(2.0))

    def test_spin_zero(self):
        ops = spin_matrices(HalfInt(0))
        assert ops.sz.shape == (1, 1)
        assert not ops.sz.any() and not ops.splus.any()

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
    def test_ladder_commutator(self, twice_s):
        ops = spin_matrices(HalfInt(twice_s))
        assert np.allclose(comm(ops.splus, ops.sminus), 2 * ops.sz, atol=1e-12)

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            spin_matrices(HalfInt(-1))


class TestEmbedSite:
    def test_first_site(self):
        shape = HilbertShape([HalfInt(1), HalfInt(1)])
        op = embed_site(shape, 0, spin_matrices(HalfInt(1)).sz)
        assert np.allclose(op.dense(), np.diag([0.5, 0.5, -0.5, -0.5]))

    def test_identity(self):
        shape = HilbertShape([HalfInt(1)])
        op = embed_site(shape, 0, np.eye(2))
        assert np.array_equal(op.dense(), np.eye(2))

    def test_mixed_dims(self):
        shape = HilbertShape([HalfInt(1), HalfInt(2)])
        op = embed_site(shape, 1, spin_matrices(HalfInt(2)).sz)
        assert np.allclose(op.dense(), np.diag([1, 0, -1, 1, 0, -1]))

    def test_size_mismatch(self):
        shape = HilbertShape([HalfInt(1), HalfInt(2)])
        with pytest.raises(ValueError):
            embed_site(shape, 0, np.eye(3))


def kron_embed(shape, factors):
    """Reference: one sparse Kronecker factor per site, identity elsewhere."""
    ref = None
    for site, d in enumerate(shape.local_dims):
        f = sp.csr_matrix(factors[site]) if site in factors else sp.identity(d, format="csr")
        ref = f if ref is None else sp.kron(ref, f, format="csr")
    return ref


def assert_same_csr(out, ref):
    assert out.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(out, attr), getattr(ref, attr))


class TestEmbedProduct:
    @pytest.mark.parametrize("twice, sites", [
        ((1,) * 8, (3,)),
        ((1,) * 8, (0, 7)),
        ((2, 1, 3, 0, 2, 1), (1, 4)),
        ((2, 1, 3, 0, 2, 1), ()),
        ((3, 2), (0, 1)),
    ])
    def test_matches_site_by_site_kron(self, twice, sites):
        # the mixed-radix assembler gives the same CSR arrays as one kron per site
        shape = HilbertShape([HalfInt(t) for t in twice])
        factors = {s: spin_matrices(shape.spins[s]).splus for s in sites}
        assert_same_csr(embed_product(shape, factors), kron_embed(shape, factors))


ASSEMBLER_MAX_DIM = 1024


@st.composite
def mixed_spins(draw):
    """Twice-spins in {1, 2, 3}, 1 to 10 sites, total dimension <= 1024."""
    twice, dim = [], 1
    for _ in range(draw(st.integers(1, 10))):
        fits = [t for t in (1, 2, 3) if dim * (t + 1) <= ASSEMBLER_MAX_DIM]
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
    spins = draw(mixed_spins().filter(lambda s: len(s) >= 2))
    n = len(spins)
    edges = {(draw(st.integers(0, v - 1)), v): draw(couplings) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 4))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.setdefault((u, v), draw(couplings))
    return SpinGraph(list(enumerate(spins)), [(u, v, j) for (u, v), j in edges.items()])


def kron_chain_sum(shape, bonds):
    """Reference: nearest-neighbour bonds as I_left x bond x I_right, summed."""
    dims = shape.local_dims
    total = sp.csr_matrix((shape.dim, shape.dim))
    for x, bond in enumerate(bonds):
        left = int(np.prod(dims[:x], dtype=np.int64))
        right = int(np.prod(dims[x + 2:], dtype=np.int64))
        term = sp.kron(sp.kron(sp.identity(left), sp.csr_matrix(bond)),
                       sp.identity(right), format="csr")
        total = total + term
    return total


class TestLocalSum:
    """The mixed-radix assembler against the Kronecker constructions, exactly."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(spins=mixed_spins())
    def test_total_spin_ops(self, spins):
        shape = HilbertShape(spins)
        s3 = sp.csr_matrix((shape.dim, shape.dim))
        splus = sp.csr_matrix((shape.dim, shape.dim))
        for x, s in enumerate(spins):
            ops = spin_matrices(s)
            s3 = s3 + kron_embed(shape, {x: ops.sz})
            splus = splus + kron_embed(shape, {x: ops.splus})
        tot = total_spin_ops(shape)
        assert_same_csr(tot.s3tot.matrix, s3)
        assert_same_csr(tot.sptot.matrix, splus)
        assert_same_csr(tot.smtot.matrix, splus.T.tocsr())

    @settings(max_examples=40, deadline=None, database=None)
    @given(spins=mixed_spins().filter(lambda s: len(s) >= 2), data=st.data())
    def test_normalized_chain(self, spins, data):
        js = data.draw(st.lists(couplings, min_size=len(spins) - 1,
                                max_size=len(spins) - 1))
        chain = ChainSpec(spins, js)
        bonds = []
        for x, j in enumerate(js):
            s1, s2 = spins[x], spins[x + 1]
            ss = heisenberg_bond(s1, s2).dense()
            bonds.append(j * (np.eye(len(ss)) - ss / (s1.value * s2.value)))
        assert_same_csr(build_normalized_chain(chain).matrix,
                        kron_chain_sum(chain.shape, bonds))

    @settings(max_examples=40, deadline=None, database=None)
    @given(g=connected_graphs())
    def test_heisenberg_graph(self, g):
        shape = g.shape
        ref = sp.csr_matrix((shape.dim, shape.dim))
        for u, v, j in g.edges:
            x, y = g.site_position(u), g.site_position(v)
            a, b = spin_matrices(shape.spins[x]), spin_matrices(shape.spins[y])
            term = (kron_embed(shape, {x: a.sz, y: b.sz})
                    + 0.5 * kron_embed(shape, {x: a.splus, y: b.sminus})
                    + 0.5 * kron_embed(shape, {x: a.sminus, y: b.splus}))
            ref = ref - j * term
        assert_same_csr(build_heisenberg(g).matrix, ref)

    @settings(max_examples=10, deadline=None, database=None)
    @given(L=st.integers(2, 6), beta=st.floats(-2.0, 2.0))
    def test_spin1_beta_chain(self, L, beta):
        ss = heisenberg_bond(HalfInt(2), HalfInt(2)).dense()
        bond = (np.eye(9) - ss) + beta * (np.eye(9) - ss @ ss)
        shape = HilbertShape([HalfInt(2)] * L)
        assert_same_csr(build_spin1_beta_chain(L, beta).matrix,
                        kron_chain_sum(shape, [bond] * (L - 1)))

    @pytest.mark.parametrize("L, delta", [(2, 1.5), (5, 2.0), (9, 1.25)])
    def test_xxz_chain(self, L, delta):
        shape = HilbertShape([HalfInt(1)] * L)
        assert_same_csr(build_xxz_chain(L, delta).matrix,
                        kron_chain_sum(shape, [xxz_bond(delta)] * (L - 1)))

    def test_site_order_follows_kron_order(self):
        shape = HilbertShape([HalfInt(1), HalfInt(2), HalfInt(3)])
        a, b = spin_matrices(HalfInt(1)).splus, spin_matrices(HalfInt(3)).sz
        assert_same_csr(_local_sum(shape, [((2, 0), np.kron(b, a))]),
                        _local_sum(shape, [((0, 2), np.kron(a, b))]))

    def test_rejects_mismatched_local_matrix(self):
        shape = HilbertShape([HalfInt(1), HalfInt(2), HalfInt(1)])
        with pytest.raises(ValueError, match="dimension 6"):
            _local_sum(shape, [((0, 1), np.eye(4))])
        with pytest.raises(ValueError, match="not distinct sites"):
            _local_sum(shape, [((1, 1), np.eye(9))])
        with pytest.raises(ValueError, match="not distinct sites"):
            _local_sum(shape, [((2, 3), np.eye(4))])


class TestTotalSpinOps:
    def test_s3_two_halves(self):
        tot = total_spin_ops(HilbertShape([HalfInt(1), HalfInt(1)]))
        assert np.allclose(tot.s3tot.dense(), np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_single_site_is_local(self):
        tot = total_spin_ops(HilbertShape([HalfInt(1)]))
        assert np.allclose(tot.sptot.dense(), spin_matrices(HalfInt(1)).splus)

    def test_su2_commutator(self):
        tot = total_spin_ops(HilbertShape([HalfInt(1), HalfInt(1)]))
        lhs = comm(tot.sptot.dense(), tot.smtot.dense())
        assert np.allclose(lhs, 2 * tot.s3tot.dense(), atol=1e-12)


def cg_multiplicities(spins):
    """Independent oracle: repeated Clebsch-Gordan coupling.

    Keeps a multiset {2S: multiplicity} and couples one spin at a time via
    D^(a) x D^(b) = D^(|a-b|) + ... + D^(a+b).
    """
    mults = {0: 1}
    for s in spins:
        new = {}
        for ts, m in mults.items():
            for tj in range(abs(ts - s.twice), ts + s.twice + 1, 2):
                new[tj] = new.get(tj, 0) + m
        mults = new
    return {k: v for k, v in mults.items() if v > 0}


class TestCasimir:
    def test_two_halves(self):
        c = casimir(HilbertShape([HalfInt(1), HalfInt(1)]))
        assert np.allclose(np.linalg.eigvalsh(c.dense()), [0.0, 2.0, 2.0, 2.0])

    def test_three_halves(self):
        c = casimir(HilbertShape([HalfInt(1)] * 3))
        w = np.sort(np.linalg.eigvalsh(c.dense()))
        assert np.allclose(w, [0.75] * 4 + [3.75] * 4)

    def test_single_spin_one(self):
        c = casimir(HilbertShape([HalfInt(2)]))
        assert np.allclose(np.linalg.eigvalsh(c.dense()), [2.0] * 3)

    @pytest.mark.parametrize(
        "spins",
        [(1, 1), (1, 1, 1), (2, 1), (2, 2, 1), (3, 1, 2), (1, 1, 1, 1), (2, 2, 2)],
    )
    def test_spectrum_matches_clebsch_gordan(self, spins):
        shape = HilbertShape([HalfInt(t) for t in spins])
        w = np.linalg.eigvalsh(casimir(shape).dense())
        expected = []
        for ts, mult in cg_multiplicities(shape.spins).items():
            s = ts / 2.0
            expected.extend([s * (s + 1)] * (mult * (ts + 1)))
        assert np.allclose(np.sort(w), np.sort(expected), atol=1e-10)

    @pytest.mark.parametrize("spins", [(1, 1), (2, 1, 1), (1, 2, 3), (1, 1, 1, 2)])
    def test_commutes_with_totals(self, spins):
        shape = HilbertShape([HalfInt(t) for t in spins])
        c = casimir(shape).dense()
        tot = total_spin_ops(shape)
        for op in (tot.s3tot, tot.sptot, tot.smtot):
            assert np.abs(comm(c, op.dense())).max() <= 1e-10


class TestHeisenbergBond:
    def test_two_halves_eigenvalues(self):
        w = np.linalg.eigvalsh(heisenberg_bond(HalfInt(1), HalfInt(1)).dense())
        assert np.allclose(np.sort(w), [-0.75, 0.25, 0.25, 0.25])

    def test_two_ones_eigenvalues(self):
        w = np.linalg.eigvalsh(heisenberg_bond(HalfInt(2), HalfInt(2)).dense())
        assert np.allclose(np.sort(w), [-2.0] + [-1.0] * 3 + [1.0] * 5)

    def test_spin_zero_partner(self):
        assert not heisenberg_bond(HalfInt(1), HalfInt(0)).dense().any()

    @pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_equals_casimir_combination(self, pair):
        s1, s2 = HalfInt(pair[0]), HalfInt(pair[1])
        shape = HilbertShape([s1, s2])
        c2 = casimir(shape).dense()
        d = shape.dim
        expected = 0.5 * (
            c2
            - s1.value * (s1.value + 1) * np.eye(d)
            - s2.value * (s2.value + 1) * np.eye(d)
        )
        assert np.abs(heisenberg_bond(s1, s2).dense() - expected).max() <= 1e-12

    def test_commutes_with_two_site_totals(self):
        shape = HilbertShape([HalfInt(1), HalfInt(2)])
        bond = heisenberg_bond(HalfInt(1), HalfInt(2)).dense()
        tot = total_spin_ops(shape)
        for op in (tot.s3tot, tot.sptot, tot.smtot):
            assert np.abs(comm(bond, op.dense())).max() <= 1e-12


class TestRealOperator:
    def test_symmetry_detection(self):
        from foelab.spinops import RealOperator

        assert RealOperator(np.eye(3)).symmetric
        assert not RealOperator([[0.0, 1.0], [0.0, 0.0]]).symmetric

    def test_sub(self):
        from foelab.spinops import RealOperator

        op = RealOperator(np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T)
        assert np.array_equal(op.sub([0, 2]), op.dense()[np.ix_([0, 2], [0, 2])])
