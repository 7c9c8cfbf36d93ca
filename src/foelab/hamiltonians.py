"""Hamiltonian families on graphs and chains, plus the graph-spec parser.

All builders return RealOperator on the tensor-product basis with site 0
slowest.  Couplings are strictly positive (ferromagnetic convention); the
sign conventions are:

    build_heisenberg        H = -sum_edges J_xy S_x.S_y
    build_normalized_chain  H = sum_x J_x (1 - S_x.S_{x+1}/(s_x s_{x+1}))
    build_xxz_chain         anisotropic chain, Delta > 1, with the boundary
                            field that makes it quantum-group symmetric
    build_spin1_beta_chain  H = sum_x (1 - S.S) + beta (1 - S.S)^2
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GraphSpecError
from .spinops import (
    HalfInt,
    HilbertShape,
    RealOperator,
    _local_sum,
    heisenberg_bond,
    spin_matrices,
)

__all__ = [
    "SpinGraph",
    "ChainSpec",
    "BondPolynomial",
    "build_heisenberg",
    "build_normalized_chain",
    "build_xxz_chain",
    "xxz_boundary_coeff",
    "build_spin1_beta_chain",
    "build_general_bond_chain",
    "parse_graph_spec",
    "random_chain",
    "random_connected_graph",
]


class SpinGraph:
    """Finite graph with a spin magnitude per vertex and J > 0 per edge."""

    __slots__ = ("sites", "edges", "_index")

    def __init__(self, sites, edges, require_positive=True):
        sites = [(int(i), HalfInt.coerce(s)) for i, s in sites]
        sites.sort(key=lambda t: t[0])
        ids = [i for i, _ in sites]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids")
        self.sites = tuple(sites)
        self._index = {i: pos for pos, (i, _) in enumerate(sites)}
        seen = set()
        norm_edges = []
        for u, v, j in edges:
            u, v, j = int(u), int(v), float(j)
            if u == v:
                raise ValueError(f"self-loop at site {u}")
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u},{v}) references an unknown site id")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            if require_positive and j <= 0:
                raise ValueError(f"nonpositive coupling on edge ({u},{v})")
            norm_edges.append((key[0], key[1], j))
        self.edges = tuple(norm_edges)
        if not self.is_connected():
            warnings.warn("graph is disconnected", stacklevel=2)

    @property
    def nsites(self):
        return len(self.sites)

    def site_position(self, site_id):
        return self._index[site_id]

    @property
    def shape(self):
        return HilbertShape([s for _, s in self.sites])

    def is_connected(self):
        if self.nsites == 0:
            return True
        adj = {i: [] for i, _ in self.sites}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        start = self.sites[0][0]
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.nsites

    @classmethod
    def path(cls, spins, couplings):
        spins = list(spins)
        couplings = list(couplings)
        if len(couplings) != len(spins) - 1:
            raise ValueError("need exactly one coupling per chain bond")
        return cls(
            sites=[(i, s) for i, s in enumerate(spins)],
            edges=[(i, i + 1, j) for i, j in enumerate(couplings)],
        )


class ChainSpec:
    """Open chain: spin magnitudes s_1..s_L and couplings J_{x,x+1}."""

    __slots__ = ("spins", "couplings")

    def __init__(self, spins, couplings):
        self.spins = tuple(HalfInt.coerce(s) for s in spins)
        self.couplings = tuple(float(j) for j in couplings)
        if len(self.couplings) != len(self.spins) - 1:
            raise ValueError("need exactly one coupling per bond")
        if any(j <= 0 for j in self.couplings):
            raise ValueError("couplings must be strictly positive")

    @property
    def shape(self):
        return HilbertShape(self.spins)


@dataclass(frozen=True)
class BondPolynomial:
    """Polynomial sum_m coeffs[m] * (S_1.S_2)^m of a nearest-neighbour bond."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def of_matrix(self, m):
        out = np.zeros_like(m)
        power = np.eye(m.shape[0])
        for c in self.coeffs:
            out = out + c * power
            power = power @ m
        return out


def build_heisenberg(g: SpinGraph):
    """H = -sum_{edges} J_xy S_x.S_y on an arbitrary spin graph."""
    shape = g.shape
    terms = []
    for u, v, j in g.edges:
        x, y = g.site_position(u), g.site_position(v)
        bond = heisenberg_bond(shape.spins[x], shape.spins[y]).matrix
        terms.append(((x, y), -j * bond))
    return RealOperator(_local_sum(shape, terms), basis_tag="tensor-product")


def build_normalized_chain(c: ChainSpec):
    """Chain with bonds J_x (1 - S_x.S_{x+1}/(s_x s_{x+1})).

    Positive semidefinite; the fully polarized product state has energy 0.
    """
    shape = c.shape
    if any(s.twice == 0 for s in c.spins):
        raise ValueError("normalized chain requires every s_x > 0")
    terms = []
    for x, j in enumerate(c.couplings):
        s1, s2 = c.spins[x], c.spins[x + 1]
        ss = heisenberg_bond(s1, s2).dense()
        terms.append(((x, x + 1), j * (np.eye(len(ss)) - ss / (s1.value * s2.value))))
    return RealOperator(_local_sum(shape, terms), basis_tag="tensor-product")


def xxz_boundary_coeff(delta):
    """A(Delta) = (1/2) sqrt(1 - 1/Delta^2) for the XXZ boundary field."""
    if delta <= 1:
        raise ValueError("anisotropy Delta must be > 1")
    return 0.5 * np.sqrt(1.0 - 1.0 / delta**2)


def xxz_bond(delta):
    """One XXZ bond with its share of the boundary field (4x4, spin-1/2).

    h = -[Delta^-1 (S1 S1 + S2 S2) + S3 S3 - 1/4] - A(Delta) (S3_x - S3_{x+1})
    which is the orthogonal projector onto q|+-> - |-+>.  The sign of the
    boundary term is the one that commutes with the quantum-group generators
    (t-dressing to the left of S+); with the opposite sign the kernel method
    for sector energies would not see invariant subspaces.
    """
    a = xxz_boundary_coeff(delta)
    ops = spin_matrices(HalfInt(1))
    transverse = 0.5 * (np.kron(ops.splus, ops.sminus) + np.kron(ops.sminus, ops.splus))
    zz = np.kron(ops.sz, ops.sz)
    field = np.kron(ops.sz, np.eye(2)) - np.kron(np.eye(2), ops.sz)
    return -(transverse / delta + zz - 0.25 * np.eye(4)) - a * field


def build_xxz_chain(L, delta):
    """Spin-1/2 XXZ chain of length L with the symmetric boundary field."""
    L = int(L)
    if L < 2:
        raise ValueError("XXZ chain needs L >= 2")
    if delta <= 1:
        raise ValueError("anisotropy Delta must be > 1")
    shape = HilbertShape([HalfInt(1)] * L)
    bond = xxz_bond(delta)
    return RealOperator(_local_sum(shape, [((x, x + 1), bond) for x in range(L - 1)]))


def build_spin1_beta_chain(L, beta):
    """Spin-1 chain sum_x (1 - S.S) + beta (1 - (S.S)^2).

    Bond eigenvalues are {0, 2, 3 - 3 beta} on the two-site total-spin
    {2, 1, 0} channels, so adjacent sector minima cross at beta = 1/3 and
    the level ordering inverts beyond it.
    """
    L = int(L)
    if L < 2:
        raise ValueError("chain needs L >= 2")
    shape = HilbertShape([HalfInt(2)] * L)
    ss = heisenberg_bond(HalfInt(2), HalfInt(2)).dense()
    bond = (np.eye(9) - ss) + beta * (np.eye(9) - ss @ ss)
    return RealOperator(_local_sum(shape, [((x, x + 1), bond) for x in range(L - 1)]))


def build_general_bond_chain(spins, couplings, polys):
    """Chain with per-bond polynomial interactions J_x * p_x(S_x.S_{x+1})."""
    spins = [HalfInt.coerce(s) for s in spins]
    couplings = [float(j) for j in couplings]
    if len(couplings) != len(spins) - 1 or len(polys) != len(spins) - 1:
        raise ValueError("need one coupling and one polynomial per bond")
    shape = HilbertShape(spins)
    terms = []
    for x, (j, poly) in enumerate(zip(couplings, polys)):
        max_deg = min(spins[x].twice, spins[x + 1].twice)
        if poly.degree > max_deg:
            raise ValueError(
                f"bond {x}: polynomial degree {poly.degree} exceeds 2*min(s1,s2) = {max_deg}"
            )
        ss = heisenberg_bond(spins[x], spins[x + 1]).dense()
        terms.append(((x, x + 1), j * poly.of_matrix(ss)))
    return RealOperator(_local_sum(shape, terms), basis_tag="tensor-product")


def parse_graph_spec(text):
    """Parse the line-oriented graph format.

    One directive per line, '#' starts a comment:

        site <id:int> <twice_spin:int>
        edge <u:int> <v:int> <J:float>
    """
    sites, edges = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "site":
                if len(fields) != 3:
                    raise ValueError("expected: site <id> <twice_spin>")
                sites.append((int(fields[1]), HalfInt(int(fields[2]))))
            elif kind == "edge":
                if len(fields) != 4:
                    raise ValueError("expected: edge <u> <v> <J>")
                edges.append((int(fields[1]), int(fields[2]), float(fields[3])))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (ValueError, TypeError) as exc:
            raise GraphSpecError(str(exc), lineno=lineno) from None
    if not sites:
        raise GraphSpecError("no sites defined")
    try:
        return SpinGraph(sites, edges)
    except ValueError as exc:
        raise GraphSpecError(str(exc)) from None


def random_chain(rng, max_sites=8, max_dim=4096, spin_choices=(1, 2, 3), j_max=2.0):
    """Random ChainSpec: spins drawn from spin_choices (twice-values),
    couplings uniform in (0, j_max], total dimension capped at max_dim."""
    while True:
        L = int(rng.integers(2, max_sites + 1))
        spins = [HalfInt(int(rng.choice(spin_choices))) for _ in range(L)]
        dim = 1
        for s in spins:
            dim *= s.twice + 1
        if dim <= max_dim:
            break
    couplings = j_max * (1.0 - rng.random(L - 1))  # uniform in (0, j_max]
    return ChainSpec(spins, couplings)


def random_connected_graph(rng, nsites, extra_edges=2, spin=HalfInt(1), j_max=2.0):
    """Random connected SpinGraph: random spanning tree plus extra edges."""
    sites = [(i, spin) for i in range(nsites)]
    edges = {}
    for v in range(1, nsites):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(j_max * (1.0 - rng.random()))
    tries = 0
    while len(edges) < nsites - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        tries += 1
        u, v = rng.integers(0, nsites, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = float(j_max * (1.0 - rng.random()))
    return SpinGraph(sites, [(u, v, j) for (u, v), j in edges.items()])
