"""Hamiltonian families on graphs and chains, plus the graph-spec parser.

All builders return a ``LocalHamiltonian`` whose terms are its bonds, each
a polynomial in S_x.S_y: each term commutes with its own sites' S^3 and
S^+, the precondition of the term-by-term invariance check in
``sectors``.  Couplings are strictly positive (ferromagnetic convention);
the sign conventions are:

    build_heisenberg        H = -sum_edges J_xy S_x.S_y
    build_normalized_chain  H = sum_x J_x (1 - S_x.S_{x+1}/(s_x s_{x+1}))
    build_spin1_beta_chain  H = sum_x (1 - S.S) + beta (1 - S.S)^2
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphSpecError
from .spinops import (
    HalfInt,
    HilbertShape,
    LocalHamiltonian,
    heisenberg_bond,
)

__all__ = [
    "SpinGraph",
    "ChainSpec",
    "build_heisenberg",
    "build_normalized_chain",
    "build_spin1_beta_chain",
    "parse_graph_spec",
    "random_chain",
]


class SpinGraph:
    """Finite graph with a spin magnitude s >= 0 per vertex and a finite
    J > 0 per edge."""

    __slots__ = ("sites", "edges", "_index")

    def __init__(self, sites, edges):
        sites = [(int(i), HalfInt.coerce(s)) for i, s in sites]
        sites.sort(key=lambda t: t[0])
        ids = [i for i, _ in sites]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids")
        if any(s.twice < 0 for _, s in sites):
            raise ValueError("spin magnitudes must be >= 0")
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
            if not 0 < j < np.inf:
                raise ValueError(f"coupling {j} on edge ({u},{v}) is not positive and finite")
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
        ends = np.array([(self._index[u], self._index[v]) for u, v, _ in self.edges],
                        dtype=np.int64).reshape(-1, 2)
        adj = sp.csr_matrix((np.ones(len(ends)), tuple(ends.T)), shape=(self.nsites,) * 2)
        return self.nsites < 2 or connected_components(adj, directed=False)[0] == 1

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
        if not all(0 < j < np.inf for j in self.couplings):
            raise ValueError("couplings must be positive and finite")

    @property
    def shape(self):
        return HilbertShape(self.spins)


def build_heisenberg(g: SpinGraph):
    """H = -sum_{edges} J_xy S_x.S_y on an arbitrary spin graph."""
    shape = g.shape
    terms = []
    for u, v, j in g.edges:
        x, y = g.site_position(u), g.site_position(v)
        terms.append(((x, y), -j * heisenberg_bond(shape.spins[x], shape.spins[y])))
    return LocalHamiltonian(shape, terms)


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
        ss = heisenberg_bond(s1, s2)
        terms.append(((x, x + 1), j * (np.eye(len(ss)) - ss / (s1.value * s2.value))))
    return LocalHamiltonian(shape, terms)


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
    ss = heisenberg_bond(HalfInt(2), HalfInt(2))
    bond = (np.eye(9) - ss) + beta * (np.eye(9) - ss @ ss)
    return LocalHamiltonian(shape, [((x, x + 1), bond) for x in range(L - 1)])


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
    couplings uniform in (0, j_max], total dimension capped at max_dim.

    Raises ValueError when no chain fits (max_sites < 2, or max_dim below
    the smallest two-site dimension), which would otherwise loop forever.
    """
    smallest = (min(spin_choices) + 1) ** 2
    if max_sites < 2 or max_dim < smallest:
        raise ValueError(f"no chain of 2..{max_sites} sites fits max_dim={max_dim} "
                         f"(the smallest has dimension {smallest})")
    while True:
        L = int(rng.integers(2, max_sites + 1))
        spins = [HalfInt(int(rng.choice(spin_choices))) for _ in range(L)]
        if HilbertShape(spins).dim <= max_dim:
            break
    couplings = j_max * (1.0 - rng.random(L - 1))  # uniform in (0, j_max]
    return ChainSpec(spins, couplings)

