"""Arc-diagram bases of highest-weight spaces and their Hamiltonian matrices.

For spin-1/2 chains the highest-weight space of weight S = k/2 - n has a
basis labelled by configurations of n arcs on k vertices that are
(i) non-crossing and (ii) never span an unpaired vertex.  Each arc stands
for a two-site singlet (q-deformed: q|+-> - |-+>), each unpaired vertex for
|+>.  The nearest-neighbour projector algebra acts on these diagrams by
local graphical rules, which makes the Hamiltonian matrix combinatorial:
nonpositive off-diagonal entries and a literal submatrix embedding when a
vertex is appended.

Diagrams are ordered by (last paired vertex, arc list); diagrams whose tail
vertices are unpaired therefore come first, in exactly the order of the
shorter chain's basis, which turns the submatrix statement into an index-wise
prefix comparison.

The higher-spin generalization (the Frenkel-Khovanov dual canonical basis)
is built by expanding ordered Ising configurations into spin-1/2 tensors,
pairing arrows by bracket matching, and symmetrizing within each site block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ReducibleMatrixError
from .hamiltonians import ChainSpec, build_normalized_chain
from .spinops import HalfInt

__all__ = [
    "ArcDiagram",
    "DiagramCombination",
    "TLMatrix",
    "enumerate_arc_diagrams",
    "tl_generator_action",
    "tl_hamiltonian_matrix",
    "embed_diagram",
    "check_dominance",
    "DominanceVerdict",
    "perron_ground_vector",
    "PerronResult",
    "min_spec_comparison",
    "MinSpecVerdict",
    "expand_diagram_to_tensor",
    "diagram_count",
    "OrderedIsingBlock",
    "FKBasisVector",
    "fk_highest_weight_basis",
    "fk_hamiltonian_matrix",
    "tl_matrix_csv_rows",
    "tl_basis_csv_rows",
]


class ArcDiagram:
    """Non-crossing pairing of vertices 1..k where no arc spans an unpaired one."""

    __slots__ = ("k", "arcs", "_partner")

    def __init__(self, k, arcs):
        self.k = int(k)
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))
        self._partner = {}
        for x, y in norm:
            if x == y or not (1 <= x <= self.k and 1 <= y <= self.k):
                raise ValueError(f"bad arc [{x},{y}] on {self.k} vertices")
            for v in (x, y):
                if v in self._partner:
                    raise ValueError(f"vertex {v} appears in two arcs")
            self._partner[x] = y
            self._partner[y] = x
        self.arcs = norm
        for (a, b), (c, d) in itertools.combinations(norm, 2):
            if a < c < b < d or c < a < d < b:
                raise ValueError(f"arcs [{a},{b}] and [{c},{d}] cross")
        for x, y in norm:
            for u in range(x + 1, y):
                if u not in self._partner:
                    raise ValueError(f"arc [{x},{y}] spans unpaired vertex {u}")

    @property
    def n_arcs(self):
        return len(self.arcs)

    def partner(self, v):
        return self._partner.get(v)

    def unpaired(self):
        return tuple(v for v in range(1, self.k + 1) if v not in self._partner)

    def sort_key(self):
        """(last paired vertex, arc list): tail-unpaired diagrams sort first
        and keep the order they have on the shorter chain."""
        last = max((y for _, y in self.arcs), default=0)
        return (last, self.arcs)

    def __eq__(self, other):
        return isinstance(other, ArcDiagram) and (self.k, self.arcs) == (other.k, other.arcs)

    def __hash__(self):
        return hash((self.k, self.arcs))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        body = ";".join(f"{x}-{y}" for x, y in self.arcs) or "empty"
        return f"ArcDiagram(k={self.k}, {body})"


@dataclass(frozen=True)
class DiagramCombination:
    """Finitely supported real combination of arc diagrams."""

    terms: dict

    def items(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __len__(self):
        return len(self.terms)


def diagram_count(k, n):
    """Number of valid diagrams: C(k,n) - C(k,n-1)."""
    return comb(k, n) - (comb(k, n - 1) if n >= 1 else 0)


def enumerate_arc_diagrams(k, n):
    """All n-arc diagrams on k vertices satisfying both rules, canonically ordered.

    A diagram is equivalent to a left-to-right walk where each vertex opens
    an arc, closes the most recent open arc, or stays unpaired; the no-span
    rule forces unpaired vertices to occur only at nesting depth zero.
    """
    k, n = int(k), int(n)
    if n < 0 or 2 * n > k:
        raise ValueError(f"need 0 <= 2n <= k, got k={k}, n={n}")
    out = []

    def walk(pos, stack, arcs, opened):
        if pos > k:
            if not stack and opened == n:
                out.append(ArcDiagram(k, arcs))
            return
        remaining = k - pos + 1
        if len(stack) > remaining:
            return
        if opened < n:
            walk(pos + 1, stack + [pos], arcs, opened + 1)
        if stack:
            walk(pos + 1, stack[:-1], arcs + [(stack[-1], pos)], opened)
        else:
            walk(pos + 1, stack, arcs, opened)

    walk(1, [], [], 0)
    out.sort(key=ArcDiagram.sort_key)
    if len(out) != diagram_count(k, n):
        raise AssertionError("diagram enumeration does not match the count formula")
    return out


def tl_generator_action(d, x, q=1.0):
    """Action of the bond generator U_{x,x+1} on a diagram.

    (i)  x and x+1 both unpaired        -> 0
    (ii) arc [x,x+1] present            -> -(q + 1/q) times the diagram
    (iii) exactly one of x,x+1 paired   -> +1 times the re-arched diagram
    (iv) both paired (to a and b)       -> +1 times the diagram with arcs
                                           [a,b] and [x,x+1] instead
    """
    if not 1 <= x < d.k:
        raise ValueError(f"bond index {x} out of range for k={d.k}")
    a, b = d.partner(x), d.partner(x + 1)
    if a is None and b is None:
        return DiagramCombination({})
    if a == x + 1:
        return DiagramCombination({d: -(q + 1.0 / q)})
    keep = [arc for arc in d.arcs if x not in arc and (x + 1) not in arc]
    new = [(x, x + 1)]
    if a is not None and b is not None:
        new.append((min(a, b), max(a, b)))
    beta = ArcDiagram(d.k, keep + new)
    return DiagramCombination({beta: 1.0})


def embed_diagram(d):
    """Same arcs on k+1 vertices; the new last vertex is unpaired."""
    return ArcDiagram(d.k + 1, d.arcs)


@dataclass(frozen=True)
class TLMatrix:
    """Matrix of H = -2 sum_x J_x U_{x,x+1} on the canonical diagram basis."""

    k: int
    n: int
    q: float
    couplings: tuple
    basis: tuple
    A: np.ndarray

    @property
    def dim(self):
        return len(self.basis)

    def off_diagonal_max(self):
        off = self.A - np.diag(np.diag(self.A))
        return float(off.max()) if off.size else 0.0


def tl_hamiltonian_matrix(k, n, couplings, q=1.0):
    """Assemble the diagram-basis matrix of -2 sum_x J_x U_{x,x+1}."""
    couplings = tuple(float(j) for j in couplings)
    if len(couplings) != k - 1:
        raise ValueError("need k-1 couplings")
    if any(j <= 0 for j in couplings):
        raise ValueError("couplings must be positive")
    basis = enumerate_arc_diagrams(k, n)
    index = {d: i for i, d in enumerate(basis)}
    A = np.zeros((len(basis), len(basis)))
    for col, alpha in enumerate(basis):
        for x in range(1, k):
            for beta, coeff in tl_generator_action(alpha, x, q).terms.items():
                A[index[beta], col] += -2.0 * couplings[x - 1] * coeff
    return TLMatrix(k=k, n=n, q=float(q), couplings=couplings,
                    basis=tuple(basis), A=A)


@dataclass(frozen=True)
class DominanceVerdict:
    ok: bool
    dims_ok: bool
    prefix_aligned: bool
    max_violation: float


def check_dominance(ak, ak1, tol=1e-12):
    """Entrywise A^{(k+1,S+1/2)} <= A^{(k,S)} on the shared basis prefix.

    Requires ak1 on k+1 vertices with the same arc count and couplings
    extended by one bond; the first d(k,S) basis diagrams of ak1 must be the
    embeddings of ak's basis in order (raises on misalignment).
    """
    if ak1.k != ak.k + 1 or ak1.n != ak.n:
        raise ValueError("dominance compares (k, n) against (k+1, n)")
    d = ak.dim
    expected = [embed_diagram(b) for b in ak.basis]
    aligned = list(ak1.basis[:d]) == expected
    if not aligned:
        raise ValueError("basis prefix misaligned; canonical order violated")
    diff = ak1.A[:d, :d] - ak.A
    max_violation = float(diff.max()) if diff.size else 0.0
    dims_ok = ak1.dim >= ak.dim
    return DominanceVerdict(ok=dims_ok and max_violation <= tol,
                            dims_ok=dims_ok, prefix_aligned=aligned,
                            max_violation=max_violation)


@dataclass(frozen=True)
class PerronResult:
    vector: np.ndarray
    eigenvalue: float
    gap: float


# Dense ``eig`` is faster below this dimension (measured at m = 75 and 110).
PERRON_SPARSE_MIN_DIM = 100


def _bottom_two_eigenpairs(a):
    """The two eigenpairs of lowest real part, sorted by real part.

    Sparse route: shift-invert ARPACK at sigma = Gershgorin lower bound - 1.
    A - sigma*I is then a nonsingular M-matrix, so the Perron root of A is
    the eigenvalue nearest sigma; for a real spectrum (every TL matrix is
    similar to a symmetric one) the next nearest is the second lowest.  The
    fixed start vector keeps the output bits identical between calls.
    """
    m = a.shape[0]
    if m < PERRON_SPARSE_MIN_DIM:
        w, vecs = np.linalg.eig(a)
    else:
        diag = np.diag(a)
        sigma = float(np.min(diag - (np.abs(a).sum(axis=1) - np.abs(diag)))) - 1.0
        try:
            w, vecs = sla.eigs(sp.csc_matrix(a), k=2, sigma=sigma, which="LM",
                               v0=np.ones(m), ncv=min(m, 20), tol=0)
        except sla.ArpackNoConvergence as exc:
            raise NumericalError(f"shift-invert eigs did not converge: {exc}") from exc
    order = np.argsort(w.real)[:2]
    return w[order], vecs[:, order]


def perron_ground_vector(A, positivity_tol=1e-10):
    """Strictly positive ground vector of an irreducible matrix with
    nonpositive off-diagonal entries.

    Irreducibility is tested as strong connectivity of the off-diagonal
    nonzero pattern (equivalent to irreducibility of c*I - A for the
    nonnegative matrix obtained after the diagonal shift).  Certified, else
    NumericalError: a real, simple bottom eigenvalue and a strictly positive
    vector with ||Av - lambda v|| <= 1e-9 ||A||_inf ||v||.
    """
    a = A.A if isinstance(A, TLMatrix) else np.asarray(A, dtype=float)
    m = a.shape[0]
    if m == 1:
        return PerronResult(vector=np.ones(1), eigenvalue=float(a[0, 0]), gap=np.inf)
    off = a - np.diag(np.diag(a))
    if off.max() > 0.0:
        raise ValueError("positive off-diagonal entry; no Perron-Frobenius claim")
    ncomp, _ = connected_components(sp.csr_matrix(off), directed=True,
                                    connection="strong")
    if ncomp != 1:
        raise ReducibleMatrixError(
            f"irreducibility failed ({ncomp} strongly connected components); "
            "no positivity claim"
        )
    w, vecs = _bottom_two_eigenpairs(a)
    scale = max(1.0, float(np.abs(a).sum(axis=1).max()))
    if abs(w[0].imag) > 1e-9 * scale:
        raise NumericalError("bottom eigenvalue came out complex")
    gap = float(w[1].real - w[0].real)
    if gap <= 1e-10 * scale:
        raise NumericalError(f"bottom eigenvalue not numerically simple (gap {gap:.3e})")
    lam = float(w[0].real)
    v = vecs[:, 0].real
    v = v / np.sign(v[np.argmax(np.abs(v))])
    residual = float(np.linalg.norm(a @ v - lam * v))
    if residual > 1e-9 * scale * np.linalg.norm(v):
        raise NumericalError(f"ground pair residual {residual:.3e} too large")
    if np.min(v) <= positivity_tol * np.max(np.abs(v)):
        raise NumericalError("ground vector is not strictly positive")
    return PerronResult(vector=v, eigenvalue=lam, gap=gap)


@dataclass(frozen=True)
class MinSpecVerdict:
    hypotheses_ok: bool
    reason: str
    inf_a: float
    inf_b: float
    inequality_ok: bool
    strict_condition: str  # "", "i", "ii" (first one that applies)
    strict_ok: bool


def _inf_spec(a):
    if np.allclose(a, a.T, atol=1e-12):
        return float(la.eigvalsh(a)[0])
    return float(np.min(np.linalg.eigvals(a).real))


def min_spec_comparison(A, B, tol=1e-12):
    """inf spec(B) <= inf spec(A) for B dominating A entrywise from below.

    A is n x n, B is m x m with n <= m, both with nonpositive off-diagonal
    entries, and B_ij <= A_ij on the shared block.  If B is irreducible and
    either (i) B_ij < A_ij somewhere in the block or (ii) B has a negative
    entry involving an index beyond n, the inequality is strict.  Hypothesis
    violations are reported without making any spectral claim.
    """
    a = A.A if isinstance(A, TLMatrix) else np.asarray(A, dtype=float)
    b = B.A if isinstance(B, TLMatrix) else np.asarray(B, dtype=float)
    n, m = a.shape[0], b.shape[0]
    if n > m:
        return MinSpecVerdict(False, "A larger than B", np.nan, np.nan, False, "", False)
    for name, mat in (("A", a), ("B", b)):
        off = mat - np.diag(np.diag(mat))
        if off.size and off.max() > tol:
            return MinSpecVerdict(False, f"{name} has positive off-diagonal entries",
                                  np.nan, np.nan, False, "", False)
    if (b[:n, :n] - a).max() > tol:
        return MinSpecVerdict(False, "B does not dominate A from below",
                              np.nan, np.nan, False, "", False)
    inf_a, inf_b = _inf_spec(a), _inf_spec(b)
    inequality_ok = inf_b <= inf_a + max(tol, 1e-10 * max(1.0, abs(inf_a)))
    strict_condition = ""
    ncomp, _ = connected_components(sp.csr_matrix(b - np.diag(np.diag(b))),
                                    directed=True, connection="strong")
    if ncomp == 1:
        if np.any(b[:n, :n] < a - tol):
            strict_condition = "i"
        else:
            outer = b.copy()
            outer[:n, :n] = 0.0
            np.fill_diagonal(outer, 0.0)
            if np.any(outer < -tol):
                strict_condition = "ii"
    strict_ok = (not strict_condition) or (inf_b < inf_a - 0.0)
    return MinSpecVerdict(True, "", inf_a, inf_b, inequality_ok,
                          strict_condition, strict_ok)


def expand_diagram_to_tensor(d, q=1.0):
    """Expanded vector in (C^2)^k: q|+-> - |-+> per arc, |+> on unpaired."""
    k = d.k
    v = np.zeros(2 ** k)
    arcs = d.arcs
    base = 0  # all |+> (bit 0 = |+>), site i weight 2^(k-1-i)
    for choice in itertools.product((0, 1), repeat=len(arcs)):
        idx = base
        coeff = 1.0
        for (x, y), c in zip(arcs, choice):
            if c == 0:  # + at x, - at y
                idx |= 1 << (k - y)
                coeff *= q
            else:  # - at x, + at y
                idx |= 1 << (k - x)
                coeff *= -1.0
        v[idx] += coeff
    return v


# ---------------------------------------------------------------------------
# Higher spin: dual canonical (Frenkel-Khovanov) basis


@dataclass(frozen=True)
class OrderedIsingBlock:
    """One site of magnitude s holding n_down lowered arrows (of 2s)."""

    s: HalfInt
    n_down: int


@dataclass(frozen=True)
class FKBasisVector:
    """Basis vector of a highest-weight space of a higher-spin chain."""

    blocks: tuple  # OrderedIsingBlock per site
    arcs: tuple  # cross-site pairing of arrow slots (1-indexed, global)
    expanded: np.ndarray  # vector in the chain's tensor-product space

    def sort_key(self):
        last = max((y for _, y in self.arcs), default=0)
        return (last, self.arcs)


def _bracket_match(downs):
    """Stack matching of an up/down arrow string.

    downs: boolean list per slot (True = down arrow).  Returns (arcs,
    unmatched_downs); each down pairs with the nearest unpaired up to its
    left, which can never create crossings or arcs over unpaired slots.
    """
    stack, arcs, unmatched = [], [], []
    for pos, is_down in enumerate(downs, start=1):
        if not is_down:
            stack.append(pos)
        elif stack:
            arcs.append((stack.pop(), pos))
        else:
            unmatched.append(pos)
    return tuple(sorted(arcs)), tuple(unmatched)


def _symmetrizer(twice_s):
    """Isometry from the spin-s site space into (C^2)^(2s) symmetric vectors."""
    d = twice_s + 1
    w = np.zeros((2 ** twice_s, d))
    for pattern in range(2 ** twice_s):
        ndown = bin(pattern).count("1")
        w[pattern, ndown] = 1.0
    for j in range(d):
        w[:, j] /= np.sqrt(comb(twice_s, j))
    return w


def _compositions(total, caps):
    """All tuples 0 <= c_i <= caps[i] with sum(c) == total."""
    if not caps:
        if total == 0:
            yield ()
        return
    head, rest = caps[0], caps[1:]
    for c in range(min(head, total) + 1):
        for tail in _compositions(total - c, rest):
            yield (c,) + tail


def fk_highest_weight_basis(spins, S):
    """Dual canonical basis of the weight-S highest-weight space of a chain.

    Each site of magnitude s is the symmetric part of 2s spin-1/2 arrows;
    an ordered Ising configuration places n_down down arrows (leftmost) in
    each block.  Bracket matching of the full arrow string produces the arc
    pattern; configurations whose downs all get matched (arc count
    sum(s_x) - S) label the basis.  Expansion replaces arcs by singlets,
    unpaired arrows by up spins, and symmetrizes within each block.
    """
    spins = [HalfInt.coerce(s) for s in spins]
    S = HalfInt.coerce(S)
    caps = [s.twice for s in spins]
    total_twice = sum(caps)
    n_twice = total_twice - S.twice
    if n_twice < 0 or n_twice % 2 != 0:
        raise ValueError(f"total spin {S} is not a label of this chain")
    n = n_twice // 2
    compress = None
    for c in caps:
        w = sp.csr_matrix(_symmetrizer(c).T)
        compress = w if compress is None else sp.kron(compress, w, format="csr")
    found = []
    for ndowns in _compositions(n, tuple(caps)):
        downs = []
        for c, nd in zip(caps, ndowns):
            downs.extend([True] * nd + [False] * (c - nd))
        arcs, unmatched = _bracket_match(downs)
        if unmatched:
            continue
        big = expand_diagram_to_tensor(ArcDiagram(len(downs), arcs), q=1.0)
        vec = compress @ big
        blocks = tuple(OrderedIsingBlock(s=s, n_down=nd)
                       for s, nd in zip(spins, ndowns))
        found.append(FKBasisVector(blocks=blocks, arcs=arcs, expanded=vec))
    found.sort(key=FKBasisVector.sort_key)
    return found


def fk_hamiltonian_matrix(spins, couplings, S, cond_limit=1e12):
    """Matrix of the normalized chain on the dual canonical basis.

    The basis is not orthogonal, so the coefficients are recovered through
    the Gram matrix: A = G^{-1} V^T H V.  Refuses when the Gram matrix is
    ill-conditioned.
    """
    basis = fk_highest_weight_basis(spins, S)
    if not basis:
        raise ValueError(f"empty basis for total spin {S}")
    v = np.column_stack([b.expanded for b in basis])
    h = build_normalized_chain(ChainSpec(spins, couplings))
    gram = v.T @ v
    cond = np.linalg.cond(gram)
    if cond > cond_limit:
        raise NumericalError(f"Gram matrix condition number {cond:.3e} exceeds {cond_limit:.0e}")
    return la.solve(gram, v.T @ (h.matrix @ v), assume_a="sym")


def tl_matrix_csv_rows(tl):
    """(row, col, value) triplets of the nonzero entries of a TLMatrix or a
    dense matrix, in row-major order."""
    a = tl.A if isinstance(tl, TLMatrix) else np.asarray(tl, dtype=float)
    rows, cols = np.nonzero(a)
    return list(zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()))


def tl_basis_csv_rows(tl_or_basis):
    """(diagram id, arc list) rows; arcs rendered like ``1-2;3-4``."""
    basis = tl_or_basis.basis if isinstance(tl_or_basis, TLMatrix) else tl_or_basis
    out = []
    for i, d in enumerate(basis):
        out.append((i, ";".join(f"{x}-{y}" for x, y in d.arcs) or "empty"))
    return out
