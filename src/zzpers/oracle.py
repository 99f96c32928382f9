"""Brute-force ground truth: explicit Z2 homology, induced maps, and
interval decomposition of arbitrary zigzag modules.

The decomposition works through the generalized rank gr(i, j): the rank of
the canonical map from the limit to the colimit of the module restricted to
[i, j], which counts the intervals containing [i, j]. Interval
multiplicities follow by inclusion-exclusion:

    mult[b, d] = gr(b,d) - gr(b-1,d) - gr(b,d+1) + gr(b-1,d+1)

Limits are computed as iterated pullback kernels and colimits as iterated
pushout quotients, sweeping left to right so one sweep per start index
yields gr(i, j) for every j. Everything is Gaussian elimination over Z2 on
integer bitmasks with a fixed pivot order, so results are deterministic.

This module is the test-side authority; no production path calls it
except the ``zzpers oracle`` command.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .barcode import ABSOLUTE, RELATIVE, Barcode, Interval, classify_ends
from .complexes import Simplex, SimplicialComplex
from .errors import InternalInconsistencyError, InvalidInputError
from .filtration import ADD, ZigzagFiltration, _admitted
from .z2 import Echelon, Solver, apply_columns, kernel, rank


class _LinearSpaceChainFields(NamedTuple):
    dims: Tuple[int, ...]
    arrows: Tuple[Tuple[str, Tuple[int, ...]], ...]


class LinearSpaceChain(_LinearSpaceChainFields):
    """Zigzag of Z2 vector spaces: dims per index, one matrix per arrow.

    Arrow k is ('f', cols) for V_k -> V_{k+1} or ('b', cols) for
    V_{k+1} -> V_k; cols[j] is the image of the j-th source basis vector as
    a bitmask over target coordinates.
    """

    __slots__ = ()

    def __new__(cls, dims: Tuple[int, ...], arrows) -> "LinearSpaceChain":
        if len(arrows) != max(len(dims) - 1, 0):
            raise InvalidInputError("chain needs exactly one arrow between adjacent spaces")
        for k, (direction, cols) in enumerate(arrows):
            if direction not in ("f", "b"):
                raise InvalidInputError(f"unknown arrow direction {direction!r}")
            src = dims[k] if direction == "f" else dims[k + 1]
            tgt = dims[k + 1] if direction == "f" else dims[k]
            if len(cols) != src:
                raise InvalidInputError(f"arrow {k}: expected {src} columns, got {len(cols)}")
            if any(c >> tgt for c in cols):
                raise InvalidInputError(f"arrow {k}: column exceeds target dimension {tgt}")
        return tuple.__new__(cls, (dims, arrows))


def generalized_ranks(chain: LinearSpaceChain) -> Dict[Tuple[int, int], int]:
    """All non-zero gr(i, j) of the chain (absent entries are zero)."""
    dims = chain.dims
    n_spaces = len(dims)
    gr: Dict[Tuple[int, int], int] = {}

    for i in range(n_spaces):
        if dims[i] == 0:
            continue
        dim_l = dims[i]
        lam = [1 << t for t in range(dim_l)]  # limit -> V_k, in V_k coordinates
        iota = [1 << t for t in range(dim_l)]  # V_k -> colimit
        dim_c = dims[i]
        gr[(i, i)] = dims[i]
        for k in range(i, n_spaces - 1):
            direction, cols = chain.arrows[k]
            nk1 = dims[k + 1]
            if direction == "f":
                lam = [apply_columns(cols, v) for v in lam]
                # Pushout: quotient colimit + V_{k+1} by the graph of (iota, F).
                gens = [iota[x] | (cols[x] << dim_c) for x in range(dims[k])]
                ech = Echelon(gens)
                pivots = ech.pivots
                remap = {}
                for t in range(dim_c + nk1):
                    if t not in pivots:
                        remap[t] = len(remap)
                new_iota = []
                for y in range(nk1):
                    reduced = ech.canonical(1 << (dim_c + y))
                    image = 0
                    while reduced:
                        low = reduced & -reduced
                        image |= 1 << remap[low.bit_length() - 1]
                        reduced ^= low
                    new_iota.append(image)
                iota = new_iota
                dim_c = len(remap)
            else:
                # Pullback: compatible pairs in limit + V_{k+1}.
                kern = kernel(lam + list(cols))
                lam = [combo >> dim_l for combo in kern]
                dim_l = len(kern)
                iota = [apply_columns(iota, g) for g in cols]
            if dim_l == 0:
                break
            value = rank(apply_columns(iota, v) for v in lam)
            if value == 0:
                break  # gr is monotone in the window, so every later value is 0
            gr[(i, k + 1)] = value
    return gr


def zigzag_decompose(chain: LinearSpaceChain) -> Counter:
    """Interval multiplicities {(b, d): count} of the chain's module."""
    n_spaces = len(chain.dims)
    gr = generalized_ranks(chain)
    candidates = set()
    for (i, j) in gr:
        candidates.update(((i, j), (i + 1, j), (i, j - 1), (i + 1, j - 1)))
    counts: Counter = Counter()
    for b, d in candidates:
        if not (0 <= b <= d < n_spaces):
            continue
        mult = (
            gr.get((b, d), 0)
            - gr.get((b - 1, d), 0)
            - gr.get((b, d + 1), 0)
            + gr.get((b - 1, d + 1), 0)
        )
        if mult < 0:
            raise InternalInconsistencyError(
                f"negative multiplicity {mult} for interval [{b}, {d}]"
            )
        if mult:
            counts[(b, d)] = mult
    return counts


class ChainContext:
    """Global simplex indexing and boundary masks inside one total complex."""

    def __init__(self, K: SimplicialComplex):
        self.K = K
        self.simplices: Dict[int, Tuple[Simplex, ...]] = {}
        self.index: Dict[int, Dict[Simplex, int]] = {}
        self.bnd: Dict[int, List[int]] = {}
        for q in range(K.dim + 1):
            simps = K.of_dim(q)
            self.simplices[q] = simps
            self.index[q] = {s: i for i, s in enumerate(simps)}
        for q in range(1, K.dim + 1):
            lower = self.index[q - 1]
            cols = []
            for s in self.simplices[q]:
                vs = s.vertices
                mask = 0
                for i in range(len(vs)):
                    mask |= 1 << lower[Simplex(vs[:i] + vs[i + 1 :])]
                cols.append(mask)
            self.bnd[q] = cols


class HomSpace:
    """Z2 homology of a pair (X, A) with A a subcomplex of X, inside a context.

    Chains live on the q-simplices of X - A; bases and coordinate solvers
    are cached per dimension and computed with a fixed pivot order.
    """

    __slots__ = ("ctx", "cx", "sub", "_allowed", "_basis", "_solver", "_nhom")

    def __init__(self, ctx: ChainContext, cx: frozenset, sub: frozenset = frozenset()):
        self.ctx = ctx
        self.cx = cx
        self.sub = sub
        self._allowed: Dict[int, int] = {}
        self._basis: Dict[int, List[int]] = {}
        self._solver: Dict[int, Solver] = {}
        self._nhom: Dict[int, int] = {}

    def allowed(self, q: int) -> int:
        mask = self._allowed.get(q)
        if mask is None:
            idx = self.ctx.index.get(q, {})
            mask = 0
            for s, i in idx.items():
                if s in self.cx and s not in self.sub:
                    mask |= 1 << i
            self._allowed[q] = mask
        return mask

    def _compute(self, q: int) -> None:
        allowed_q = self.allowed(q)
        if allowed_q == 0:
            self._basis[q] = []
            self._solver[q] = Solver(())
            self._nhom[q] = 0
            return
        allowed_low = self.allowed(q - 1) if q > 0 else 0
        bnd_q = self.ctx.bnd.get(q)
        local: List[int] = []  # global bit positions of allowed q-simplices
        cols: List[int] = []
        mask = allowed_q
        while mask:
            low = mask & -mask
            g = low.bit_length() - 1
            local.append(g)
            cols.append(bnd_q[g] & allowed_low if bnd_q else 0)
            mask ^= low
        cycles = [self._expand(combo, local) for combo in kernel(cols)]
        bcols: List[int] = []
        bnd_up = self.ctx.bnd.get(q + 1)
        if bnd_up:
            up_mask = self.allowed(q + 1)
            while up_mask:
                low = up_mask & -up_mask
                bcols.append(bnd_up[low.bit_length() - 1] & allowed_q)
                up_mask ^= low
        ech = Echelon(bcols)
        hom = [z for z in cycles if ech.add(z)]
        self._basis[q] = hom
        self._solver[q] = Solver(hom + bcols)
        self._nhom[q] = len(hom)

    @staticmethod
    def _expand(combo: int, local: List[int]) -> int:
        out = 0
        while combo:
            low = combo & -combo
            out |= 1 << local[low.bit_length() - 1]
            combo ^= low
        return out

    def basis(self, q: int) -> List[int]:
        if q not in self._basis:
            self._compute(q)
        return self._basis[q]

    def rank(self, q: int) -> int:
        return len(self.basis(q))

    def coords(self, q: int, chain_mask: int) -> int:
        """Coordinates of a relative cycle in this space's homology basis."""
        if q not in self._basis:
            self._compute(q)
        combo = self._solver[q].solve(chain_mask)
        if combo is None:
            raise InternalInconsistencyError("chain is not a cycle of the target space")
        return combo & ((1 << self._nhom[q]) - 1)


def _induced_columns(src: HomSpace, dst: HomSpace, q: int) -> Tuple[int, ...]:
    dst_allowed = dst.allowed(q)
    return tuple(dst.coords(q, z & dst_allowed) for z in src.basis(q))


class HomologyBasis(NamedTuple):
    rank: int
    cycles: Tuple[frozenset, ...]  # each cycle as a set of q-simplices


class InducedMatrix(NamedTuple):
    src_rank: int
    dst_rank: int
    columns: Tuple[int, ...]


def _cycles_as_sets(ctx: ChainContext, q: int, masks: Iterable[int]) -> Tuple[frozenset, ...]:
    simps = ctx.simplices.get(q, ())
    out = []
    for mask in masks:
        members = set()
        while mask:
            low = mask & -mask
            members.add(simps[low.bit_length() - 1])
            mask ^= low
        out.append(frozenset(members))
    return tuple(out)


def homology_basis(K: SimplicialComplex, q: int) -> HomologyBasis:
    """Basis of H_q(K) as explicit cycle representatives."""
    ctx = ChainContext(K)
    space = HomSpace(ctx, K.simplex_set())
    basis = space.basis(q)
    return HomologyBasis(len(basis), _cycles_as_sets(ctx, q, basis))


def relative_homology_basis(K: SimplicialComplex, L: SimplicialComplex, q: int) -> HomologyBasis:
    """Basis of H_q(K, L) from the quotient chain complex."""
    if not L.simplex_set() <= K.simplex_set():
        raise InvalidInputError("L is not a subcomplex of K")
    ctx = ChainContext(K)
    space = HomSpace(ctx, K.simplex_set(), L.simplex_set())
    basis = space.basis(q)
    return HomologyBasis(len(basis), _cycles_as_sets(ctx, q, basis))


PairLike = Union[SimplicialComplex, Tuple[SimplicialComplex, Optional[SimplicialComplex]]]


def _as_pair(x: PairLike) -> Tuple[frozenset, frozenset]:
    if isinstance(x, SimplicialComplex):
        return x.simplex_set(), frozenset()
    cx, sub = x
    return cx.simplex_set(), sub.simplex_set() if sub is not None else frozenset()


def induced_map(src: PairLike, dst: PairLike, q: int) -> InducedMatrix:
    """Matrix of the inclusion-induced map on H_q in the deterministic bases."""
    scx, ssub = _as_pair(src)
    dcx, dsub = _as_pair(dst)
    if not (scx <= dcx and ssub <= dsub):
        raise InvalidInputError("source pair does not include into target pair")
    ctx = ChainContext(SimplicialComplex(dcx | scx))
    a = HomSpace(ctx, scx, ssub)
    b = HomSpace(ctx, dcx, dsub)
    return InducedMatrix(a.rank(q), b.rank(q), _induced_columns(a, b, q))


def sequence_barcode(
    pairs: Sequence[Tuple[frozenset, frozenset]],
    directions: Sequence[str],
    kind: str,
    qmax: Optional[int] = None,
) -> Barcode:
    """Barcode of an arbitrary zigzag of pair spaces, all dimensions.

    pairs[i] = (complex simplices, subcomplex simplices) at index i;
    directions[k] gives arrow k (ADD = forward inclusion of pairs).
    """
    if len(pairs) != len(directions) + 1:
        raise InvalidInputError("need one more space than arrows")
    m = len(directions)
    universe = SimplicialComplex(frozenset().union(*(cx for cx, _ in pairs)) or frozenset())
    ctx = ChainContext(universe)
    spaces = [HomSpace(ctx, cx, sub) for cx, sub in pairs]
    if qmax is None:
        qmax = universe.dim + (1 if any(sub for _, sub in pairs) else 0)
    intervals: Counter = Counter()
    for q in range(qmax + 1):
        dims = tuple(sp.rank(q) for sp in spaces)
        if not any(dims):
            continue
        arrows = []
        for k in range(m):
            if directions[k] == ADD:
                arrows.append(("f", _induced_columns(spaces[k], spaces[k + 1], q)))
            else:
                arrows.append(("b", _induced_columns(spaces[k + 1], spaces[k], q)))
        for (b, d), c in zigzag_decompose(LinearSpaceChain(dims, tuple(arrows))).items():
            bt, dt = classify_ends(b, d, directions)
            intervals[Interval(q, b, d, bt, dt)] += c
    return Barcode(intervals, m, kind)


def oracle_absolute(f: ZigzagFiltration) -> Barcode:
    """Ground-truth barcode of the absolute module of a valid f (repetition
    allowed; the shared admission, ``filtration._admitted``, raises
    InvalidInputError otherwise)."""
    _admitted(f)
    pairs = [(snap, frozenset()) for snap in f.snapshots()]
    return sequence_barcode(pairs, f.directions(), ABSOLUTE)


def oracle_relative(f: ZigzagFiltration) -> Barcode:
    """Ground-truth barcode of the pairs (K, K_i) with K the total complex,
    for a valid f (admitted as in ``oracle_absolute``)."""
    _admitted(f)
    total = f.total_complex().simplex_set()
    pairs = [(total, snap) for snap in f.snapshots()]
    qmax = SimplicialComplex(total).dim + 1
    return sequence_barcode(pairs, f.directions(), RELATIVE, qmax=qmax)


def oracle_extended(U: ZigzagFiltration) -> Counter:
    """(dim, b, d) multiset of the two-sided sequence of an up-down filtration.

    The sequence runs through the complexes of the up phase and then the
    pairs (K, L_j) with shrinking L_j, all arrows forward; it is the oracle
    counterpart of the coned reduction."""
    snaps = list(U.snapshots())
    m = len(U)
    n = m // 2
    if m != 2 * n:
        raise InvalidInputError("up-down filtration must have even length")
    total = snaps[n]
    pairs = [(snaps[i], frozenset()) for i in range(n + 1)]
    pairs += [(total, snaps[3 * n - i]) for i in range(n + 1, 2 * n + 1)]
    bar = sequence_barcode(pairs, (ADD,) * m, ABSOLUTE)
    out: Counter = Counter()
    for iv, c in bar.counts().items():
        out[(iv.dim, iv.b, iv.d)] += c
    return out
