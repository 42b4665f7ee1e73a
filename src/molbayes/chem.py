"""Molecular graphs from SMILES, atom/bond features, scaffolds and splits.

The parser covers the organic subset, bracket atoms, ring closures,
branches and dot-separated fragments. Stereo markers are accepted and
discarded, and hydrogens are never graph nodes. A bracket atom's
hydrogen count is parsed into `Atom.h_count`, but neither `featurize`
nor `murcko_scaffold` reads it, so `Cc1cc[nH]c1` and `Cc1ccnc1` get
equal features and both the scaffold key `c1ccnc1`. Scaffolds are
computed by pruning non-ring side chains and serialized through a
canonical writer so that isomorphic scaffolds share one key string.
The writer's search over tie-broken DFS trees is one loop over a
worklist, so no graph is too deep for it.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .artifacts import read_text
from .bayes import stream
from .errors import DataError

BOND_ORDERS = ("single", "double", "triple", "aromatic")

# one-hot element vocabulary; the trailing slot absorbs anything else
ELEMENT_VOCAB = (
    "C", "N", "O", "S", "F", "Cl", "Br", "I", "P", "B",
    "Si", "Se", "As", "Na", "K", "Li", "Ca", "Mg", "Zn", "Fe",
    "Cu", "Mn", "Al", "Sn", "Hg", "Cr", "Pt", "other",
)
MAX_DEGREE = 5
CHARGE_RANGE = (-2, 2)
NODE_DIM = len(ELEMENT_VOCAB) + (MAX_DEGREE + 1) + 5 + 1  # 40
EDGE_DIM = len(BOND_ORDERS)

TOX21_TASKS = (
    "NR-AR", "NR-AR-LBD", "NR-AhR", "NR-Aromatase", "NR-ER", "NR-ER-LBD",
    "NR-PPAR-gamma", "SR-ARE", "SR-ATAD5", "SR-HSE", "SR-MMP", "SR-p53",
)

# default CSV column names per dataset
DATASET_COLUMNS = {
    "bace": ("mol", ("Class",)),
    "bbbp": ("smiles", ("p_np",)),
    "hiv": ("smiles", ("HIV_active",)),
    "tox21": ("smiles", TOX21_TASKS),
}


class SmilesError(DataError):
    """Parse failure at ``offset``, the character offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at character offset {offset}")
        self.offset = offset


class Atom(NamedTuple):
    symbol: str           # title case; aromaticity carried separately
    charge: int = 0
    aromatic: bool = False
    h_count: int = 0      # explicit bracket count only


class Bond(NamedTuple):
    i: int
    j: int
    order: str            # one of BOND_ORDERS


@dataclass
class MoleculeGraph:
    """Undirected heavy-atom graph; no self-loops, no duplicate bonds."""

    atoms: list[Atom]
    bonds: list[Bond]

    def adjacency(self) -> list[list[tuple[int, str]]]:
        adj: list[list[tuple[int, str]]] = [[] for _ in self.atoms]
        for b in self.bonds:
            adj[b.i].append((b.j, b.order))
            adj[b.j].append((b.i, b.order))
        for row in adj:
            row.sort()
        return adj


# ---------------------------------------------------------------------------
# SMILES parsing

# OpenSMILES digits and element symbols are ASCII; str.isdigit also
# takes '²', which int() refuses, and str.isupper takes 'É'
_DIGITS = frozenset("0123456789")
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
# organic-subset tokens and their atoms; an atom is an immutable tuple,
# so one object serves every occurrence
_ORGANIC = {**{c: Atom(c) for c in "BCNOPSFI"},
            **{c: Atom(c.upper(), aromatic=True) for c in "bcnops"}}
_ORGANIC_TWO = {"Cl": Atom("Cl"), "Br": Atom("Br")}
_BRACKET_AROMATIC = {"b", "c", "n", "o", "p", "s", "se", "as"}
_BOND_CHARS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
               "/": "single", "\\": "single"}


def _parse_bracket(s: str, start: int) -> tuple[Atom, int]:
    """Parse one [...] atom starting at the '['; returns (atom, end index)."""
    end = s.find("]", start)
    if end < 0:
        raise SmilesError("unclosed bracket atom", start)
    body = s[start + 1:end]
    at = start + 1          # the offset of body[0]
    pos = 0
    while pos < len(body) and body[pos] in _DIGITS:  # isotope, discarded
        pos += 1
    aromatic = False
    sym = ""
    if pos < len(body) and body[pos] in _UPPER:
        sym = body[pos]
        pos += 1
        # uppercase + lowercase = a two-letter element symbol
        if pos < len(body) and body[pos] in _LOWER:
            sym += body[pos]
            pos += 1
    elif pos < len(body) and body[pos] in _LOWER:
        # a one-letter body ("[c]") slices to one letter, which is in
        # the set too
        two = body[pos:pos + 2]
        if two in _BRACKET_AROMATIC:
            sym, pos, aromatic = two.capitalize(), pos + len(two), True
        elif body[pos] in _BRACKET_AROMATIC:
            sym, pos, aromatic = body[pos].upper(), pos + 1, True
        else:
            raise SmilesError(f"unknown element token {body[pos]!r}",
                              at + pos)
    else:
        raise SmilesError("missing element symbol in bracket", at + pos)
    while pos < len(body) and body[pos] == "@":  # chirality, discarded
        pos += 1
    h_count = 0
    if pos < len(body) and body[pos] == "H":
        pos += 1
        h_count = 1
        digits = ""
        while pos < len(body) and body[pos] in _DIGITS:
            digits += body[pos]
            pos += 1
        if digits:
            h_count = int(digits)
    charge = 0
    if pos < len(body) and body[pos] in "+-":
        sign = 1 if body[pos] == "+" else -1
        mark = body[pos]
        pos += 1
        digits = ""
        while pos < len(body) and body[pos] in _DIGITS:
            digits += body[pos]
            pos += 1
        if digits:
            charge = sign * int(digits)
        else:
            charge = sign
            while pos < len(body) and body[pos] == mark:
                charge += sign
                pos += 1
    if pos < len(body) and body[pos] == ":":  # atom map, discarded
        pos += 1
        if pos >= len(body) or body[pos] not in _DIGITS:
            raise SmilesError("atom map without number", at + pos)
        while pos < len(body) and body[pos] in _DIGITS:
            pos += 1
    if pos != len(body):
        raise SmilesError(f"unexpected character {body[pos]!r} in bracket "
                          f"atom", at + pos)
    return Atom(sym, charge, aromatic, h_count), end


def parse_smiles(s: str) -> MoleculeGraph:
    """Parse a SMILES string into a MoleculeGraph.

    Dot-separated fragments stay in one graph as separate components.
    Raises SmilesError (a DataError) with a character offset on malformed
    input, and on a string with no atoms (say ".").

    One pass over the characters. A chain bond always reaches a new atom,
    so only a ring closure can bond an atom to itself or repeat a bond:
    it checks the two atoms' chain neighbours and the earlier closures.
    """
    if not s:
        raise SmilesError("empty SMILES string", 0)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    chain: list[int] = []       # each atom's chain neighbour, or -1
    closures: set[tuple[int, int]] = set()
    prev = -1                   # the atom the next one bonds to; -1: none
    pending: Optional[str] = None       # bond order waiting for its atom
    pending_at = 0
    stack: list[tuple[int, int]] = []   # (prev, '(' offset)
    # open ring digit -> (atom, bond order, offset)
    rings: dict[int, tuple[int, Optional[str], int]] = {}
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c in _ORGANIC or c == "[":
            if c == "[":
                atom, end = _parse_bracket(s, i)
                i = end + 1
            elif s[i:i + 2] in _ORGANIC_TWO:
                atom = _ORGANIC_TWO[s[i:i + 2]]
                i += 2
            else:
                atom = _ORGANIC[c]
                i += 1
            k = len(atoms)
            if prev >= 0:
                bonds.append(Bond(prev, k, pending or (
                    "aromatic" if atom.aromatic and atoms[prev].aromatic
                    else "single")))
                pending = None
            atoms.append(atom)
            chain.append(prev)
            prev = k
        elif c in _DIGITS or c == "%":
            at = i
            if c == "%":
                if i + 2 >= n or s[i + 1] not in _DIGITS \
                        or s[i + 2] not in _DIGITS:
                    raise SmilesError("% ring closure needs two digits", i)
                digit = int(s[i + 1:i + 3])
                i += 3
            else:
                digit = int(c)
                i += 1
            if prev < 0:
                raise SmilesError("ring digit before any atom", at)
            here, pending = pending, None
            opened = rings.pop(digit, None)
            if opened is None:
                rings[digit] = (prev, here, at)
                continue
            other, order, _ = opened
            if order is not None and here is not None and order != here:
                raise SmilesError("conflicting bond orders on ring closure",
                                  at)
            if other == prev:
                raise SmilesError("ring closure bonds an atom to itself", at)
            pair = (other, prev) if other < prev else (prev, other)
            if chain[other] == prev or chain[prev] == other \
                    or pair in closures:
                raise SmilesError("duplicate bond between the same atoms", at)
            closures.add(pair)
            bonds.append(Bond(other, prev, here or order or (
                "aromatic" if atoms[other].aromatic and atoms[prev].aromatic
                else "single")))
        elif c in _BOND_CHARS:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            if prev < 0:
                raise SmilesError("bond symbol before any atom", i)
            pending, pending_at = _BOND_CHARS[c], i
            i += 1
        elif c == "(":
            if prev < 0:
                raise SmilesError("branch before any atom", i)
            if pending is not None:
                raise SmilesError("bond symbol before '('", pending_at)
            stack.append((prev, i))
            i += 1
        elif c == ")":
            if not stack:
                raise SmilesError("unbalanced parentheses", i)
            if pending is not None:
                raise SmilesError("dangling bond before ')'", pending_at)
            prev = stack.pop()[0]
            i += 1
        elif c == ".":
            if pending is not None:
                raise SmilesError("bond symbol before '.'", pending_at)
            prev = -1
            i += 1
        else:
            raise SmilesError(f"unexpected character {c!r}", i)
    if pending is not None:
        raise SmilesError("dangling bond at end of string", pending_at)
    if stack:
        raise SmilesError("unbalanced parentheses", stack[-1][1])
    if rings:
        digit, (_, _, offset) = min(rings.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unclosed ring digit {digit}", offset)
    if not atoms:
        raise SmilesError("SMILES string has no atoms", 0)
    return MoleculeGraph(atoms, bonds)


# ---------------------------------------------------------------------------
# featurization


@dataclass
class FeaturizedGraph:
    node_x: np.ndarray       # (|V|, NODE_DIM)
    edge_x: np.ndarray       # (2|E|, EDGE_DIM)
    edge_index: np.ndarray   # (2|E|, 2) int64 columns (src, dst)


_ELEMENT_COLUMN = {sym: k for k, sym in enumerate(ELEMENT_VOCAB)}
_BOND_COLUMN = {order: k for k, order in enumerate(BOND_ORDERS)}


def featurize(molecules: Union[MoleculeGraph, Sequence[MoleculeGraph]]
              ) -> Union[FeaturizedGraph, list[FeaturizedGraph]]:
    """One-hot atom and bond features; both bond directions materialized.

    Takes a list of molecules and featurizes them in one pass: each
    molecule's arrays are views into arrays shared by the list. One
    molecule, not in a list, gives its graph alone. Directed edges come
    out sorted by (dst, src) within each molecule so downstream segment
    reductions see a canonical order.
    """
    one = isinstance(molecules, MoleculeGraph)
    if one:
        molecules = [molecules]
    atoms = [a for m in molecules for a in m.atoms]
    bonds = [b for m in molecules for b in m.bonds]
    n, n_bonds = len(atoms), len(bonds)
    # each molecule's first atom and first directed edge, then the totals
    atom_at = np.cumsum([0, *(len(m.atoms) for m in molecules)])
    edge_at = 2 * np.cumsum([0, *(len(m.bonds) for m in molecules)])
    # bond ends numbered across the list: each molecule's atoms follow the
    # previous molecule's
    shift = np.repeat(atom_at[:-1], np.diff(edge_at) // 2)
    pairs = np.empty((2 * n_bonds, 2), dtype=np.int64)
    for end in (0, 1):
        pairs[0::2, end] = np.fromiter(map(itemgetter(end), bonds),
                                       np.int64, n_bonds) + shift
    pairs[1::2] = pairs[0::2, ::-1]
    degree = np.bincount(pairs[:, 0], minlength=n)
    # element, charge and aromatic columns once per distinct atom: a few
    # dozen atom kinds make up a library
    other = len(ELEMENT_VOCAB) - 1
    lo, hi = CHARGE_RANGE
    kinds = {a: k for k, a in enumerate(dict.fromkeys(atoms))}
    table = np.zeros((len(kinds), NODE_DIM), dtype=np.float64)
    for a, k in kinds.items():
        table[k, _ELEMENT_COLUMN.get(a.symbol, other)] = 1.0
        # clipped before it indexes: a bracket charge has no bound
        table[k, other + MAX_DEGREE + 2 + min(max(a.charge, lo), hi) - lo] \
            = 1.0
        table[k, NODE_DIM - 1] = a.aromatic
    node_x = table[np.fromiter(map(kinds.__getitem__, atoms), np.int64, n)]
    node_x[np.arange(n), other + 1 + np.minimum(degree, MAX_DEGREE)] = 1.0
    bond_col = np.repeat(np.fromiter(
        map(_BOND_COLUMN.__getitem__, map(itemgetter(2), bonds)),
        np.int64, n_bonds), 2)
    # keyed by (molecule, dst, src): the numbered dst orders the molecules
    key = np.lexsort((pairs[:, 0], pairs[:, 1]))
    edge_x = np.zeros((2 * n_bonds, EDGE_DIM), dtype=np.float64)
    edge_x[np.arange(2 * n_bonds), bond_col[key]] = 1.0
    edge_index = pairs[key] - np.repeat(atom_at[:-1],
                                        np.diff(edge_at))[:, None]
    atom_at, edge_at = atom_at.tolist(), edge_at.tolist()
    graphs = [FeaturizedGraph(node_x[a0:a1], edge_x[e0:e1], edge_index[e0:e1])
              for a0, a1, e0, e1 in zip(atom_at, atom_at[1:],
                                        edge_at, edge_at[1:])]
    return graphs[0] if one else graphs


# ---------------------------------------------------------------------------
# canonical serialization

_CANON_BUDGET = 100_000


class _BudgetExceeded(Exception):
    pass


def _subgraph(m: MoleculeGraph, keep: Sequence[int]) -> MoleculeGraph:
    keep = sorted(keep)
    remap = {old: new for new, old in enumerate(keep)}
    atoms = [m.atoms[i] for i in keep]
    bonds = [Bond(remap[b.i], remap[b.j], b.order)
             for b in m.bonds if b.i in remap and b.j in remap]
    return MoleculeGraph(atoms, bonds)


def _components(m: MoleculeGraph) -> list[list[int]]:
    adj = m.adjacency()
    seen = [False] * len(m.atoms)
    comps = []
    for start in range(len(m.atoms)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    frontier.append(v)
        comps.append(sorted(comp))
    return comps


def _wl_colors(g: MoleculeGraph,
               adj: list[list[tuple[int, str]]]) -> list[int]:
    """Iterative neighborhood refinement; returns a stable color per atom."""
    keys = [
        (a.symbol, a.charge, a.aromatic, len(adj[i]),
         tuple(sorted(o for _, o in adj[i])))
        for i, a in enumerate(g.atoms)
    ]
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    colors = [rank[k] for k in keys]
    while True:
        keys = [
            (colors[i], tuple(sorted((o, colors[j]) for j, o in adj[i])))
            for i in range(len(g.atoms))
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


_WRITABLE_PLAIN = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
_WRITABLE_AROMATIC = {"B", "C", "N", "O", "P", "S"}


def _atom_token(a: Atom) -> str:
    sym = a.symbol.lower() if a.aromatic else a.symbol
    plain = a.charge == 0 and (
        (a.aromatic and a.symbol in _WRITABLE_AROMATIC)
        or (not a.aromatic and a.symbol in _WRITABLE_PLAIN))
    if plain:
        return sym
    if a.charge == 0:
        q = ""
    elif a.charge == 1:
        q = "+"
    elif a.charge == -1:
        q = "-"
    else:
        q = f"{a.charge:+d}"
    return f"[{sym}{q}]"


def _bond_token(order: str, a: Atom, b: Atom) -> str:
    both = a.aromatic and b.aromatic
    if order == "single":
        return "-" if both else ""
    if order == "aromatic":
        return "" if both else ":"
    return "=" if order == "double" else "#"


def _ring_digit(k: int) -> str:
    if k <= 9:
        return str(k)
    if k <= 99:
        return f"%{k:02d}"
    raise _BudgetExceeded  # pathological ring count, fall back to hashing


def _write_tree(g: MoleculeGraph, adj: list[list[tuple[int, str]]],
                order: list[int], parent: dict[int, int]) -> str:
    """The SMILES a finished search writes from its ``order`` and ``parent``.

    Every bond off the tree is a ring closure, numbered by the discovery
    of its later end, then of its earlier end. Each atom writes its digits
    in closure order, the bond token at the opening end, then its children
    in discovery order, all but the last in parentheses.
    """
    atoms = g.atoms
    rank = {u: k for k, u in enumerate(order)}
    digits: list[list[str]] = [[] for _ in order]
    kids: list[list[tuple[int, str]]] = [[] for _ in order]
    closures = 0
    for u in order:
        for _, v, bond in sorted((rank[v], v, bond) for v, bond in adj[u]
                                 if rank[v] < rank[u]):
            if v == parent[u]:
                kids[v].append((u, bond))
                continue
            closures += 1
            digits[v].append(_bond_token(bond, atoms[v], atoms[u])
                             + _ring_digit(closures))
            digits[u].append(_ring_digit(closures))
    text: dict[int, str] = {}
    for u in reversed(order):
        branches = [_bond_token(bond, atoms[u], atoms[v]) + text[v]
                    for v, bond in kids[u]]
        text[u] = "".join([_atom_token(atoms[u]), *digits[u],
                           *(f"({b})" for b in branches[:-1]),
                           *branches[-1:]])
    return text[order[0]]


def _canon_component(g: MoleculeGraph, budget: list[int]) -> str:
    """Smallest string over every min-colour root and tie-broken DFS.

    One loop over a worklist of search states: the open path, the atoms in
    discovery order, and each entered atom's tree parent. Each state taken
    costs one step of ``budget``, which the molecule's components share.
    An empty path is a finished search, written by ``_write_tree``. A path
    whose last atom has no unvisited neighbour comes back without it, so
    each backtrack pop is a step too. Otherwise the state's successors
    extend the path by each min-colour unvisited neighbour, taken in
    ascending atom index.
    """
    n = len(g.atoms)
    if n == 1:
        return _atom_token(g.atoms[0])
    adj = g.adjacency()
    colors = _wl_colors(g, adj)
    cmin = min(colors)
    work = [([r], [r], {r: r})
            for r in reversed(range(n)) if colors[r] == cmin]
    best: Optional[str] = None
    while work:
        path, order, parent = work.pop()
        budget[0] -= 1
        if budget[0] <= 0:
            raise _BudgetExceeded
        if not path:
            s = _write_tree(g, adj, order, parent)
            if best is None or s < best:
                best = s
            continue
        u = path[-1]
        unvisited = [v for v, _ in adj[u] if v not in parent]
        if not unvisited:
            path.pop()
            work.append((path, order, parent))
            continue
        pick = min(colors[v] for v in unvisited)
        for v in reversed(unvisited):
            if colors[v] == pick:
                work.append((path + [v], order + [v], {**parent, v: u}))
    return best


def _wl_fingerprint(m: MoleculeGraph) -> str:
    colors = _wl_colors(m, m.adjacency())
    atom_part = sorted(
        (colors[i], a.symbol, a.charge, a.aromatic)
        for i, a in enumerate(m.atoms))
    bond_part = sorted(
        (min(colors[b.i], colors[b.j]), max(colors[b.i], colors[b.j]), b.order)
        for b in m.bonds)
    digest = hashlib.sha256(repr((atom_part, bond_part)).encode()).hexdigest()
    return f"wl:{len(m.atoms)}:{len(m.bonds)}:{digest[:32]}"


def canonical_form(m: MoleculeGraph) -> str:
    """Deterministic, atom-order-independent serialization of a graph.

    Components are canonicalized separately, sorted, and joined with dots.
    Ties in the refinement coloring are resolved by trying every tied root
    and DFS continuation and keeping the lexicographically smallest string.
    The search spends one step per state it takes and one per backtrack
    pop, shared across components. A graph that reaches step
    ``_CANON_BUDGET`` or needs more than 99 ring closures falls back to a
    refinement-hash key (still order-independent, but not parseable).
    """
    if not m.atoms:
        return ""
    budget = [_CANON_BUDGET]
    try:
        parts = sorted(_canon_component(_subgraph(m, comp), budget)
                       for comp in _components(m))
        return ".".join(parts)
    except _BudgetExceeded:
        return _wl_fingerprint(m)


# ---------------------------------------------------------------------------
# scaffolds


def murcko_scaffold(m: MoleculeGraph) -> str:
    """Ring-and-linker scaffold key; acyclic molecules give "".

    Atoms of degree 1 or 0 (never part of a ring) are deleted repeatedly
    until a fixed point; what survives is exactly the rings plus the paths
    connecting them.
    """
    keep = set(range(len(m.atoms)))
    adj = {i: set() for i in keep}
    for b in m.bonds:
        adj[b.i].add(b.j)
        adj[b.j].add(b.i)
    while True:
        prune = [i for i in keep if len(adj[i]) <= 1]
        if not prune:
            break
        for i in prune:
            for j in adj[i]:
                adj[j].discard(i)
            adj[i].clear()
            keep.discard(i)
    if not keep:
        return ""
    return canonical_form(_subgraph(m, keep))


# ---------------------------------------------------------------------------
# datasets


@dataclass
class LoadReport:
    n_kept: int = 0
    n_parse_failures: int = 0
    n_all_missing: int = 0


@dataclass
class LabeledDataset:
    """Molecules with their labels and parsed graphs.

    Each row's featurized graph and scaffold key are computed on first
    use and kept, so every split seed and every training seed shares one
    computation. The rows one request asks for are featurized in one
    pass.
    """

    smiles: list[str]
    labels: np.ndarray          # (N, T) float64, NaN where missing
    molecules: list[MoleculeGraph] = field(repr=False)
    report: LoadReport = field(default_factory=LoadReport)

    def __post_init__(self):
        self._graphs: list[Optional[FeaturizedGraph]] = [None] * len(self)
        self._keys: list[Optional[str]] = [None] * len(self)

    def __len__(self) -> int:
        return len(self.smiles)

    @property
    def n_tasks(self) -> int:
        return int(self.labels.shape[1])

    def graphs(self, indices: Sequence[int]) -> list[FeaturizedGraph]:
        """The featurized graphs of rows ``indices``. Rows not featurized
        yet are featurized together, in one call, and kept."""
        new = [i for i in dict.fromkeys(indices) if self._graphs[i] is None]
        if new:
            for i, g in zip(new, featurize([self.molecules[i] for i in new])):
                self._graphs[i] = g
        return [self._graphs[i] for i in indices]

    def scaffold_key(self, i: int) -> str:
        key = self._keys[i]
        if key is None:
            key = self._keys[i] = murcko_scaffold(self.molecules[i])
        return key


def _parse_label(cell: str, path: str, row: int, col: str) -> float:
    cell = cell.strip()
    if cell == "":
        return np.nan
    try:
        v = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {row} column {col!r}: label {cell!r} "
            "is not 0, 1 or empty") from None
    if v not in (0.0, 1.0):
        raise DataError(
            f"{path}: row {row} column {col!r}: label {cell!r} "
            "is not 0, 1 or empty")
    return v


def load_dataset(path: str, smiles_col: str,
                 label_cols: Sequence[str]) -> LabeledDataset:
    """Load a CSV of SMILES plus binary labels (empty cell = missing).

    Rows whose SMILES fail to parse, and rows with every label missing,
    are dropped and counted in the attached report. A file that cannot be
    read, is not UTF-8 or is not well-formed CSV raises DataError.
    """
    report = LoadReport()
    smiles: list[str] = []
    molecules: list[MoleculeGraph] = []
    rows: list[list[float]] = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        records = list(reader)
    except csv.Error as e:
        raise DataError(f"{path}: malformed CSV: {e}") from None
    header = reader.fieldnames or []
    for col in (smiles_col, *label_cols):
        if col not in header:
            raise DataError(f"{path}: missing column {col!r}; "
                            f"header has {header}")
    for lineno, record in enumerate(records, start=2):
        values = [_parse_label(record[c] or "", path, lineno, c)
                  for c in label_cols]
        if all(np.isnan(v) for v in values):
            report.n_all_missing += 1
            continue
        raw = (record[smiles_col] or "").strip()
        try:
            molecules.append(parse_smiles(raw))
        except SmilesError:
            report.n_parse_failures += 1
            continue
        smiles.append(raw)
        rows.append(values)
    report.n_kept = len(smiles)
    labels = np.array(rows, dtype=np.float64).reshape(len(smiles),
                                                      len(label_cols))
    return LabeledDataset(smiles, labels, molecules, report)


# ---------------------------------------------------------------------------
# scaffold split


def scaffold_split(ds: LabeledDataset,
                   ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                   seed: int = 0) -> dict:
    """Group molecules by scaffold key and deal groups into train/valid/test.

    Groups are ordered by (size descending, key ascending); a shuffle from
    the seed's ``split`` stream is applied within each run of equal-size
    groups, so the seed changes membership without ever letting one
    scaffold straddle two sets. Each group goes to the first of train,
    valid, test still under its quota; when all are full the group lands
    in train and counts as overrun.

    Returns the body of a split manifest: ``train``, ``valid`` and
    ``test`` as ascending lists of dataset indices, and a ``summary`` of
    the seed, the three sizes and quotas, the number of scaffolds, the
    overrun and any warnings.
    """
    if len(ds) == 0:
        raise DataError("cannot split an empty dataset")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    groups: dict[str, list[int]] = {}
    for idx in range(len(ds)):
        groups.setdefault(ds.scaffold_key(idx), []).append(idx)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    rng = stream(seed, "split")
    start = 0
    while start < len(ordered):
        stop = start
        while stop < len(ordered) \
                and len(ordered[stop][1]) == len(ordered[start][1]):
            stop += 1
        if stop - start > 1:
            run = ordered[start:stop]
            perm = rng.permutation(stop - start)
            ordered[start:stop] = [run[p] for p in perm]
        start = stop
    quotas = tuple(int(round(r * len(ds))) for r in ratios)
    sets: tuple[list[int], ...] = ([], [], [])
    overrun = 0
    for _, members in ordered:
        for k in range(3):
            if len(sets[k]) < quotas[k]:
                sets[k].extend(members)
                break
        else:
            sets[0].extend(members)
            overrun += len(members)
    warnings = []
    if not sets[1]:
        warnings.append("validation set is empty")
    if not sets[2]:
        warnings.append("test set is empty")
    if overrun:
        warnings.append(f"{overrun} molecules overran the train quota")
    return {"train": sorted(sets[0]), "valid": sorted(sets[1]),
            "test": sorted(sets[2]),
            "summary": {"seed": seed, "sizes": [len(m) for m in sets],
                        "quotas": list(quotas), "n_scaffolds": len(groups),
                        "overrun": overrun, "warnings": warnings}}
