"""Parser, featurizer, scaffold and split behaviour."""

import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molbayes import bayes, chem
from molbayes.chem import (Atom, Bond, MoleculeGraph, SmilesError,
                           canonical_form, featurize, load_dataset,
                           murcko_scaffold, parse_smiles, scaffold_split)
from molbayes.errors import DataError
from conftest import synthetic_rows

MOLECULES = [
    "CC(=O)Oc1ccccc1C(=O)O",          # aspirin
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",     # caffeine
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",     # ibuprofen
    "c1ccc2ccccc2c1",                 # naphthalene
    "c1ccc(cc1)-c2ccccc2",            # biphenyl
    "C1CC2CCC1CC2",                   # bicyclooctane
    "C[N+](C)(C)C",                   # charged quaternary N
    "[NH4+].[Cl-]",                   # ion pair
    "N#Cc1ccccc1",                    # benzonitrile
    "O=S(=O)(N)c1ccccc1",             # sulfonamide
    "ClC(Cl)(Cl)Cl",
    "C1=CC=CC=C1",                    # kekulized benzene
    "OCC1OC(O)C(O)C(O)C1O",           # a sugar
]


def bond_set(m: MoleculeGraph):
    return {(min(b.i, b.j), max(b.i, b.j), b.order) for b in m.bonds}


def relabel(m: MoleculeGraph, perm) -> MoleculeGraph:
    atoms = [None] * len(m.atoms)
    for old, a in enumerate(m.atoms):
        atoms[perm[old]] = a
    bonds = [Bond(min(perm[b.i], perm[b.j]), max(perm[b.i], perm[b.j]),
                  b.order) for b in m.bonds]
    return MoleculeGraph(atoms, bonds)


# ---------------------------------------------------------------------------
# parsing


def test_single_atom():
    m = parse_smiles("C")
    assert len(m.atoms) == 1 and not m.bonds
    assert m.atoms[0].symbol == "C" and not m.atoms[0].aromatic


def test_ring_closure_triangle():
    m = parse_smiles("C1CC1")
    assert len(m.atoms) == 3
    assert bond_set(m) == {(0, 1, "single"), (1, 2, "single"),
                           (0, 2, "single")}


def test_branch_and_double_bond():
    m = parse_smiles("CC(=O)O")
    assert len(m.atoms) == 4
    assert bond_set(m) == {(0, 1, "single"), (1, 2, "double"),
                           (1, 3, "single")}


def test_aromatic_ring_defaults():
    m = parse_smiles("c1ccccc1")
    assert len(m.atoms) == 6
    assert all(a.aromatic for a in m.atoms)
    assert all(b.order == "aromatic" for b in m.bonds)
    assert len(m.bonds) == 6


def test_two_letter_elements_and_percent_ring():
    m = parse_smiles("ClC%10CCCC%10Br")
    symbols = [a.symbol for a in m.atoms]
    assert symbols[0] == "Cl" and symbols[-1] == "Br"
    assert len(m.adjacency()[1]) == 3  # ring closure landed on the right atom


def test_bracket_atom_fields():
    m = parse_smiles("[13C@@H2-2]")
    a = m.atoms[0]
    assert a.symbol == "C" and a.charge == -2 and a.h_count == 2
    assert parse_smiles("[NH4+]").atoms[0].charge == 1
    assert parse_smiles("[O--]").atoms[0].charge == -2
    assert parse_smiles("[Fe+3]").atoms[0].charge == 3
    assert parse_smiles("[nH]").atoms[0].aromatic
    assert parse_smiles("[se]").atoms[0].symbol == "Se"
    assert parse_smiles("[CH3:7]").atoms[0].h_count == 3
    # an aromatic letter alone in brackets
    assert parse_smiles("[c]1cc[n]cc1").atoms[0] == Atom("C", aromatic=True)
    assert parse_smiles("[c]1cc[n]cc1").atoms[3] == Atom("N", aromatic=True)


def test_dot_keeps_fragments_in_one_graph():
    m = parse_smiles("CC.O")
    assert len(m.atoms) == 3 and len(m.bonds) == 1


def test_stereo_markers_discarded():
    m = parse_smiles("F/C=C/F")
    assert bond_set(m) == {(0, 1, "single"), (1, 2, "double"),
                           (2, 3, "single")}


def test_explicit_single_between_aromatics():
    m = parse_smiles("c1ccc(cc1)-c2ccccc2")
    orders = sorted(b.order for b in m.bonds)
    assert orders.count("single") == 1 and orders.count("aromatic") == 12


@pytest.mark.parametrize("bad, offset", [
    ("", 0),
    # no atoms: the reference parser gave an empty graph
    (".", 0),
    ("..", 0),
    ("C(C", 1),
    ("CC)", 2),
    ("C1CC", 1),
    ("C=", 1),
    ("C==C", 2),
    ("=C", 0),
    ("C(=O", 1),
    ("C$C", 1),
    ("[Xx", 0),
    ("1CC1", 0),
    ("C11", 2),
    ("C=1CC#1", 6),
    ("C.=C", 2),
    # OpenSMILES digits are ASCII; '²'.isdigit() is True, int('²') fails
    ("C²", 1),
    ("C%²³", 1),
    ("[²C]", 1),
    ("[CH²]", 3),
    ("[C+²]", 3),
    ("[C:²]", 3),
    # element symbols are ASCII; 'É'.isupper() and 'Ω'.isupper() are True
    ("[É]", 1),
    ("[Ωx]", 1),
    ("[Cé]", 2),
])
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(SmilesError) as exc:
        parse_smiles(bad)
    assert exc.value.offset == offset


def test_parse_error_text():
    with pytest.raises(SmilesError) as exc:
        parse_smiles("C%1")
    assert str(exc.value) == ("% ring closure needs two digits "
                              "at character offset 1")


def test_duplicate_ring_bond_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("C12CC12")


def test_ring_digit_reuse_is_legal():
    m = parse_smiles("C1CC1C1CC1")
    assert len(m.bonds) == 7


def _parse_smiles_reference(s):
    """The parser ``parse_smiles`` replaced: one helper closure per
    token kind, a frozenset per bond checked for repeats, and an empty
    graph for a string of dots. Bracket atoms go through the same
    ``_parse_bracket``."""
    if not s:
        raise SmilesError("empty SMILES string", 0)
    atoms, bonds, seen_pairs = [], [], set()
    prev: Optional[int] = None
    pending: Optional[tuple[str, int]] = None
    stack: list = []
    rings: dict = {}
    bond_chars = {"-": "single", "=": "double", "#": "triple",
                  ":": "aromatic", "/": "single", "\\": "single"}

    def add_bond(i, j, order, offset):
        if i == j:
            raise SmilesError("ring closure bonds an atom to itself", offset)
        pair = frozenset((i, j))
        if pair in seen_pairs:
            raise SmilesError("duplicate bond between the same atoms", offset)
        seen_pairs.add(pair)
        if order is None:
            order = "aromatic" if atoms[i].aromatic and atoms[j].aromatic \
                else "single"
        bonds.append(Bond(i, j, order))

    def attach(idx, offset):
        nonlocal prev, pending
        if prev is not None:
            add_bond(prev, idx, pending[0] if pending else None, offset)
        pending = None
        prev = idx

    def close_ring(digit, offset):
        nonlocal pending
        if prev is None:
            raise SmilesError("ring digit before any atom", offset)
        here_order = pending[0] if pending else None
        pending = None
        if digit in rings:
            other, open_order, _ = rings.pop(digit)
            if open_order is not None and here_order is not None \
                    and open_order != here_order:
                raise SmilesError("conflicting bond orders on ring closure",
                                  offset)
            add_bond(other, prev, here_order or open_order, offset)
        else:
            rings[digit] = (prev, here_order, offset)

    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "[":
            atom, end = chem._parse_bracket(s, i)
            atoms.append(atom)
            attach(len(atoms) - 1, i)
            i = end + 1
        elif s[i:i + 2] in ("Cl", "Br"):
            atoms.append(Atom(s[i:i + 2]))
            attach(len(atoms) - 1, i)
            i += 2
        elif c in "BCNOPSFI":
            atoms.append(Atom(c))
            attach(len(atoms) - 1, i)
            i += 1
        elif c in "bcnops":
            atoms.append(Atom(c.upper(), aromatic=True))
            attach(len(atoms) - 1, i)
            i += 1
        elif c in bond_chars:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            if prev is None:
                raise SmilesError("bond symbol before any atom", i)
            pending = (bond_chars[c], i)
            i += 1
        elif c in "0123456789":
            close_ring(int(c), i)
            i += 1
        elif c == "%":
            if i + 2 >= n or s[i + 1] not in "0123456789" \
                    or s[i + 2] not in "0123456789":
                raise SmilesError("% ring closure needs two digits", i)
            close_ring(int(s[i + 1:i + 3]), i)
            i += 3
        elif c == "(":
            if prev is None:
                raise SmilesError("branch before any atom", i)
            if pending is not None:
                raise SmilesError("bond symbol before '('", pending[1])
            stack.append((prev, i))
            i += 1
        elif c == ")":
            if not stack:
                raise SmilesError("unbalanced parentheses", i)
            if pending is not None:
                raise SmilesError("dangling bond before ')'", pending[1])
            prev = stack.pop()[0]
            i += 1
        elif c == ".":
            if pending is not None:
                raise SmilesError("bond symbol before '.'", pending[1])
            prev = None
            i += 1
        else:
            raise SmilesError(f"unexpected character {c!r}", i)
    if pending is not None:
        raise SmilesError("dangling bond at end of string", pending[1])
    if stack:
        raise SmilesError("unbalanced parentheses", stack[-1][1])
    if rings:
        digit, (_, _, offset) = min(rings.items(), key=lambda kv: kv[1][2])
        raise SmilesError(f"unclosed ring digit {digit}", offset)
    return MoleculeGraph(atoms, bonds)


# tokens of the SMILES grammar, and a few it rejects; ring digits are
# frequent so that closures, self-bonds and repeated bonds come up
SMILES_TOKENS = ("C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "Cl",
                 "Br", "B", "P", "F", "I", "[nH]", "[O-]", "[NH4+]",
                 "[C@@H]", "[13CH3:2]", "[Fe+++]", "[se]", "(", ")", "(",
                 ")", "1", "1", "1", "2", "2", "3", "%12", "%12", "=", "#",
                 "-", ":", "/", "\\", ".")
JUNK_TOKENS = ("[", "]", "%1", "%", "$", "H", "l")


@st.composite
def smiles_strings(draw):
    """Token strings; half of them start at an atom, have their branches
    and rings closed and no rejected token, so that many of those parse."""
    tokens = draw(st.lists(st.sampled_from(SMILES_TOKENS + JUNK_TOKENS),
                           max_size=24))
    if draw(st.booleans()):
        tokens = ["C"] + [t for t in tokens if t not in JUNK_TOKENS]
        depth = 0
        for t in tokens:
            depth = max(0, depth + (t == "(") - (t == ")"))
        tokens += ["C"] + [")"] * depth
        tokens += [d for d in ("1", "2", "3", "%12")
                   if tokens.count(d) % 2]
    return "".join(tokens)


@settings(max_examples=500, deadline=None)
@given(smiles_strings())
def test_parser_matches_reference(s):
    # the same graph, or the same error at the same offset; a string of
    # dots is now an error where the reference gave a graph with no atoms
    try:
        want = _parse_smiles_reference(s)
    except SmilesError as e:
        with pytest.raises(SmilesError) as got:
            parse_smiles(s)
        assert (str(got.value), got.value.offset) == (str(e), e.offset)
        return
    if not want.atoms:
        with pytest.raises(SmilesError, match="no atoms"):
            parse_smiles(s)
        return
    got = parse_smiles(s)
    assert got.atoms == want.atoms and got.bonds == want.bonds


# ---------------------------------------------------------------------------
# featurization


def blocks(row):
    nv = len(chem.ELEMENT_VOCAB)
    return (row[:nv], row[nv:nv + 6], row[nv + 6:nv + 11], row[nv + 11:])


def test_methane_features():
    fg = featurize(parse_smiles("C"))
    assert fg.node_x.shape == (1, chem.NODE_DIM)
    elem, deg, charge, arom = blocks(fg.node_x[0])
    assert elem[chem.ELEMENT_VOCAB.index("C")] == 1 and elem.sum() == 1
    assert deg[0] == 1 and deg.sum() == 1
    assert charge[2] == 1 and charge.sum() == 1
    assert arom[0] == 0
    assert fg.edge_index.shape == (0, 2)


def test_benzene_features():
    fg = featurize(parse_smiles("c1ccccc1"))
    assert fg.node_x.shape == (6, 40)
    for row in fg.node_x:
        elem, deg, charge, arom = blocks(row)
        assert deg[2] == 1 and arom[0] == 1
    assert fg.edge_x.shape == (12, 4)
    assert np.all(fg.edge_x[:, chem.BOND_ORDERS.index("aromatic")] == 1)


def test_charge_slot_and_other_element():
    fg = featurize(parse_smiles("[NH4+]"))
    _, _, charge, _ = blocks(fg.node_x[0])
    assert charge[3] == 1  # slot order is -2,-1,0,+1,+2
    fg = featurize(parse_smiles("[U]"))
    elem = blocks(fg.node_x[0])[0]
    assert elem[-1] == 1  # out-of-vocabulary element lands in "other"


def test_one_hot_blocks_are_exactly_hot():
    for s in MOLECULES:
        fg = featurize(parse_smiles(s))
        for row in fg.node_x:
            elem, deg, charge, _ = blocks(row)
            assert elem.sum() == 1 and deg.sum() == 1 and charge.sum() == 1
        assert np.all(fg.edge_x.sum(axis=1) == 1)


def test_edges_sorted_by_destination():
    fg = featurize(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"))
    order = np.lexsort((fg.edge_index[:, 0], fg.edge_index[:, 1]))
    assert np.array_equal(order, np.arange(len(order)))
    # both directions present
    fwd = {tuple(e) for e in fg.edge_index}
    assert all((b, a) in fwd for a, b in fwd)


def _featurize_per_atom(m):
    """The per-atom, per-bond featurizer that ``featurize`` replaced."""
    n = len(m.atoms)
    node_x = np.zeros((n, chem.NODE_DIM), dtype=np.float64)
    deg = [len(row) for row in m.adjacency()]
    lo, hi = chem.CHARGE_RANGE
    nv = len(chem.ELEMENT_VOCAB)
    for idx, atom in enumerate(m.atoms):
        col = chem.ELEMENT_VOCAB.index(atom.symbol) \
            if atom.symbol in chem.ELEMENT_VOCAB else nv - 1
        node_x[idx, col] = 1.0
        node_x[idx, nv + min(int(deg[idx]), chem.MAX_DEGREE)] = 1.0
        q = min(max(atom.charge, lo), hi)
        node_x[idx, nv + chem.MAX_DEGREE + 1 + (q - lo)] = 1.0
        node_x[idx, chem.NODE_DIM - 1] = 1.0 if atom.aromatic else 0.0
    pairs, feats = [], []
    for b in m.bonds:
        row = np.zeros(chem.EDGE_DIM, dtype=np.float64)
        row[chem.BOND_ORDERS.index(b.order)] = 1.0
        pairs += [(b.i, b.j), (b.j, b.i)]
        feats += [row, row]
    if not pairs:
        return (node_x, np.zeros((0, chem.EDGE_DIM)),
                np.zeros((0, 2), dtype=np.int64))
    edge_index = np.array(pairs, dtype=np.int64)
    key = np.lexsort((edge_index[:, 0], edge_index[:, 1]))
    return node_x, np.stack(feats)[key], edge_index[key]


def test_featurize_matches_per_atom_reference():
    # one molecule at a time and all in one list, whose graphs are views
    # into three shared arrays; bond-less molecules and mixed charges sit
    # between the others
    smiles = [s for s, _ in synthetic_rows()] + MOLECULES + [
        "[O-]C(=O)C", "[Fe+++]", "[Cu-5]", "[N+9]C", "[C-]#[O+]",
        "[nH]1cccc1", "[Se]1C=CC=C1", "[13CH3:7]O", "[U]", "[Xe]",
        "c1ccccc1.[Na+]", "CC.CC.O", "C", "C=C#N", "CC(C)(C)(C)(C)C",
        "[Na+].[Cl-]", "[N+99999999999999999999]", "[O-2].[O--]"]
    molecules = [parse_smiles(s) for s in smiles]
    listed = featurize(molecules)
    assert len(listed) == len(molecules)
    for s, m, one, got in zip(smiles, molecules,
                              map(featurize, molecules), listed):
        want = _featurize_per_atom(m)
        for g in (one, got):
            for a, b in zip((g.node_x, g.edge_x, g.edge_index), want):
                assert a.dtype == b.dtype and a.shape == b.shape, s
                assert a.flags.c_contiguous and np.array_equal(a, b), s
        for name in ("node_x", "edge_x", "edge_index"):
            base = getattr(listed[0], name).base
            assert base is not None and getattr(got, name).base is base
    assert featurize([]) == []


# ---------------------------------------------------------------------------
# canonical form and scaffolds


def test_ring_digit_renaming_is_invisible():
    assert canonical_form(parse_smiles("C1CC1")) == \
        canonical_form(parse_smiles("C2CC2"))


def test_canonical_form_differs_across_molecules():
    assert canonical_form(parse_smiles("CCO")) != \
        canonical_form(parse_smiles("CCN"))


def test_canonical_form_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for s in MOLECULES:
        m = parse_smiles(s)
        want = canonical_form(m)
        for _ in range(5):
            perm = rng.permutation(len(m.atoms))
            assert canonical_form(relabel(m, perm)) == want, s


def test_canonical_form_roundtrip_fixed_point():
    for s in MOLECULES:
        key = canonical_form(parse_smiles(s))
        assert canonical_form(parse_smiles(key)) == key, s


def test_equivalent_spellings_share_canonical_form():
    assert canonical_form(parse_smiles("c1ccccc1")) == \
        canonical_form(parse_smiles("c1ccc(cc1)"))
    assert canonical_form(parse_smiles("CC(=O)O")) == \
        canonical_form(parse_smiles("OC(C)=O"))


def test_benzene_is_its_own_scaffold():
    benzene = parse_smiles("c1ccccc1")
    assert murcko_scaffold(benzene) == canonical_form(benzene)


def test_toluene_reduces_to_benzene():
    assert murcko_scaffold(parse_smiles("Cc1ccccc1")) == \
        murcko_scaffold(parse_smiles("c1ccccc1"))


def test_acyclic_scaffold_is_empty():
    assert murcko_scaffold(parse_smiles("CCO")) == ""
    assert murcko_scaffold(parse_smiles("CC(C)(C)CCCC")) == ""


def test_linkers_survive_pruning():
    # two rings joined by a chain keep the chain
    key = murcko_scaffold(parse_smiles("c1ccccc1CCc1ccccc1"))
    assert key == murcko_scaffold(parse_smiles("CCc1ccccc1CCc1ccccc1CC"))
    assert key != murcko_scaffold(parse_smiles("c1ccccc1Cc1ccccc1"))


def test_counterion_drops_out_of_scaffold():
    assert murcko_scaffold(parse_smiles("[Na+].c1ccccc1C(=O)O")) == \
        murcko_scaffold(parse_smiles("c1ccccc1"))


def test_scaffold_is_idempotent():
    for s in MOLECULES:
        key = murcko_scaffold(parse_smiles(s))
        if key:
            assert murcko_scaffold(parse_smiles(key)) == key, s


# exact keys that stored split manifests depend on; 1-WL alone cannot
# tell decalin from bicyclopentyl, and the search budget runs out between
# a 158- and a 159-atom ring, so the larger ring keys by refinement hash
PINNED_SCAFFOLD_KEYS = {  # name: (SMILES, scaffold key)
    "decalin": ("C1CCC2CCCCC2C1", "C2CCC1CCCCC1C2"),
    "bicyclopentyl": ("C1CCC(C1)C1CCCC1", "C1CCC(C1)C2CCCC2"),
    "adamantane": ("C1C2CC3CC1CC(C2)C3", "C1C2CC3CC1CC(C2)C3"),
    "cubane": ("C12C3C4C1C5C2C3C45", "C12C3C4C1C5C2C3C45"),
    "coronene": ("c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67",
                 "c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67"),
    "dodecahedrane": ("C17C2C8C3C9C4C%10C5C(C1C6C2C3C4C56)C%11C7C8C9C%10%11",
                      "wl:20:30:f9c0f4b392e845d3c5fb6290db695b53"),
    "ring158": ("C1" + "C" * 156 + "C1", "C1" + "C" * 156 + "C1"),
    "ring159": ("C1" + "C" * 157 + "C1",
                "wl:159:159:fd8844caf7269fc7c02ba19503a9c7bf"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCAFFOLD_KEYS))
def test_scaffold_keys_are_pinned(name):
    smiles, key = PINNED_SCAFFOLD_KEYS[name]
    assert murcko_scaffold(parse_smiles(smiles)) == key


def test_scaffold_deeper_than_recursion_limit(monkeypatch):
    # the canonical search is one loop: a linker longer than the
    # interpreter's recursion limit needs no change to that limit
    depth = 1100
    assert depth > sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError(f"recursion limit set to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    key = murcko_scaffold(parse_smiles("C1CC1" + "C" * depth + "C1CC1"))
    assert key == "C(" + "C" * 550 + "C1CC1)" + "C" * 549 + "C2CC2"


# ---------------------------------------------------------------------------
# scaffold split


def toy_dataset(smiles):
    labels = np.zeros((len(smiles), 1))
    labels[::2] = 1.0
    return chem.LabeledDataset(list(smiles), labels,
                               [parse_smiles(s) for s in smiles])


def test_split_ten_distinct_scaffolds():
    rings = [f"C1CCCCC1{'C' * k}" for k in range(5)]  # same scaffold family
    # ten distinct ring sizes to get ten distinct scaffolds
    smiles = [f"C1{'C' * k}1" if k >= 2 else "" for k in range(2, 12)]
    smiles = [f"C1{'C' * k}C1" for k in range(2, 12)]
    ds = toy_dataset(smiles)
    split = scaffold_split(ds, seed=3)
    assert (len(split["train"]), len(split["valid"]),
            len(split["test"])) == (8, 1, 1)
    del rings


def test_split_shuffle_draws_from_its_own_stream():
    # ten scaffolds of one molecule each: one run of ties, dealt 8/1/1
    ds = toy_dataset([f"C1{'C' * k}C1" for k in range(2, 12)])
    for seed in (0, 5, 123):
        split = scaffold_split(ds, seed=seed)
        by_key = sorted(range(len(ds)), key=ds.scaffold_key)
        perm = bayes.stream(seed, "split").permutation(len(ds))
        dealt = [by_key[p] for p in perm]
        assert sorted(split["train"]) == sorted(dealt[:8])
        assert split["valid"] == dealt[8:9]
        assert split["test"] == dealt[9:]
        # a generator seeded with the bare seed draws what "init" draws
        first = {purpose: bayes.stream(seed, purpose).random(4).tobytes()
                 for purpose in bayes.STREAM_IDS}
        first["seed"] = np.random.default_rng(seed).random(4).tobytes()
        split_draws = first.pop("split")
        assert split_draws not in first.values()


def test_split_degenerate_single_scaffold():
    ds = toy_dataset(["Cc1ccccc1", "CCc1ccccc1", "OCc1ccccc1",
                      "NCc1ccccc1"])
    split = scaffold_split(ds, seed=0)
    assert len(split["train"]) == 4 and not len(split["valid"]) \
        and not len(split["test"])
    assert any("empty" in w for w in split["summary"]["warnings"])
    assert split["summary"]["overrun"] == 0


def test_split_partitions_and_respects_scaffolds():
    rng = np.random.default_rng(11)
    cores = ["c1ccccc1", "C1CCCCC1", "c1ccncc1", "C1CCNCC1", "c1ccc2ccccc2c1",
             "C1CC1", "C1CCC1", "C1CCCC1", "C1CCOCC1", "c1ccsc1"]
    smiles = []
    for core in cores:
        for k in range(int(rng.integers(2, 9))):
            smiles.append("C" * (k + 1) + core)
    ds = toy_dataset(smiles)
    for seed in (0, 1):
        split = scaffold_split(ds, seed=seed)
        all_idx = split["train"] + split["valid"] + split["test"]
        assert sorted(all_idx) == list(range(len(ds)))
        for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
            ka = {ds.scaffold_key(i) for i in split[a]}
            kb = {ds.scaffold_key(i) for i in split[b]}
            assert not (ka & kb)
        assert len(split["train"]) >= len(split["valid"]) >= 0


def test_split_seed_changes_membership():
    smiles = [f"C1{'C' * k}C1" + "O" * j for k in range(2, 12)
              for j in range(3)]
    ds = toy_dataset(smiles)
    tests = {seed: set(scaffold_split(ds, seed=seed)["test"])
             for seed in range(6)}
    assert len(set(map(frozenset, tests.values()))) > 1
    for seed in range(6):  # same seed twice is identical
        again = set(scaffold_split(ds, seed=seed)["test"])
        assert again == tests[seed]


def test_split_rejects_bad_inputs():
    ds = toy_dataset(["C"])
    with pytest.raises(DataError):
        scaffold_split(ds, ratios=(0.9, 0.2, 0.1))
    empty = chem.LabeledDataset([], np.zeros((0, 1)), [])
    with pytest.raises(DataError):
        scaffold_split(empty)


# ---------------------------------------------------------------------------
# dataset loading


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_basic_csv(tmp_path):
    path = write_csv(tmp_path, "smiles,y\nCC,1\nCCO,0\nc1ccccc1,1\n")
    ds = load_dataset(path, "smiles", ["y"])
    assert len(ds) == 3 and ds.n_tasks == 1
    assert ds.labels[:, 0].tolist() == [1.0, 0.0, 1.0]
    assert ds.report.n_kept == 3 and ds.report.n_parse_failures == 0


def test_load_drops_unparseable_rows(tmp_path):
    path = write_csv(tmp_path, "smiles,y\nCC,1\nnot_a_smiles((,0\nCCO,1\n")
    ds = load_dataset(path, "smiles", ["y"])
    assert len(ds) == 2
    assert ds.report.n_parse_failures == 1 and ds.report.n_kept == 2


def test_load_missing_labels_and_all_missing(tmp_path):
    path = write_csv(tmp_path, "smiles,a,b\nCC,1,\nCCO,,\nCCC,0,1\n")
    ds = load_dataset(path, "smiles", ["a", "b"])
    assert len(ds) == 2
    assert ds.report.n_all_missing == 1
    assert np.isnan(ds.labels[0, 1]) and ds.labels[1, 1] == 1.0


def test_load_rejects_missing_column(tmp_path):
    path = write_csv(tmp_path, "smiles,y\nCC,1\n")
    with pytest.raises(DataError):
        load_dataset(path, "mol", ["y"])
    with pytest.raises(DataError):
        load_dataset(path, "smiles", ["Class"])
    with pytest.raises(DataError):
        load_dataset(str(tmp_path / "absent.csv"), "smiles", ["y"])


def test_load_rejects_non_binary_label(tmp_path):
    path = write_csv(tmp_path, "smiles,y\nCC,0.7\n")
    with pytest.raises(DataError):
        load_dataset(path, "smiles", ["y"])


def test_float_spelled_labels_accepted(tmp_path):
    path = write_csv(tmp_path, "smiles,y\nCC,1.0\nCCO,0.0\n")
    ds = load_dataset(path, "smiles", ["y"])
    assert ds.labels[:, 0].tolist() == [1.0, 0.0]
