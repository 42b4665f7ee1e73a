"""Seeded generator of the benchmark's inputs: a labeled corpus and a library.

Molecules are built from ring, linker and substituent fragments. A fixed
pool of ring-and-linker scaffolds is drawn first and each molecule
decorates one pool member with acyclic substituents, so every Bemis-Murcko
group has several members (drawing every molecule from fresh fragments
leaves most scaffolds as singletons). The label is a fixed function of
the atoms, thresholded at the corpus median so the classes are roughly
balanced. The library uses its own scaffold pool, shares no SMILES with
the corpus, and carries a fixed number of malformed lines.

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

# ring atoms in ring order; index 0 is always able to take a bond
# ("c", "C" or "N"), which is where the previous linker attaches
RINGS = (
    ("c", "c", "c", "c", "c", "c"),          # benzene
    ("c", "c", "n", "c", "c", "c"),          # pyridine
    ("c", "n", "c", "n", "c", "c"),          # pyrimidine
    ("c", "c", "s", "c", "c"),               # thiophene
    ("c", "c", "o", "c", "c"),               # furan
    ("c", "s", "c", "n", "c"),               # thiazole
    ("C", "C", "C", "C", "C", "C"),          # cyclohexane
    ("N", "C", "C", "C", "C", "C"),          # piperidine
    ("N", "C", "C", "N", "C", "C"),          # piperazine
    ("N", "C", "C", "O", "C", "C"),          # morpholine
    ("C", "C", "C", "C", "C"),               # cyclopentane
    ("C", "C", "C"),                         # cyclopropane
    ("C", "C", "O", "C", "C", "C"),          # tetrahydropyran
)
LINKERS = ("-", "C", "CC", "C(=O)N", "NC(=O)", "O", "N", "S", "CO",
           "OC", "C(=O)", "CN", "NC", "CCO")
SUBSTITUENTS = ("C", "CC", "OC", "N", "F", "Cl", "Br", "C(=O)N",
                "C(F)(F)F", "OCC", "C(=O)O", "C#N", "NC(C)=O",
                "S(C)(=O)=O", "CO", "N(C)C", "OC(F)F", "CC(C)C")

# per-element label weights; aromatic atoms count against
LABEL_WEIGHTS = {"N": 1.0, "O": 0.55, "F": 0.8, "Cl": 0.85, "Br": 0.9,
                 "S": 0.35, "C": -0.04}
AROMATIC_WEIGHT = -0.12

GROUP_SIZE = 8            # molecules per pool scaffold, on average
TARGET_HEAVY_ATOMS = 24
CANDIDATES = 3

_ATOM_RE = re.compile(r"Cl|Br|[BCNOPSFI]|[cnops]")
_BONDABLE = ("c", "C", "N")

# corruptions the SMILES grammar rejects: unbalanced branch, dangling
# bond, a character outside the grammar, a ring digit left open
MALFORMED = (lambda s: s + "(",
             lambda s: s + "=",
             lambda s: s[:len(s) // 2] + "$" + s[len(s) // 2:],
             lambda s: s.replace("1", "", 1))


@dataclass(frozen=True)
class Scaffold:
    rings: tuple[int, ...]       # indices into RINGS
    exits: tuple[int, ...]       # exit position of every ring but the last
    linkers: tuple[str, ...]     # one per gap between rings
    slots: tuple[tuple[int, int], ...]   # (ring number, position) open sites


def _draw_scaffold(rng: random.Random) -> Scaffold:
    n_rings = 3 if rng.random() < 0.6 else 2
    rings = tuple(rng.randrange(len(RINGS)) for _ in range(n_rings))
    exits, slots = [], []
    for r, ring_id in enumerate(rings):
        atoms = RINGS[ring_id]
        bondable = [p for p in range(1, len(atoms)) if atoms[p] in _BONDABLE]
        exit_pos = None
        if r < n_rings - 1:
            exit_pos = rng.choice(bondable)
            exits.append(exit_pos)
        first_open = r == 0 and atoms[0] in _BONDABLE
        for p in ([0] if first_open else []) + bondable:
            if p != exit_pos:
                slots.append((r, p))
    linkers = tuple(rng.choice(LINKERS) for _ in range(n_rings - 1))
    return Scaffold(rings, tuple(exits), linkers, tuple(slots))


def _ring_smiles(atoms, exit_pos, subs: dict[int, str]) -> str:
    """One ring opened and closed with digit 1, continuing from exit_pos.

    Atoms after the exit go in a branch that closes the ring, so the
    rest of the molecule attaches to the exit atom and digit 1 is free
    again for the next ring.
    """
    def atom(p):
        tok = atoms[p] + ("1" if p in (0, len(atoms) - 1) else "")
        return tok + (f"({subs[p]})" if p in subs else "")

    n = len(atoms)
    if exit_pos is None or exit_pos == n - 1:
        return "".join(atom(p) for p in range(n))
    head = "".join(atom(p) for p in range(exit_pos + 1))
    tail = "".join(atom(p) for p in range(exit_pos + 1, n))
    return f"{head}({tail})"


def molecule_smiles(s: Scaffold, decoration: dict) -> str:
    parts = []
    for r, ring_id in enumerate(s.rings):
        subs = {p: sub for (rr, p), sub in decoration.items() if rr == r}
        exit_pos = s.exits[r] if r < len(s.exits) else None
        parts.append(_ring_smiles(RINGS[ring_id], exit_pos, subs))
        if r < len(s.linkers):
            parts.append(s.linkers[r])
    return "".join(parts)


def _decorate(s: Scaffold, rng: random.Random) -> dict:
    k = min(len(s.slots), rng.choice((1, 2, 2, 3, 3, 4)))
    sites = rng.sample(s.slots, k)
    return {site: rng.choice(SUBSTITUENTS) for site in sorted(sites)}


def heavy_atoms(smiles: str) -> list[str]:
    return _ATOM_RE.findall(smiles)


def label_score(smiles: str) -> float:
    score = 0.0
    for tok in heavy_atoms(smiles):
        score += LABEL_WEIGHTS.get(tok.capitalize(), 0.0)
        if tok.islower():
            score += AROMATIC_WEIGHT
    return score


def _draw_set(rng: random.Random, n_mols: int, n_scaffolds: int,
              taken: set) -> tuple[list[str], list[int]]:
    """n_mols new molecules over a fresh pool of n_scaffolds scaffolds.

    Each molecule is the best of CANDIDATES draws at keeping the running
    heavy-atom total on TARGET_HEAVY_ATOMS per molecule, so sets drawn
    under different seeds carry nearly the same amount of work.
    """
    pool = [_draw_scaffold(rng) for _ in range(n_scaffolds)]
    smiles, groups, atoms = [], [], 0
    while len(smiles) < n_mols:
        want = TARGET_HEAVY_ATOMS * (len(smiles) + 1) - atoms
        best = None
        for _ in range(CANDIDATES):
            g = rng.randrange(n_scaffolds)
            smi = molecule_smiles(pool[g], _decorate(pool[g], rng))
            if smi in taken:
                continue
            miss = abs(len(heavy_atoms(smi)) - want)
            if best is None or miss < best[0]:
                best = (miss, smi, g)
        if best is None:
            continue
        _, smi, g = best
        taken.add(smi)
        smiles.append(smi)
        groups.append(g)
        atoms += len(heavy_atoms(smi))
    return smiles, groups


def _describe(smiles: list[str], groups: list[int]) -> dict:
    sizes: dict[int, int] = {}
    for g in groups:
        sizes[g] = sizes.get(g, 0) + 1
    atoms = [len(heavy_atoms(s)) for s in smiles]
    return {"n_molecules": len(smiles),
            "mean_heavy_atoms": round(sum(atoms) / len(atoms), 3),
            "n_scaffolds": len(sizes),
            "largest_group": max(sizes.values())}


def generate(seed: int, n_corpus: int, n_library: int, n_malformed: int,
             out_dir: str) -> dict:
    """Write corpus.csv (and library.smi when n_library > 0) under out_dir.

    corpus.csv has the BACE column layout (``mol``, ``Class``) so the
    program's built-in dataset mapping reads it. library_labels.json maps
    each parseable library SMILES to its label. Returns a summary.
    """
    rng = random.Random(f"perfbench-{seed}")
    taken: set = set()
    corpus, groups = _draw_set(rng, n_corpus, max(1, n_corpus // GROUP_SIZE),
                               taken)
    scores = sorted(label_score(s) for s in corpus)
    threshold = scores[len(scores) // 2]
    labels = [int(label_score(s) >= threshold) for s in corpus]
    summary = {"seed": seed,
               "corpus": dict(_describe(corpus, groups),
                              positive_fraction=round(
                                  sum(labels) / len(labels), 4))}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "corpus.csv"), "w") as fh:
        fh.write("mol,Class\n")
        for smi, y in zip(corpus, labels):
            fh.write(f"{smi},{y}\n")
    if n_library:
        library, lib_groups = _draw_set(
            rng, n_library, max(1, n_library // GROUP_SIZE), taken)
        lines = list(library)
        bad_at = sorted(rng.sample(range(n_library + n_malformed),
                                   n_malformed))
        for k, pos in enumerate(bad_at):
            lines.insert(pos, MALFORMED[k % len(MALFORMED)](
                rng.choice(library)))
        with open(os.path.join(out_dir, "library.smi"), "w") as fh:
            fh.write("".join(f"{line}\n" for line in lines))
        with open(os.path.join(out_dir, "library_labels.json"), "w") as fh:
            json.dump({smi: int(label_score(smi) >= threshold)
                       for smi in library}, fh, sort_keys=True)
        summary["library"] = dict(_describe(library, lib_groups),
                                  n_malformed=n_malformed,
                                  n_lines=len(lines))
    with open(os.path.join(out_dir, "inputs.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary
