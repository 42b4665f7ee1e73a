"""Chemistry identity: parse, featurize and scaffold under two trees, diff.

Usage:
    python tools/chem_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``molbayes`` package (a
checkout's ``src``). The inputs are the corpus and library that
``perfbench/gen.py`` writes for seeds 1-8 (the screen-map sizes: 384
molecules, a 1,024-molecule library with 24 malformed lines), three
seeded random edits of each of the first 3,000 of those strings, and a
fixed list of edge cases. Each tree runs in its own process and reports, per string:

- ``parse_smiles``: the atoms and bonds, or the error message and
  offset, or the type and text of any other exception it raises;
- ``featurize``: a digest of each array's dtype, shape and bytes, over
  the parsed molecules in one list call;
- ``murcko_scaffold``: the key of each parsed molecule.

Exit status: 0 when every result is the same under both trees; 1
otherwise, after listing the first differences and a count per kind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 9)     # perfbench generator seeds
MUTATIONS = 3           # random edits of each of the first 3,000 strings

# characters a random edit inserts or substitutes: the SMILES grammar's,
# and a few it rejects
ALPHABET = ("C", "N", "O", "S", "P", "F", "I", "B", "c", "n", "o", "s", "l",
            "r", "H", "[", "]", "(", ")", "=", "#", "-", ":", "/", "\\", "+",
            "@", ".", "%", "0", "1", "2", "3", "9", "*", " ")
EDGE_CASES = (
    "", ".", "..", "C.", ".C", "C..C", "(", ")", "1", "%", "%12", "=C", "C=",
    "C(", "C)", "C(=)", "C(C", "C1", "C11", "C1C1", "CC(C1)1", "C%1",
    "C%12CC%12", "C=1CC1", "C=1CC-1", "C1CC=1", "[", "[C", "[]", "[C]",
    "[É]", "C²", "[Ωx]", "[13CH3:7]O", "[C@@H](F)(Cl)Br", "[C:]",
    "[nH]1cccc1", "[se]1cccc1", "[as]", "[c]", "[n]1cccc1", "[x]",
    "[Fe+++]", "[Cu-5]", "[N+9]C", "[O--]",
    "[N+99999999999999999999]", "C/C=C\\C", "CC(C)(C)(C)(C)C", "c1ccccc1",
    "C1=CC=CC=C1", "c1ccccc1-c1ccccc1", "[NH4+].[Cl-]", "ClBr", "BrCl",
    "C(Cl)(Br)I", "c1cc2ccccc2cc1", "C12C3C4C1C5C2C3C45", "OCC1OC(O)C(O)C1O",
)


def inputs() -> list[str]:
    """Generated corpora and libraries, their seeded edits and the edge
    cases, in a fixed order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    strings: list[str] = []
    with tempfile.TemporaryDirectory(prefix="chem-identity-") as work:
        for seed in SEEDS:
            out = os.path.join(work, str(seed))
            gen.generate(seed, 384, 1024, 24, out)
            with open(os.path.join(out, "corpus.csv"),
                      encoding="utf-8") as fh:
                strings += [line.rsplit(",", 1)[0]
                            for line in fh.read().splitlines()[1:]]
            with open(os.path.join(out, "library.smi"),
                      encoding="utf-8") as fh:
                strings += fh.read().splitlines()
    rng = random.Random(f"chem-identity-{list(SEEDS)}-{MUTATIONS}")
    edited = []
    for s in strings[:3000]:
        for _ in range(MUTATIONS):
            t = list(s)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randint(0, len(t))
                kind = rng.randrange(3)
                if kind == 0:
                    t.insert(pos, rng.choice(ALPHABET))
                elif t and pos < len(t):
                    if kind == 1:
                        del t[pos]
                    else:
                        t[pos] = rng.choice(ALPHABET)
            edited.append("".join(t))
    return strings + edited + list(EDGE_CASES)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}{a.flags.c_contiguous}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:24]


def dump(inputs_path: str, out_path: str) -> None:
    """Run the chem layer of the ``molbayes`` on the path over the
    inputs; write one result per string as JSON."""
    from molbayes import chem
    with open(inputs_path, encoding="utf-8") as fh:
        strings = json.load(fh)
    results: list = []
    parsed = []
    for s in strings:
        try:
            m = chem.parse_smiles(s)
        except chem.SmilesError as e:
            results.append(["error", str(e), e.offset])
            continue
        except Exception as e:      # a parser fault: one more difference
            results.append(["crash", type(e).__name__, str(e)])
            continue
        parsed.append((len(results), m))
        results.append(["graph",
                        [[a.symbol, a.charge, a.aromatic, a.h_count]
                         for a in m.atoms],
                        [[b.i, b.j, b.order] for b in m.bonds]])
    for (k, m), g in zip(parsed, chem.featurize([m for _, m in parsed])):
        results[k] += [_digest(g.node_x, g.edge_x, g.edge_index),
                       chem.murcko_scaffold(m)]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_side(src: str, inputs_path: str, out_path: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                    inputs_path, out_path], env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(strings: list[str], old: list, new: list,
            shown: int = 20) -> int:
    kinds = {"parse": 0, "error": 0, "featurize": 0, "scaffold": 0}
    lines = []
    for s, a, b in zip(strings, old, new):
        if a == b:
            continue
        if a[0] != b[0] or a[:3] != b[:3]:
            kind = "parse" if a[0] == b[0] == "graph" else "error"
        elif a[3] != b[3]:
            kind = "featurize"
        else:
            kind = "scaffold"
        kinds[kind] += 1
        lines.append(f"{kind} differs: {s!r}: {a[:3]!r} vs {b[:3]!r}")
    for line in lines[:shown]:
        print(line)
    n_errors = sum(r[0] == "error" for r in old)
    print(f"{len(strings)} strings ({n_errors} errors under OLD_SRC), "
          f"{len(lines)} differ: " + ", ".join(
              f"{kind} {count}" for kind, count in kinds.items()))
    return 1 if lines else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--dump"]:
        dump(*argv[1:3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isdir(os.path.join(src, "molbayes")):
            parser.error(f"{src} holds no molbayes package")
    strings = inputs()
    with tempfile.TemporaryDirectory(prefix="chem-identity-") as work:
        path = os.path.join(work, "inputs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(strings, fh)
        old, new = (run_side(src, path, os.path.join(work, f"{name}.json"))
                    for src, name in ((args.old_src, "old"),
                                      (args.new_src, "new")))
    return compare(strings, old, new)


if __name__ == "__main__":
    sys.exit(main())
