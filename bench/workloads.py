"""The benchmark's workloads: which CLI operations each one runs, on which
documents, and why.

Every operation is one `zonoforge` command line.  Documents are JSON bytes
produced here from the workload seed; the program only ever sees those
bytes, written to a file and passed with `--input`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

THEOREMS = ("th1", "exzono", "pi", "plus", "basis", "explus", "t26", "t28", "t33", "t34", "r37")
KINDS = ("central", "external", "semi_external", "semi_internal")
INPUT_DOCS = ("example25_first", "example25_second", "identity2", "repeated", "triangle")

# Reports that tests/golden pins byte for byte, keyed by operation label.
GOLDEN = {
    "matroid example25_first": "matroid_example25_first.json",
    "space semi_external example25_first": "space_semi_external_example25_first.json",
    "space central triangle": "space_central_triangle.json",
    "verify t28 example25_first": "verify_t28_example25_first.json",
    "verify t28 example25_second": "verify_t28_example25_second.json",
    "verify t33 repeated": "verify_t33_repeated.json",
    "verify pi identity2": "verify_pi_identity2.json",
    "search-r37 n3c4": "search_r37_n3c4.json",
}


@dataclass(frozen=True)
class Op:
    label: str                # unique within the workload, e.g. "verify t33 repeated"
    args: tuple               # CLI arguments, without --input and --output
    doc: str | None = None    # name of the document passed with --input


@dataclass
class Workload:
    name: str
    ops: list
    docs: dict = field(default_factory=dict)   # document name -> JSON bytes
    min_passes: int = 3                        # passes a timed run makes at least
    notes: list = field(default_factory=list)  # lines describing the inputs

    def op_key(self, op: Op) -> str:
        """Digest-table key: the label plus a hash of the document it reads,
        so a recorded digest applies only to the exact same input."""
        if op.doc is None:
            return op.label
        return f"{op.label} @{hashlib.sha256(self.docs[op.doc]).hexdigest()[:16]}"


def _doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _matrix_ops(doc: str, kinds, theorems) -> list:
    ops = [Op(f"space {k} {doc}", ("space", "--kind", k), doc) for k in kinds]
    ops += [Op(f"verify {t} {doc}", ("verify", "--theorem", t), doc) for t in theorems]
    return ops


def inputs_battery(root: Path, seed: int) -> Workload:
    """Every verify theorem, every space kind and matroid on each shipped
    document: everyday use, 80 operations.  The documents are fixed, so the
    seed changes nothing here."""
    docs = {name: (root / "inputs" / f"{name}.json").read_bytes() for name in INPUT_DOCS}
    ops = []
    for name in INPUT_DOCS:
        ops.append(Op(f"matroid {name}", ("matroid",), name))
        ops += _matrix_ops(name, KINDS, THEOREMS)
    # five passes leave ten samples above p97.5: the two explus operations
    return Workload(
        "inputs-battery",
        ops,
        docs,
        min_passes=5,
        notes=[f"document inputs/{name}.json" for name in INPUT_DOCS],
    )


def r37_search(root: Path, seed: int) -> Workload:
    """The patched-extension search over 0/1 configurations: tens of
    thousands of eliminations on matrices of a few rows.  It takes no input
    document and no seed."""
    ops = [
        Op(f"search-r37 n3c{cols}", ("search-r37", "--max-n", "3", "--max-cols", str(cols)))
        for cols in (4, 5)
    ]
    # two operations per pass: ten passes leave ten samples above the median
    return Workload("r37-search", ops, min_passes=10, notes=["no input document"])


# -- algebra-ladder ------------------------------------------------------------

LADDER_KINDS = ("central", "external", "semi_internal")
LADDER_THEOREMS = ("th1", "t33", "basis")

# K4, the graphic matroid of the complete graph on four vertices, as columns.
K4 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]]

# (name, n, N, entry range, base seed, why).  Each random rung's base matrix
# is drawn once from its base seed; the run seed only flips column signs (see
# algebra_ladder).  Ranges and base seeds were picked so that one pass takes
# about 8 s on a 2-vCPU x86-64 machine with Python 3.11.
LADDER_RUNGS = (
    ("k4", 3, 6, None, None, "K4, fixed: the smallest classical case"),
    ("n3c7", 3, 7, (0, 1), 2, "n=3, N=7: one column past K4"),
    ("n3c8", 3, 8, (0, 1), 2, "n=3, N=8: two columns past K4, with repeated columns"),
    ("n4c5", 4, 5, (0, 1), 3, "n=4, N=5: four variables; external and th1 make the largest eliminations"),
)


def _rank(cols) -> int:
    """Rank over the rationals, independent of the program under test."""
    rows = [[Fraction(x) for x in col] for col in cols]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pin = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pin is None:
            continue
        rows[r], rows[pin] = rows[pin], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def draw_base(n: int, N: int, entries: tuple, seed: int) -> list:
    """Columns of a random n x N integer configuration whose last column is
    the `i` column.  Redraw until no column is zero, the matrix has full
    rank and the last column is not a coloop (semi_internal and t33 need
    that)."""
    rng = random.Random(seed)
    lo, hi = entries
    while True:
        cols = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(N)]
        if any(not any(col) for col in cols):
            continue
        if _rank(cols) < n or _rank(cols[:-1]) < n:
            continue
        return cols


def ladder_doc(cols: list, signs) -> dict:
    n = len(cols[0])
    flipped = [[s * x for x in col] for s, col in zip(signs, cols)]
    return {
        "matrix": [list(row) for row in zip(*flipped)],
        "b0": [[int(i == j) for j in range(n)] for i in range(n)],
        "i": [len(cols) - 1],
    }


def algebra_ladder(root: Path, seed: int) -> Workload:
    """Bundles and batteries with no geometry on a ladder of configurations.

    The seed draws a sign for every column of each random rung.  Negating a
    column keeps its line, so the matroid, the facets and the size of every
    elimination stay fixed while the documents and reports change with the
    seed.  Fresh random matrices per seed were measured to move the cost of
    one `external` bundle at n=4, N=5 between 0.4 s and 5.4 s, and random
    column or coordinate orders by 1.5x; the run-to-run spread would then
    measure the seed, not the program.
    """
    docs, ops, notes = {}, [], []
    for name, n, N, entries, base_seed, why in LADDER_RUNGS:
        if base_seed is None:
            cols, signs = K4, [1] * N
        else:
            rng = random.Random(f"{seed}:{name}")
            cols = draw_base(n, N, entries, base_seed)
            signs = [rng.choice((1, -1)) for _ in range(N)]
        doc = ladder_doc(cols, signs)
        docs[name] = _doc_bytes(doc)
        ops += _matrix_ops(name, LADDER_KINDS, LADDER_THEOREMS)
        notes.append(f"rung {name} ({why}): {json.dumps(doc, sort_keys=True)}")
    return Workload("algebra-ladder", ops, docs, min_passes=3, notes=notes)


WORKLOADS = {
    "inputs-battery": inputs_battery,
    "algebra-ladder": algebra_ladder,
    "r37-search": r37_search,
}


def build(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)
