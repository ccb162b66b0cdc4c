"""Exact linear algebra over the rationals, on dense and sparse integer rows.

Elimination runs on Python ints.  `_eliminate` is the one dense kernel:
rows are integer, reduced fraction-free, and every pivot row is primitive
with a positive pivot.  Three integer interfaces read it: echelon() returns
the non-reduced integer echelon, for callers that only need ranks and
pivot rows (configuration ranks, least spaces, certificates), canonical()
the reduced one sorted by pivot column, a basis of the row space that the
space alone determines (each RREF row scaled to coprime integers), so two
row spaces are equal iff their canonical bases are identical tuples, and
integer_nullspace() a kernel in that form.

sparse_echelon() is the one sparse kernel, for rows with few nonzeros among
many columns: the Macaulay rows of an ideal component (graded.Ideal, its
membership test and the stacked ranks of direct_sum_certificate).  A row
is a {column: int} dict and the echelon a {lead column: row} dict, the
lead being the row's smallest column; a row is cleared at every pivot
column it meets, in column order, with the update, the content division
and the pivot's sign of `_eliminate`.

No Fraction is eliminated: callers scale their rows with `_integer_row`
(which changes no rank) or build them from ints; a canonical row's RREF
row is the row over its pivot, and only the CLI divides, to render.  No
floats enter anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionMismatch


def frac(x) -> Fraction:
    # Fractions are immutable, so one that is already exact is passed through
    if type(x) is Fraction:
        return x
    # floats are banned: they would silently poison the exact pipeline
    if isinstance(x, float):
        raise TypeError("floating point input is not allowed")
    return Fraction(x)


def matrix(rows) -> tuple:
    out = tuple(tuple(frac(x) for x in r) for r in rows)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise DimensionMismatch(f"ragged rows of lengths {sorted(widths)}")
    return out


def _integer_row(row) -> list:
    """The row scaled by the lcm of its denominators: a row of ints."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(rows, ncols: int, reduced: bool, pivots=()) -> list:
    """Integer pivot rows as (pivot column, row) pairs, in the order found.

    `rows` are integer rows of length ncols, consumed lazily; `pivots` is an
    echelon found earlier, which is extended (never modified).  Rows are
    taken one at a time and cleared against the pivot rows so far
    with the fraction-free update p/h * row - f/h * pivot_row, h = gcd(p, f);
    after an update that scaled the row (p/h != 1) its content is divided
    out, so entries stay near the size of the final ones instead of growing
    with the product of the pivots.  A row that survives becomes a pivot row
    at its leading column, divided by its content so the pivot is positive
    and the row primitive.  Each
    pivot row is zero in the pivot columns found before it, which is all
    rank needs; with `reduced` the new pivot column is also cleared from
    the earlier rows (Gauss-Jordan), so every pivot row is zero in every
    other pivot column.
    """
    pivots = list(pivots)
    for row in rows:
        for c, prow in pivots:
            f = row[c]
            if f:
                p = prow[c]
                h = gcd(p, f)
                a, b = p // h, f // h
                if a == 1:
                    row = [x - b * y for x, y in zip(row, prow)]
                else:
                    row = [a * x - b * y for x, y in zip(row, prow)]
                    g = gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        g = gcd(*row)
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        if reduced:
            p = row[lead]
            for k, (c, prow) in enumerate(pivots):
                f = prow[lead]
                if f:
                    h = gcd(p, f)
                    a, b = p // h, f // h
                    prow = [a * x - b * y for x, y in zip(prow, row)]
                    g = gcd(*prow)
                    if g != 1:
                        prow = [x // g for x in prow]
                    pivots[k] = (c, prow)
        pivots.append((lead, row))
        if len(pivots) == ncols:
            break
    return pivots


def canonical(rows, ncols: int, start=()) -> tuple:
    """The canonical integer basis of the row space of integer rows: the
    reduced integer echelon sorted by pivot column, as tuples of ints.

    `start` is a reduced echelon already known, as (pivot column, row)
    pairs (a canonical basis is one), which the rows extend."""
    # pivot columns are distinct
    return tuple([tuple(row) for _, row in sorted(_eliminate(rows, ncols, True, start))])


def echelon(rows, ncols: int, start=()) -> list:
    """Non-reduced integer echelon of integer rows, extending `start`.

    Returns `start` (an earlier result of echelon) followed by the pivot rows
    the new rows add, as (pivot column, primitive int row) pairs; each row is
    zero in the pivot columns listed before it, so the length is the rank of
    everything seen.  Stops once there are ncols pivots.
    """
    return _eliminate(rows, ncols, reduced=False, pivots=start)


def integer_nullspace(rows, ncols: int) -> tuple:
    """Canonical integer basis of the right kernel of integer rows.

    Each free column f of the reduced echelon gives the kernel vector with
    L at f and -L * row[f] / pivot at each pivot column, L the lcm of the
    pivots it divides by; those vectors are then brought to canonical form.
    """
    pivots = _eliminate(rows, ncols, True)
    pivset = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        hits = [(c, row[c], row[f]) for c, row in pivots if row[f]]
        scale = lcm(*[p for _, p, _ in hits])
        v = [0] * ncols
        v[f] = scale
        for c, p, x in hits:
            v[c] = -x * (scale // p)
        basis.append(v)
    return canonical(basis, ncols)


def sparse_echelon(rows, ncols: int, start=None) -> dict:
    """Non-reduced integer echelon of sparse rows, extending `start`.

    Rows are {column: int} dicts with no zero entries, consumed lazily and
    left unchanged; `start` is an earlier result, which is copied, never
    modified.  Returns {lead column: primitive row with a positive lead},
    the lead being the row's smallest column.  A row is cleared at each of
    its columns where a pivot row leads, in increasing column order (a heap
    of those columns), with the fraction-free update of `_eliminate` and
    its content division after a scaling update.  The pivot row at c is
    zero before c, so clearing c only touches later columns, and what is
    left is zero in every pivot column: it vanished, or its smallest column
    is a new lead.  Clearing every pivot column, not only the lead, keeps
    the rows sparse and their entries small.  Stops once there are ncols
    pivot rows.
    """
    pivots = dict(start) if start else {}
    for row in rows:
        row = dict(row)
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            col = heappop(todo)
            f = row.get(col)
            if f is None:
                continue
            prow = pivots[col]
            p = prow[col]
            h = gcd(p, f)
            a, b = p // h, f // h
            if a != 1:
                row = {c: a * x for c, x in row.items()}
            for c, y in prow.items():
                x = row.get(c)
                if x is None:
                    row[c] = -b * y
                    if c in pivots:
                        heappush(todo, c)
                else:
                    x -= b * y
                    if x:
                        row[c] = x
                    else:
                        del row[c]
            if a != 1 and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
        if not row:
            continue
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {c: x // g for c, x in row.items()}
        pivots[lead] = row
        if len(pivots) == ncols:
            break
    return pivots
