"""Rational vector configurations and their matroid-level data.

A Config holds an ordered multiset of N nonzero rational columns spanning
R^n (full rank), optionally an extension basis b0 and hyperplane offsets.
Columns are addressed by index 0..N-1; a "column set" is a frozenset of
indices.  Enumerations are returned in lexicographic bitmask order (subset S
ordered by sum(2^i for i in S)), which makes every listing deterministic.

A Config keeps its columns as integer rows (`_ints`): each column times
the lcm of its denominators, a nonzero scaling that changes no rank and
no hyperplane membership, so no matroid query turns Fractions into ints.
The independence table extends the echelon of each independent set by one
column, and `facets` walks the independent (n-1)-sets, skips every one
inside a hyperplane it has already found and tests membership by an
integer dot product.  `rank_of` (at most one elimination per configuration
and column set) is kept for callers that want a rank; the matroid queries
below do not read it.  A Config computes its hash once, from its integer columns
(equal Configs have equal ones), so a cache lookup costs no rehash of its
Fraction entries.

Each Config also carries two private tables:
- the subset-product table: column bitmask -> p_Y = prod_{x in Y} x as an
  integer coefficient row and a denominator, filled on demand by `_product`
  through the mask recursion p_Y = p_{Y - max Y} * l_{max Y}, so every
  product is one multiplication of a stored one; `subset_polynomial`
  reads it, as (degree, integer row, denominator) and never as an HPoly;
- the memo, where `per_config` stores fn(c, *args) under (fn.__name__,
  *args): the independence table (`_matroid`, whose masks answer
  `is_independent`, `span_le` and `passive_set`), the fundamental
  cocircuits (`_cocircuits`: internal activity is one AND per basis column
  and order, Crapo), `independents`, `bases`, `facets`, the coloop mask,
  X u B0 (`extended`) and `zonotopal`'s central, internal and deletion spaces.
Neither is a field (equality, hash and repr ignore them); they live and die
with their Config.  A validated Config starts with empty ones, a derived
one with only its `_matroid`, which `pull_matroid` reads off the masks of a
deletion's parent, an augmentation's original or the search's 0/1 pool.  No
module-level cache keeps a Config alive except `rank_of`'s `lru_cache`,
whose `cache_info()` the benchmark's tracer reads.  `_from_ints` is the
one constructor of derived Configs (a deletion X - x of a non-coloop,
`_augment`, `extended`, the configurations the r37 search examines): it
takes normalized columns and their integer rows and validates nothing.

Column order matters for the activity notions: the default order is index
order, and the I-relative internal activity uses the order that moves I's
columns after everything else (preserving index order within each block) --
the statements about I-internal bases need I to come last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce, wraps
from math import lcm
from operator import and_, mul

from .errors import (
    BadB0,
    DimensionMismatch,
    FamilyNotClosed,
    InputError,
    MissingB0,
    NotIndependent,
    RankDeficient,
    ZeroColumn,
)
from .linalg import _integer_row, echelon, frac, integer_nullspace, matrix
from .poly import _times_linear


def per_config(fn):
    """Memoize fn(c, *args) in c's table under (fn.__name__, *args): built
    at most once per Config and dropped with it."""
    name = fn.__name__

    @wraps(fn)
    def memo(c, *args):
        key = (name, *args)
        result = c._tables.get(key)
        if result is None:
            result = c._tables[key] = fn(c, *args)
        return result
    return memo


@dataclass(frozen=True)
class Config:
    columns: tuple
    b0: tuple | None = None
    lam: tuple | None = None
    lam_b0: tuple | None = None

    def __post_init__(self):
        cols = tuple(tuple(frac(x) for x in col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        if not cols:
            raise InputError("the matrix has no columns")
        n = len(cols[0])
        for i, col in enumerate(cols):
            if len(col) != n:
                raise DimensionMismatch(f"column {i} has length {len(col)}, expected {n}")
            if all(x == 0 for x in col):
                raise ZeroColumn(i)
        # the columns as integer rows, which every matroid query reads
        ints = tuple(tuple(_integer_row(col)) for col in cols)
        r = len(echelon(ints, n))
        if r != n:
            raise RankDeficient(r, n)
        if self.b0 is not None:
            b0 = tuple(tuple(frac(x) for x in col) for col in self.b0)
            object.__setattr__(self, "b0", b0)
            if len(b0) != n or any(len(col) != n for col in b0):
                raise BadB0(f"b0 must consist of {n} vectors of length {n}")
            if len(echelon([_integer_row(col) for col in b0], n)) != n:
                raise BadB0("b0 must be a basis of the ambient space")
        if self.lam is not None:
            object.__setattr__(
                self, "lam", tuple(None if x is None else frac(x) for x in self.lam)
            )
            if len(self.lam) != len(cols):
                raise DimensionMismatch(
                    f"lambda has {len(self.lam)} offsets, expected one per column ({len(cols)})"
                )
        if self.lam_b0 is not None:
            if self.b0 is None:
                raise MissingB0()
            object.__setattr__(
                self, "lam_b0", tuple(None if x is None else frac(x) for x in self.lam_b0)
            )
            if len(self.lam_b0) != n:
                raise DimensionMismatch(
                    f"lambda_b0 has {len(self.lam_b0)} offsets, expected one per b0 vector ({n})"
                )
        self._start_tables(ints)

    def _start_tables(self, ints) -> None:
        """Set the private attributes of a validated Config: its integer
        columns, its hash and empty tables.  None of them is a field, so
        equality and repr never see them; the hash reads the integer
        columns, which equal Configs share."""
        object.__setattr__(self, "_ints", ints)
        # every cache lookup hashes its Config, so the hash is taken once,
        # and from the ints: hashing Fractions costs more than the lookup
        object.__setattr__(self, "_hash", hash((ints, self.b0, self.lam, self.lam_b0)))
        # the subset-product table (column mask -> p_Y), filled by _product,
        # and the per_config memo
        object.__setattr__(self, "_products", {})
        object.__setattr__(self, "_tables", {})

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.columns[0])

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @per_config
    def extended(self) -> "Config":
        """The configuration X u B0, the b0 vectors appended after all
        columns."""
        if self.b0 is None:
            raise MissingB0()
        b0_ints = tuple(tuple(_integer_row(col)) for col in self.b0)
        return _from_ints(self.columns + self.b0, self._ints + b0_ints)


def _from_ints(columns, ints) -> Config:
    """Config(columns), without b0 and offsets, for normalized columns with
    integer rows ints that the caller knows span and hold no zero column:
    nothing is validated or converted again."""
    c = object.__new__(Config)
    object.__setattr__(c, "columns", columns)
    for name in ("b0", "lam", "lam_b0"):
        object.__setattr__(c, name, None)
    c._start_tables(ints)
    return c


def make_config(matrix_rows, b0_rows=None, lam=None, lam_b0=None) -> Config:
    """Build a Config from a row-major n x N matrix (columns = vectors)."""
    rows = matrix(matrix_rows)
    cols = tuple(tuple(row[j] for row in rows) for j in range(len(rows[0]) if rows else 0))
    b0 = None
    if b0_rows is not None:
        b0m = matrix(b0_rows)
        b0 = tuple(tuple(row[j] for row in b0m) for j in range(len(b0m[0]) if b0m else 0))
    return Config(cols, b0=b0, lam=lam, lam_b0=lam_b0)


# -- subset enumeration ------------------------------------------------------


def _mask_to_set(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def set_to_mask(cols) -> int:
    return sum(1 << i for i in cols)


@lru_cache(maxsize=None)
def rank_of(c: Config, cols: frozenset) -> int:
    return len(echelon([c._ints[i] for i in cols], c.n))


def is_independent(c: Config, cols) -> bool:
    return set_to_mask(frozenset(cols)) in _matroid(c)[0]


@per_config
def _matroid(c: Config) -> tuple:
    """(frozenset of the independent column masks, ascending tuple of the
    basis masks).  A mask is a candidate only when dropping its lowest
    column leaves an independent non-basis, whose echelon is extended by
    that column: one reduction each.  Every matroid query below reads the
    table and eliminates nothing."""
    masks, basis_masks = [0], []
    echelons = {0: []}  # independent non-basis mask -> its echelon
    for mask in range(1, 1 << c.ncols):
        low = mask & -mask
        prev = echelons.get(mask ^ low)
        if prev is None:
            continue
        ech = echelon([c._ints[low.bit_length() - 1]], c.n, prev)
        if len(ech) > len(prev):
            masks.append(mask)
            if len(ech) < c.n:
                echelons[mask] = ech
            else:
                basis_masks.append(mask)
    return frozenset(masks), tuple(basis_masks)


def pull_matroid(c: Config, ground_masks, bits) -> Config:
    """Fill c's independence table, and return c, from the independent masks
    of a ground configuration of its rank whose column bits[j] is a multiple
    of c's column j: a set is independent when it hits distinct ground
    columns of independent mask.  `_matroid`'s walk, images for echelons."""
    masks, basis_masks = [0], []
    images = {0: 0}  # independent non-basis mask -> its ground mask
    for mask in range(1, 1 << c.ncols):
        low = mask & -mask
        prev = images.get(mask ^ low)
        bit = bits[low.bit_length() - 1]
        if prev is None or prev & bit or prev | bit not in ground_masks:
            continue
        masks.append(mask)
        if mask.bit_count() < c.n:
            images[mask] = prev | bit
        else:
            basis_masks.append(mask)
    c._tables[("_matroid",)] = frozenset(masks), tuple(basis_masks)
    return c


@per_config
def independents(c: Config) -> tuple:
    """All independent column sets, lexicographic bitmask order."""
    return tuple(map(_mask_to_set, sorted(_matroid(c)[0])))


@per_config
def bases(c: Config) -> tuple:
    return tuple(map(_mask_to_set, _matroid(c)[1]))


def span_le(c: Config, a, b) -> bool:
    """span(columns a) contained in span(columns b): a column of a lies in
    the span exactly when it is in a greedy basis g of b or dependent on it."""
    indep = _matroid(c)[0]
    g = 0
    for j in b:
        if g | 1 << j in indep:
            g |= 1 << j
    return all(g >> x & 1 or g | 1 << x not in indep for x in a)


# -- facet hyperplanes -------------------------------------------------------


@dataclass(frozen=True)
class Facet:
    members: frozenset        # columns lying on the hyperplane
    normal: tuple             # primitive integer normal, first nonzero positive
    mult: int                 # number of columns off the hyperplane


@per_config
def facets(c: Config) -> tuple:
    """One Facet per distinct hyperplane spanned by columns, sorted by normal.

    Every such hyperplane is spanned by an independent (n-1)-set, so only
    those are walked.  One inside the members of a hyperplane already found
    spans that hyperplane, so it is skipped; any other spans a new one.
    Membership is an integer dot product.
    """
    ints = c._ints
    seen = {}
    found = []  # member masks of the hyperplanes so far
    for sub_mask in sorted(_matroid(c)[0]):
        if sub_mask.bit_count() != c.n - 1 or any(sub_mask & m == sub_mask for m in found):
            continue
        normal = integer_nullspace([ints[i] for i in _mask_to_set(sub_mask)], c.n)[0]
        members = frozenset(
            i for i, v in enumerate(ints) if not sum(map(mul, normal, v))
        )
        found.append(set_to_mask(members))
        seen[normal] = Facet(members, normal, c.ncols - len(members))
    return tuple(seen[k] for k in sorted(seen))


@per_config
def _coloop_mask(c: Config) -> int:
    """Bitmask of the columns whose deletion drops the rank: a coloop is a
    column in every basis, so the mask is the AND of the basis masks."""
    return reduce(and_, _matroid(c)[1])


def is_coloop(c: Config, i: int) -> bool:
    return bool(_coloop_mask(c) >> i & 1)


def _delete(c: Config, col: int) -> Config:
    """X - col, without b0 and offsets: equal to Config of the remaining
    columns, but built from c's normalized and integer columns, since
    deleting a non-coloop from a full-rank configuration leaves it full
    rank and nothing needs validating again; its independence table is
    pulled from c's.  A coloop raises the RankDeficient (rank n - 1) that
    Config would."""
    if is_coloop(c, col):
        raise RankDeficient(c.n - 1, c.n)
    child = _from_ints(c.columns[:col] + c.columns[col + 1:], c._ints[:col] + c._ints[col + 1:])
    return pull_matroid(child, _matroid(c)[0], [1 << j for j in range(c.ncols) if j != col])


# -- activity and valuation --------------------------------------------------


def index_order(c: Config) -> tuple:
    return tuple(range(c.ncols))


def order_with_last(c: Config, i_set) -> tuple:
    """Index order with the columns of i_set moved after everything else."""
    i_set = frozenset(i_set)
    rest = [j for j in range(c.ncols) if j not in i_set]
    return tuple(rest + sorted(i_set))


def passive_set(c: Config, y, order=None) -> frozenset:
    """Columns outside y not spanned by the earlier members of y.

    One walk along the order keeps a greedy basis g of the members of y
    seen so far; a column outside y is passive exactly when g plus it is
    independent, so each test is one lookup in the independence table.
    """
    indep = _matroid(c)[0]
    y_mask = set_to_mask(frozenset(y))
    g = out = 0
    for x in index_order(c) if order is None else order:
        bit = 1 << x
        if g | bit in indep:
            if y_mask & bit:
                g |= bit
            else:
                out |= bit
    return _mask_to_set(out)


def valuation(c: Config, y, order=None) -> int:
    return len(passive_set(c, y, order))


def valuation_histogram(c: Config, family, order=None) -> tuple:
    """Counts of members by valuation, degree 0 upward."""
    return _histogram(valuation(c, s, order) for s in family)


def _histogram(values) -> tuple:
    """Counts of the nonnegative integers in values, 0 upward; () for none."""
    hist = []
    for v in values:
        if v >= len(hist):
            hist.extend([0] * (v + 1 - len(hist)))
        hist[v] += 1
    return tuple(hist)


@per_config
def _cocircuits(c: Config) -> tuple:
    """For each basis B, in basis order, the pairs (b, mask of the
    fundamental cocircuit of b): the columns x with B - b + x a basis, b
    itself included, read off the independence table."""
    basis_masks = _matroid(c)[1]
    is_basis = frozenset(basis_masks)
    cocircuits = []
    for mask in basis_masks:
        pairs = []
        for b in _mask_to_set(mask):
            rest = mask ^ 1 << b
            pairs.append(
                (b, sum(1 << x for x in range(c.ncols) if rest | 1 << x in is_basis))
            )
        cocircuits.append(tuple(pairs))
    return tuple(cocircuits)


def _activity(c: Config, order) -> list:
    """(basis, mask of its internally active columns) for each basis, in
    basis order: b is active when no column of its fundamental cocircuit
    comes after it in the order (Crapo), one AND per basis column."""
    later = [0] * c.ncols
    after = 0
    for x in reversed(order):
        later[x] = after
        after |= 1 << x
    out = []
    for b_set, pairs in zip(bases(c), _cocircuits(c)):
        active = 0
        for b, cocircuit in pairs:
            if not cocircuit & later[b]:
                active |= 1 << b
        out.append((b_set, active))
    return out


def internal_bases(c: Config, order=None) -> tuple:
    """Bases with no internally active element (w.r.t. the given order)."""
    order = index_order(c) if order is None else tuple(order)
    return tuple(b_set for b_set, active in _activity(c, order) if not active)


def i_internal_bases(c: Config, i_set) -> tuple:
    """Bases with no active element inside i_set, i_set's columns placed last.

    The order is pinned to "everything else, then i_set": the structural
    facts about these bases only hold when i_set's columns come last.
    """
    i_set = frozenset(i_set)
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    i_mask = set_to_mask(i_set)
    return tuple(
        b_set for b_set, active in _activity(c, order_with_last(c, i_set)) if not active & i_mask
    )


# -- families between the bases and all independents -------------------------


@dataclass(frozen=True)
class SemiExternalFamily:
    members: tuple = field(default=())

    def __post_init__(self):
        ordered = tuple(sorted((frozenset(m) for m in self.members), key=set_to_mask))
        object.__setattr__(self, "members", ordered)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def full_family(c: Config) -> SemiExternalFamily:
    return SemiExternalFamily(independents(c))


def semiexternal_close(c: Config, seeds) -> SemiExternalFamily:
    """Smallest span-closed family containing the seeds and all bases."""
    seed_sets = [frozenset(s) for s in seeds]
    for s in seed_sets:
        if not is_independent(c, s):
            raise NotIndependent(s)
    base = set(seed_sets) | set(bases(c))
    # span-containment is transitive, so one sweep reaches the fixpoint
    members = {
        j for j in independents(c) if any(span_le(c, s, j) for s in base)
    }
    return SemiExternalFamily(tuple(members))


def ensure_family(c: Config, fam: SemiExternalFamily) -> SemiExternalFamily:
    """Validate membership, independence, all bases present, closure."""
    member_set = set(fam.members)
    for s in fam:
        if not is_independent(c, s):
            raise NotIndependent(s)
    for b in bases(c):
        if b not in member_set:
            raise FamilyNotClosed(next(iter(fam), frozenset()), b)
    for i_set in fam:
        for j in independents(c):
            if j not in member_set and span_le(c, i_set, j):
                raise FamilyNotClosed(i_set, j)
    return fam


def normal_power_condition(c: Config, fam: SemiExternalFamily):
    """Check: every non-basis independent set, all of whose facet-spanning
    extensions lie in the family, is itself in the family.

    Returns (True, None) or (False, witness).
    """
    member_set = set(fam.members)
    basis_set = set(bases(c))
    # the facet-spanning extensions of i_set are the (n-1)-element independent
    # sets whose span (always a facet hyperplane) contains i_set
    hyper = [j for j in independents(c) if len(j) == c.n - 1]
    for i_set in independents(c):
        if i_set in basis_set or i_set in member_set:
            continue
        if all(j in member_set for j in hyper if span_le(c, i_set, j)):
            return False, i_set
    return True, None


# -- greedy basis extension ---------------------------------------------------


def extend_basis(c: Config, i_set) -> frozenset:
    """Greedy completion of an independent set by the b0 vectors.

    Returns indices into the extended configuration: 0..N-1 for columns of X,
    N..N+n-1 for b0 vectors, which sort after every column of X.  One
    echelon of i_set is extended by each b0 vector in turn; a vector joins
    when it raises the rank.
    """
    if c.b0 is None:
        raise MissingB0()
    i_set = frozenset(i_set)
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    ext = c.extended()
    out = set(i_set)
    # the span of "i_set plus all earlier b0 vectors" is what matters, so
    # every earlier b0 vector stays in the echelon either way
    ech = echelon([c._ints[i] for i in i_set], c.n)
    for j in range(c.ncols, ext.ncols):
        if len(ech) == c.n:
            break
        grown = echelon([ext._ints[j]], c.n, ech)
        if len(grown) > len(ech):
            out.add(j)
        ech = grown
    return frozenset(out)


def _product(c: Config, mask: int) -> tuple:
    """p_Y for the columns Y of the bitmask, as (integer row over
    monomials(n, #Y), denominator), read from c's product table.

    A missing entry is built from its longest stored prefix by
    p_Y = p_{Y - max Y} * l_{max Y} on the column's integer row, whose
    scale joins the entry's denominator, so the rows stay integer.  The empty
    product 1 is never stored.
    """
    table = c._products
    chain = []
    while mask and mask not in table:
        chain.append(mask)
        mask ^= 1 << (mask.bit_length() - 1)
    row, den = table[mask] if mask else ((1,), 1)
    for mask in reversed(chain):
        j = mask.bit_length() - 1
        d = lcm(*[x.denominator for x in c.columns[j]])
        row, den = tuple(_times_linear(row, c._ints[j], mask.bit_count() - 1)), den * d
        table[mask] = (row, den)
    return row, den


def subset_polynomial(c: Config, cols) -> tuple:
    """Product of the linear forms of the chosen columns, from the table."""
    mask = set_to_mask(cols)
    return (mask.bit_count(), *_product(c, mask))

