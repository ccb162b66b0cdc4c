"""Bundles of zonotopal spaces attached to a configuration.

Each bundle pairs a primal space (span of column-subset products) with two
ideals: the power ideal cut out by facet-normal powers, whose differential
kernel must reproduce the primal space, and the cover ideal generated by the
products over subsets meeting every member of the relevant basis family.
Four kinds exist: central, external, semi-external (relative to a span-closed
family between the bases and all independents) and semi-internal (relative to
an independent set whose columns are moved last in the activity order).

One assembler, `_bundle`, owns the bundle checks: the members'
passive-set products span the primal space (central and semi-external),
and the Hilbert function computed three ways -- valuation histogram,
power-ideal quotient, primal-space dimensions -- agrees, so the primal
dimension is the member count.  It raises ConsistencyError otherwise: the
artifact is its own theorem checker.

Polynomials are (degree, integer row, denominator) tuples (see poly), all
the way into the CLI's rendered text.
Every spanning set (the central, full and family-short spaces, the
passive-set spans and the r37 patch) spans products p_Y read from the
configuration's subset-product table (`_span`), and the q_basis and cover
generators are its entries (`subset_polynomial`; the semi-external cover
generators may use b0 vectors, so they come from the table of
`Config.extended()`, X u B0): each product is built once per
configuration.  Power ideals do not read the table: `facet_powers` writes
each (v . t)^e down by the multinomial theorem, so the quotient route
shares no product code with the space route it checks.

Shared routes, one owner each: `facet_powers` builds every power ideal's
facet-normal powers; `deletion_intersection` intersects the central spaces
of single-column deletions (the semi-internal space for I, and with every
column the internal space); `r37_sides` computes both sides of the
patched-extension identity for `internal_extension_check` and for the
re-verification in `verify`; `_check_i_set` validates an index set I.
Every space is memoized on its Config by `config.per_config`; equal
deletions of different configurations share one only through
`share_deletion_spaces`, a dict the caller keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import factorial, prod
from operator import mul

from .config import (
    Config,
    _activity,
    _coloop_mask,
    _delete,
    _derive,
    _histogram,
    _mask_to_set,
    _product,
    SemiExternalFamily,
    bases,
    ensure_family,
    extend_basis,
    facets,
    full_family,
    i_internal_bases,
    independents,
    internal_bases,
    is_coloop,
    is_independent,
    normal_power_condition,
    order_with_last,
    passive_set,
    per_config,
    set_to_mask,
    span_le,
    subset_polynomial,
    valuation_histogram,
)
from .errors import ColoopInI, ConditionFails, ConsistencyError, InputError, MissingB0, NotIndependent
from .graded import GradedSubspace, IdealGens, add, hilbert_quotient, intersect
from .linalg import canonical, echelon
from .poly import monomials, multi_factorial, perp_space_gens


@dataclass(frozen=True)
class Bundle:
    kind: str
    config: Config
    p_space: GradedSubspace
    q_basis: tuple | None
    i_ideal: IdealGens
    j_ideal: IdealGens
    hilbert_valuation: tuple
    hilbert_algebraic: tuple
    ieps_ideal: IdealGens | None = None
    family: SemiExternalFamily | None = None
    i_set: frozenset | None = None
    b_minus: tuple | None = None
    order: tuple | None = None

    def dim(self) -> int:
        return self.p_space.dim()


def _check(cond: bool, msg: str, **evidence):
    """Raise ConsistencyError with msg, followed by the evidence, unless cond holds."""
    if not cond:
        if evidence:
            msg += ": " + ", ".join(f"{k}={v!r}" for k, v in evidence.items())
        raise ConsistencyError(msg)


def stabilization_cap(c: Config) -> int:
    return 2 * (c.ncols + c.n) + 2


def minimal_hitting_sets(sets) -> tuple:
    """Inclusion-minimal sets meeting every member of the family.

    Sets are bitmasks throughout.  Branch on the unmet member with the fewest
    elements not yet banned; the branch that adds its k-th such element bans
    the ones before it, so the branches below a node share no set and every
    minimal hitting set H is reached once (always add the least element of
    H in the pivot).  Branches that contain a recorded hitting set are
    pruned (their completions cannot be minimal), and the sets found are
    filtered for minimality.  For the empty family the empty set is the
    unique answer; a family with an empty member has no hitting set at all.
    """
    family = [set_to_mask(frozenset(s)) for s in sets]
    if not all(family):
        return ()
    if not family:
        return (frozenset(),)
    found: list = []

    def branch(chosen: int, remaining, banned: int):
        for h in found:
            if not h & ~chosen:
                return
        rem = [s for s in remaining if not s & chosen]
        if not rem:
            found.append(chosen)
            return
        free = min((s & ~banned for s in rem), key=lambda s: (s.bit_count(), s))
        while free:
            low = free & -free
            branch(chosen | low, rem, banned)
            banned |= low
            free ^= low

    branch(0, family, 0)
    minimal = []
    for h in found:
        rest = h
        while rest:
            low = rest & -rest
            if all(s & (h ^ low) for s in family):
                break  # h without this element still hits everything
            rest ^= low
        else:
            minimal.append(h)
    return tuple(_mask_to_set(h) for h in sorted(minimal))


def _span(c: Config, masks) -> GradedSubspace:
    """Span of the products p_Y over the column masks, on the integer rows
    of the configuration's product table."""
    by_degree: dict = {}
    for mask in masks:
        by_degree.setdefault(mask.bit_count(), []).append(_product(c, mask)[0])
    return GradedSubspace.from_components(c.n, by_degree)


def _family_short_space(c: Config, fam) -> GradedSubspace:
    """Span of p_Y over subsets Y missing at least one family member."""
    full = (1 << c.ncols) - 1
    shorts = set()
    for i_set in fam:
        free = full ^ set_to_mask(i_set)
        sub = free
        while True:  # every submask of free, free itself down to 0
            shorts.add(sub)
            if not sub:
                break
            sub = (sub - 1) & free
    return _span(c, sorted(shorts))


@per_config
def central_space(c: Config) -> GradedSubspace:
    """Span of the products over short subsets: Y is short exactly when
    its complement still spans, that is, misses some basis."""
    return _family_short_space(c, bases(c))


def full_span_space(c: Config) -> GradedSubspace:
    """Span of the products over all column subsets, long ones included."""
    return _span(c, range(1 << c.ncols))


def facet_powers(c: Config, exponent) -> list:
    """Each facet normal raised to exponent(facet), with denominator 1; a
    facet whose exponent is None contributes nothing.  Every power ideal is
    built from these.

    (v . t)^e is written down by the multinomial theorem, coefficient
    e!/a! * v^a at t^a, and shares no code with the product table: the
    quotient route stays independent of the space route."""
    out = []
    for f in facets(c):
        e = exponent(f)
        if e is not None:
            row = tuple([
                factorial(e) // multi_factorial(a) * prod(map(pow, f.normal, a))
                for a in monomials(c.n, e)
            ])
            out.append((e, row, 1))
    return out


def cocircuit_gens(c: Config) -> IdealGens:
    # the complements of the facet flats are exactly the minimal subsets
    # meeting every basis, so they generate the whole long-subset ideal
    everything = frozenset(range(c.ncols))
    return IdealGens.make(
        c.n, [subset_polynomial(c, everything - f.members) for f in facets(c)]
    )


def _bundle(
    kind: str,
    c: Config,
    members,
    p_space: GradedSubspace,
    i_gens: IdealGens,
    j_gens: IdealGens,
    with_q_basis: bool = True,
    order=None,
    **extra,
) -> Bundle:
    """Check the bundle invariants and build the Bundle.

    With `with_q_basis` the members' passive-set products must span p_space
    and become the q_basis.  The valuation histogram of the members (in
    `order`, which the Bundle keeps; read off the q_basis passive sets
    when the order is index order), the quotient by i_gens and the
    p_space dimensions must give one Hilbert function; the histogram counts
    each member once, so p_space then has one dimension per member.  Each
    ConsistencyError starts with the kind."""
    label = kind.replace("_", "-")
    q_basis = None
    if with_q_basis:
        passive = [passive_set(c, m) for m in members]
        q_basis = tuple((m, subset_polynomial(c, y)) for m, y in zip(members, passive))
        p_from_q = _span(c, map(set_to_mask, passive))
        _check(
            p_from_q == p_space,
            f"{label}: passive-set products fail to span the short-set space",
            p_from_q_hilbert=p_from_q.hilbert(),
            p_space_hilbert=p_space.hilbert(),
        )
    if with_q_basis and order is None:
        h_val = _histogram(map(len, passive))
    else:
        h_val = valuation_histogram(c, members, order)
    h_alg = hilbert_quotient(i_gens, cap=stabilization_cap(c))
    h_space = p_space.hilbert()
    _check(
        h_val == h_alg == h_space,
        f"{label}: Hilbert functions disagree",
        h_val=h_val,
        h_alg=h_alg,
        p_space_hilbert=h_space,
    )
    return Bundle(kind, c, p_space, q_basis, i_gens, j_gens, h_val, h_alg, order=order, **extra)


def central(c: Config) -> Bundle:
    i_gens = IdealGens.make(c.n, facet_powers(c, lambda f: f.mult))
    return _bundle("central", c, bases(c), central_space(c), i_gens, cocircuit_gens(c))


def semi_external(c: Config, fam: SemiExternalFamily) -> Bundle:
    if c.b0 is None:
        raise MissingB0()
    fam = ensure_family(c, fam)
    member_set = set(fam.members)

    # power ideal: external facet powers, plus for every span S missed by the
    # family all degree-#(X off S) polynomials constant along S
    gens = facet_powers(c, lambda f: f.mult + 1)
    missing = {}
    for i_set in independents(c):
        if i_set not in member_set:
            missing.setdefault(canonical([c._ints[i] for i in sorted(i_set)], c.n), i_set)
    for key in sorted(missing, key=lambda m: (len(m), m)):
        rep = missing[key]
        off = sum(
            0 if span_le(c, {x}, rep) else 1 for x in range(c.ncols)
        ) if rep else c.ncols
        gens.extend(perp_space_gens(c.n, key, off))
    i_gens = IdealGens.make(c.n, gens)

    # pure-power variant: raise the exponent exactly on facets the family spans
    def eps_exponent(f):
        spanned = any(
            s in member_set
            for s in independents(c)
            if len(s) == c.n - 1 and s <= f.members
        )
        return f.mult + (1 if spanned else 0)

    ieps = IdealGens.make(c.n, facet_powers(c, eps_exponent))

    ext = c.extended()
    cover_family = [extend_basis(c, s) for s in fam]
    j_gens = IdealGens.make(
        c.n, [subset_polynomial(ext, y) for y in minimal_hitting_sets(cover_family)]
    )
    p_space = _family_short_space(c, fam)
    return _bundle(
        "semi_external", c, fam.members, p_space, i_gens, j_gens, ieps_ideal=ieps, family=fam
    )


def external(c: Config) -> Bundle:
    return replace(semi_external(c, full_family(c)), kind="external")


def semi_internal_i_gens(c: Config, i_set) -> IdealGens:
    """Central powers plus the once-reduced powers on facets not containing I."""
    i_set = frozenset(i_set)
    gens = facet_powers(c, lambda f: f.mult)
    gens += facet_powers(c, lambda f: None if i_set <= f.members else f.mult - 1)
    return IdealGens.make(c.n, gens)


@per_config
def _deletion_space(c: Config, x: int) -> GradedSubspace:
    """The central space of X - x, never an intersection."""
    return central_space(_delete(c, x))


def share_deletion_spaces(c: Config, shared: dict) -> None:
    """Fill c's deletion spaces from shared, keyed on each deletion's integer
    columns (column scales do not change a space), and add those it lacks:
    equal deletions are built once.  No column of c may be a coloop."""
    for x in range(c.ncols):
        key = c._ints[:x] + c._ints[x + 1:]
        if key not in shared:
            shared[key] = _deletion_space(c, x)
        c._tables[("_deletion_space", x)] = shared[key]


def deletion_intersection(c: Config, cols) -> GradedSubspace:
    """Intersection of the central spaces of the deletions X - x, x in cols
    (each a non-coloop); the central space of X itself when cols is empty."""
    if not cols:
        return central_space(c)
    return reduce(intersect, (_deletion_space(c, x) for x in sorted(cols)))


@per_config
def internal_space(c: Config) -> GradedSubspace:
    """Intersection of the deletion central spaces over every single column.

    Only defined when no column is a coloop (every deletion keeps full rank);
    callers check that before calling.
    """
    return deletion_intersection(c, range(c.ncols))


def _check_i_set(c: Config, i_set: frozenset) -> None:
    """I must be independent and hold no coloop."""
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    for b in sorted(i_set):
        if is_coloop(c, b):
            raise ColoopInI(b)


def semi_internal(c: Config, i_set) -> Bundle:
    i_set = frozenset(i_set)
    if not i_set:
        return central(c)
    _check_i_set(c, i_set)

    bminus = i_internal_bases(c, i_set)
    j_gens = IdealGens.make(
        c.n, [subset_polynomial(c, y) for y in minimal_hitting_sets(bminus)]
    )
    return _bundle(
        "semi_internal",
        c,
        bminus,
        deletion_intersection(c, i_set),
        semi_internal_i_gens(c, i_set),
        j_gens,
        with_q_basis=False,
        order=order_with_last(c, i_set),
        i_set=i_set,
        b_minus=bminus,
    )


def bundle_for(c: Config, kind: str, fam: SemiExternalFamily | None = None, i_set=None) -> Bundle:
    if kind == "central":
        return central(c)
    if kind == "external":
        return external(c)
    if kind == "semi_external":
        if fam is None:
            raise InputError("kind semi_external needs the iprime field in the input")
        return semi_external(c, fam)
    if kind == "semi_internal":
        if i_set is None:
            raise InputError("kind semi_internal needs the index list i in the input")
        return semi_internal(c, i_set)
    raise ValueError(f"unknown kind {kind!r}")


def dual_pairing_certificate(bundle: Bundle, kernel_space: GradedSubspace) -> dict:
    """Gram-matrix invertibility between the primal basis (the q_basis
    products, else the p_space rows) and the basis of kernel_space, the
    cover-ideal kernel: the batteries pass the least space of the vertices,
    which `graded.equals_kernel` has compared with it.  The entry of integer
    rows p and q is the apolarity pairing sum_m p_m q_m m!, zero across
    degrees; scaling a row or a column changes no rank, so no denominator is
    read."""
    if bundle.q_basis is not None:
        p_polys = [q for _, q in bundle.q_basis]
    else:
        p_polys = bundle.p_space.basis_polys()
    n = bundle.config.n
    d_polys = [
        (d, [x * multi_factorial(m) for x, m in zip(row, monomials(n, d))])
        for d, row, _ in kernel_space.basis_polys()
    ]
    gram = [[sum(map(mul, p, q)) if e == d else 0 for d, q in d_polys] for e, p, _ in p_polys]
    square = len(p_polys) == len(d_polys)
    # both spaces zero: an empty echelon, vacuously a perfect pairing
    invertible = square and len(echelon(gram, len(d_polys))) == len(p_polys)
    return {
        "dim_primal": len(p_polys),
        "dim_kernel": len(d_polys),
        "invertible": invertible,
        "passed": square and invertible,
    }


def minimal_completion_sum(c: Config, fam: SemiExternalFamily) -> GradedSubspace:
    """Sum over minimal family members of the intersections of the central
    spaces of the configurations augmented by each basis completion; raises
    ConditionFails unless the family meets the normal-power condition."""
    holds, witness = normal_power_condition(c, fam)
    if not holds:
        raise ConditionFails(witness)
    spaces: dict = {}  # integer columns added to X -> central space: equal ones built once

    def completion_space(extra):
        extra = sorted(extra)
        key = tuple(c._ints[j] for j in extra)
        if key not in spaces:
            # X followed by copies of the extra columns
            spaces[key] = central_space(_derive(c, [*range(c.ncols), *extra]))
        return spaces[key]

    total = GradedSubspace.zero(c.n)
    for i_set in fam:
        if any(m < i_set for m in fam):
            continue
        inter = reduce(intersect, (completion_space(b - i_set) for b in bases(c) if i_set <= b))
        total = add(total, inter)
    return total


def internal_extension_check(c: Config, i_set) -> dict:
    """Compare the deletion-intersection space against the all-deletions space
    patched by the extra passive-set products.

    For #i_set <= 2 the equality is a certified statement; for larger sets it
    is exploratory (the report carries the verdict either way).
    """
    i_set = frozenset(i_set)
    _check_i_set(c, i_set)
    report = {
        "i": sorted(i_set),
        "size": len(i_set),
        "mode": "assert" if len(i_set) <= 2 else "explore",
    }
    if _coloop_mask(c):
        report["skipped"] = (
            "configuration has a coloop; the all-deletions intersection is undefined"
        )
        return report

    lhs, rhs, n_plain, n_restricted = r37_sides(c, i_set)
    report.update(
        {
            "equal": lhs == rhs,
            "lhs_hilbert": list(lhs.hilbert()),
            "rhs_hilbert": list(rhs.hilbert()),
            "restricted_bases": n_restricted,
            "plain_bases": n_plain,
        }
    )
    return report


def r37_sides(c: Config, i_set) -> tuple:
    """Both sides of the patched-extension identity and the counts of plain
    and I-restricted internal bases: the deletion intersection over I, and the
    internal space plus the passive-set products of the I-restricted internal
    bases not internal in the order with I last.  No column may be a coloop."""
    i_set = frozenset(i_set)
    order = order_with_last(c, i_set)
    i_mask = set_to_mask(i_set)
    activity = _activity(c, order)
    patch = [set_to_mask(passive_set(c, b, order)) for b, a in activity if a and not a & i_mask]
    lhs = deletion_intersection(c, i_set)
    rhs = add(internal_space(c), _span(c, patch))
    n_plain = sum(not a for _, a in activity)
    n_restricted = sum(not a & i_mask for _, a in activity)
    return lhs, rhs, n_plain, n_restricted


def codimension_counts(c: Config) -> dict:
    """Quotient codimensions of the three power ideals against the matroid
    counts they must reproduce (bases / independents / internal bases)."""
    cap = stabilization_cap(c)
    rows = []
    for label, shift, count in (
        ("central", 0, len(bases(c))),
        ("external", 1, len(independents(c))),
        ("internal", -1, len(internal_bases(c))),
    ):
        gens = IdealGens.make(c.n, facet_powers(c, lambda f: f.mult + shift))
        codim = sum(hilbert_quotient(gens, cap=cap))
        rows.append(
            {"kind": label, "codim": codim, "count": count, "equal": codim == count}
        )
    return {"rows": rows, "passed": all(r["equal"] for r in rows)}
