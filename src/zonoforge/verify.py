"""Certificate battery: each token runs the machine checks for one statement.

Every check returns a row with a human-readable name, a passed flag and the
evidence (dimensions, Hilbert functions, offsets, witnesses).  A report
passes when all of its rows pass; rows that do not apply to the input are
recorded as skipped and count as passing.
"""

from __future__ import annotations

import itertools
import random

from .config import (
    Config,
    _derive,
    _matroid,
    SemiExternalFamily,
    bases,
    extend_basis,
    independents,
    is_independent,
    normal_power_condition,
    passive_set,
    rank_of,
    set_to_mask,
)
from .errors import ConsistencyError, InputError
from .geometry import (
    least_space,
    make_arrangement,
    restriction_certificate,
    vertex_set,
    zonotope_lattice,
)
from .graded import (
    GradedSubspace,
    IdealGens,
    direct_sum_certificate,
    equals_kernel,
    hilbert_quotient,
    ideal_contains,
    ideals_equal,
)
from .zonotopal import (
    _span,
    central,
    codimension_counts,
    dual_pairing_certificate,
    external,
    facet_powers,
    full_span_space,
    internal_extension_check,
    minimal_completion_sum,
    r37_sides,
    semi_external,
    semi_internal,
    semi_internal_i_gens,
    share_deletion_spaces,
    stabilization_cap,
)

SEARCH_MAX_N = 3
SEARCH_MAX_COLS = 6


def _row(name: str, passed: bool, **evidence) -> dict:
    r = {"check": name, "passed": bool(passed)}
    r.update(evidence)
    return r


def _space_row(name: str, lhs: GradedSubspace, rhs: GradedSubspace, **evidence) -> dict:
    return _row(
        name,
        lhs == rhs,
        lhs_hilbert=list(lhs.hilbert()),
        rhs_hilbert=list(rhs.hilbert()),
        **evidence,
    )


def _kernel_row(name: str, space: GradedSubspace, gens: IdealGens, dmax: int, **evidence) -> dict:
    """space against kernel(gens, dmax) by `equals_kernel`: rhs_hilbert is
    the kernel's Hilbert vector, and a failing row names the first generator
    and degree that do not annihilate space, if any."""
    equal, h, witness = equals_kernel(space, gens, dmax)
    if witness is not None:
        evidence["not_annihilated"] = {"generator": witness[0], "degree": witness[1]}
    return _row(name, equal, lhs_hilbert=list(space.hilbert()), rhs_hilbert=list(h), **evidence)


def _offsets_str(arr) -> list:
    return [str(x) for x in arr.offsets]


def _extended_offsets(c: Config):
    lam = list(c.lam) if c.lam is not None else [None] * c.ncols
    lam_b0 = list(c.lam_b0) if c.lam_b0 is not None else [None] * c.n
    return lam + lam_b0


def _dual_row(bundle, points, label: str, arr) -> tuple:
    """The least space of the points against the cover-ideal kernel one
    degree past the primal top: the row, and that least space."""
    least = least_space(points)
    evidence = {"n_points": len(points), "offsets": _offsets_str(arr)}
    dmax = bundle.p_space.top_degree() + 1
    return _kernel_row(label, least, bundle.j_ideal, dmax, **evidence), least


def _direct_sum_row(bundle, dmax=None) -> dict:
    cert = direct_sum_certificate(bundle.p_space, bundle.j_ideal, dmax)
    return _row(
        "primal space and cover ideal fill every degree exactly once",
        cert["passed"],
        dmax=cert["dmax"],
        degrees=cert["degrees"],
    )


def _gram_row(bundle, dual: dict, least: GradedSubspace) -> dict:
    """The pairing with the least space of the dual row, which is the
    kernel only when that row passed: otherwise this row fails too."""
    cert = dual_pairing_certificate(bundle, least)
    return _row(
        "pairing between the primal basis and the kernel basis is invertible",
        dual["passed"] and cert["passed"],
        dim_primal=cert["dim_primal"],
        dim_kernel=cert["dim_kernel"],
    )


def _triple_hilbert_row(bundle) -> dict:
    agree = (
        bundle.hilbert_valuation
        == bundle.hilbert_algebraic
        == bundle.p_space.hilbert()
    )
    return _row(
        "valuation, quotient and space Hilbert functions agree",
        agree,
        hilbert=list(bundle.hilbert_valuation),
    )


def _bundle_rows(bundle, what: str, count: int) -> list:
    """The rows every bundle battery opens with: the primal dimension
    against the member count, the three Hilbert functions, and the primal
    space against the power-ideal kernel."""
    p = bundle.p_space
    return [
        _row(
            f"space dimension equals the {what}",
            bundle.dim() == count,
            dim=bundle.dim(),
            count=count,
        ),
        _triple_hilbert_row(bundle),
        _kernel_row("primal space equals the power-ideal kernel", p, bundle.i_ideal, p.top_degree()),
    ]


def _reorder_row(bundle, seed: int) -> dict:
    """The members' passive-set products in a seeded column order span the
    primal space, whose q_basis was read in index order.  Order perm on X
    gives the passive sets of index order on the permuted configuration,
    and |members| homogeneous products spanning a space of that dimension
    are a basis whose degrees are its Hilbert function."""
    c = bundle.config
    perm = list(range(c.ncols))
    random.Random(seed).shuffle(perm)
    span = _span(c, [set_to_mask(passive_set(c, m, perm)) for m, _ in bundle.q_basis])
    return _space_row(
        "primal space is invariant under column reordering",
        span,
        bundle.p_space,
        permutation=perm,
    )


def _verify_th1(c: Config, given, seed: int, dmax) -> list:
    rep = codimension_counts(c)
    return [
        _row(
            f"{r['kind']} power-ideal codimension equals its enumeration count",
            r["equal"],
            codim=r["codim"],
            count=r["count"],
        )
        for r in rep["rows"]
    ]


def _verify_exzono(c: Config, given, seed: int, dmax) -> list:
    b = central(c)
    rows = _bundle_rows(b, "basis count", len(bases(c)))
    arr = make_arrangement(c, c.lam, seed)
    pts = vertex_set(arr, bases(c))
    dual, _ = _dual_row(b, pts, "least space of the vertices equals the cover-ideal kernel", arr)
    return rows + [dual, _direct_sum_row(b, dmax)]


def _verify_pi(c: Config, given, seed: int, dmax) -> list:
    arr = make_arrangement(c, c.lam, seed)
    pts = vertex_set(arr, bases(c))
    ls = least_space(pts)
    rc = restriction_certificate(pts, ls)
    return [
        _row(
            "simple arrangement has one vertex per basis",
            len(pts) == len(bases(c)),
            n_vertices=len(pts),
            n_bases=len(bases(c)),
            offsets=_offsets_str(arr),
        ),
        _row(
            "least space dimension equals the point count",
            ls.dim() == len(pts),
            dim=ls.dim(),
            n_points=len(pts),
        ),
        _row(
            "restriction of the least space to the points is invertible",
            rc["passed"],
            dim_space=rc["dim_space"],
            n_points=rc["n_points"],
        ),
        _space_row(
            "truncation degree does not affect the least space",
            ls,
            least_space(pts, extra=1),
        ),
    ]


def _verify_plus(c: Config, given, seed: int, dmax) -> list:
    gens = IdealGens.make(c.n, facet_powers(c, lambda f: f.mult + 1))
    h = hilbert_quotient(gens, cap=stabilization_cap(c))
    p = full_span_space(c)
    count = len(independents(c))
    rows = [
        _row(
            "power-ideal codimension equals the independent count",
            sum(h) == count,
            codim=sum(h),
            count=count,
        ),
        _row(
            "full span dimension equals the independent count",
            p.dim() == count,
            dim=p.dim(),
            count=count,
        ),
        _kernel_row("full span equals the power-ideal kernel", p, gens, p.top_degree()),
    ]
    unimodular, pts = zonotope_lattice(c)
    if unimodular:
        rows.append(
            _space_row(
                "least space of the lattice points equals the full span",
                least_space(pts),
                p,
                n_lattice_points=len(pts),
            )
        )
    else:
        rows.append(
            _row(
                "least space of the lattice points equals the full span",
                True,
                skipped="configuration is not unimodular",
            )
        )
    return rows


def _valuation_by_ranks(c: Config, cols) -> int:
    """The valuation of cols in index order, counted by ranks: x outside
    cols is passive when it raises the rank of the members before it.
    `passive_set` reads the independence table instead, so the basis row
    compares two routes."""
    count = 0
    for x in range(c.ncols):
        if x not in cols:
            earlier = frozenset(j for j in cols if j < x)
            count += rank_of(c, earlier | {x}) > rank_of(c, earlier)
    return count


def _verify_basis(c: Config, given, seed: int, dmax) -> list:
    b = central(c)
    degrees_ok = all(q[0] == _valuation_by_ranks(c, cols) for cols, q in b.q_basis)
    return [
        _row(
            "one generator per basis",
            len(b.q_basis) == len(bases(c)),
            n_generators=len(b.q_basis),
            n_bases=len(bases(c)),
        ),
        _space_row(
            "generators span the primal space",
            GradedSubspace.from_spanning(c.n, [q for _, q in b.q_basis]),
            b.p_space,
        ),
        _row("generator degree equals the basis valuation", degrees_ok),
        _triple_hilbert_row(b),
        _reorder_row(b, seed),
    ]


def _verify_explus(c: Config, given, seed: int, dmax) -> list:
    b = external(c)
    rows = _bundle_rows(b, "independent count", len(independents(c)))
    rows.append(_direct_sum_row(b, dmax))
    arr = make_arrangement(c.extended(), _extended_offsets(c), seed)
    ext_bases = [extend_basis(c, s) for s in independents(c)]
    pts = vertex_set(arr, ext_bases)
    label = "least space of the extended vertices equals the cover-ideal kernel"
    return rows + [_dual_row(b, pts, label, arr)[0], _reorder_row(b, seed)]


def _verify_t26(c: Config, fam: SemiExternalFamily, seed: int, dmax) -> list:
    b = semi_external(c, fam)
    fam = b.family
    rows = _bundle_rows(b, "family size", len(fam))
    arr = make_arrangement(c.extended(), _extended_offsets(c), seed)
    pts = vertex_set(arr, [extend_basis(c, s) for s in fam])
    label = "least space of the family vertices equals the cover-ideal kernel"
    dual, least = _dual_row(b, pts, label, arr)
    rows += [dual, _direct_sum_row(b, dmax), _gram_row(b, dual, least)]
    return rows


def _verify_t28(c: Config, fam: SemiExternalFamily, seed: int, dmax) -> list:
    b = semi_external(c, fam)
    fam = b.family
    holds, witness = normal_power_condition(c, fam)
    rows = [
        _row(
            "normal-power condition status (hypothesis, reported not asserted)",
            True,
            holds=holds,
            witness=None if witness is None else sorted(witness),
        )
    ]
    dmax = max(
        len(b.hilbert_algebraic),
        len(hilbert_quotient(b.ieps_ideal, cap=stabilization_cap(c))),
    )
    if holds:
        rows.append(
            _row(
                "power ideal equals the pure-power ideal degreewise",
                ideals_equal(b.i_ideal, b.ieps_ideal, dmax),
                dmax=dmax,
            )
        )
        rows.append(
            _space_row(
                "minimal-member completion sum equals the primal space",
                minimal_completion_sum(c, fam),
                b.p_space,
            )
        )
    else:
        rows.append(
            _row(
                "pure-power ideal is contained in the power ideal degreewise",
                ideal_contains(b.i_ideal, b.ieps_ideal, dmax),
                dmax=dmax,
            )
        )
    return rows


def _verify_t33(c: Config, i_set, seed: int, dmax) -> list:
    b = semi_internal(c, i_set)
    count = len(b.b_minus) if b.b_minus is not None else len(bases(c))
    return _bundle_rows(b, "restricted basis count", count)


def _verify_t34(c: Config, i_set, seed: int, dmax) -> list:
    b = semi_internal(c, i_set)
    fam_bases = b.b_minus if b.b_minus is not None else bases(c)
    arr = make_arrangement(c, c.lam, seed)
    pts = vertex_set(arr, fam_bases)
    label = "least space of the restricted vertices equals the cover-ideal kernel"
    dual, least = _dual_row(b, pts, label, arr)
    return [dual, _direct_sum_row(b, dmax), _gram_row(b, dual, least)]


def _verify_r37(c: Config, i_set, seed: int, dmax) -> list:
    rep = internal_extension_check(c, i_set)
    # only a computed equality in assert mode can fail the row
    passed = "skipped" in rep or rep["mode"] == "explore" or rep["equal"]
    return [
        _row(
            "deletion-intersection space matches the patched all-deletions space",
            passed,
            **rep,
        )
    ]


# token -> (battery, the input it needs: None, "family" or "i"); every
# battery takes (config, that input, seed, dmax)
BATTERIES = {
    "th1": (_verify_th1, None),
    "exzono": (_verify_exzono, None),
    "pi": (_verify_pi, None),
    "plus": (_verify_plus, None),
    "basis": (_verify_basis, None),
    "explus": (_verify_explus, None),
    "t26": (_verify_t26, "family"),
    "t28": (_verify_t28, "family"),
    "t33": (_verify_t33, "i"),
    "t34": (_verify_t34, "i"),
    "r37": (_verify_r37, "i"),
}

THEOREMS = tuple(BATTERIES)
_INPUT_NAMES = {"family": "the iprime family", "i": "the index list i"}


def run_theorem(
    token: str,
    c: Config,
    fam: SemiExternalFamily | None = None,
    i_set=None,
    seed: int = 0,
    dmax=None,
) -> dict:
    if token not in BATTERIES:
        raise InputError(
            f"unknown theorem {token!r}; expected one of {', '.join(THEOREMS)}"
        )
    battery, needs = BATTERIES[token]
    given = {"family": fam, "i": i_set}.get(needs)
    if needs is not None and given is None:
        raise InputError(f"theorem {token} needs {_INPUT_NAMES[needs]} in the input")
    checks = battery(c, given, seed, dmax)
    return {
        "theorem": token,
        "checks": checks,
        "passed": all(r["passed"] for r in checks),
    }


def _confirm_violation(c: Config, i_set, lhs: GradedSubspace, rhs: GradedSubspace) -> bool:
    """Check that the left side lhs of `r37_sides` is the power-ideal kernel
    before trusting a reported inequality with rhs; the two primal routes
    must agree with each other.  Once a kernel component is zero every later
    one is (the ideal is full from there on), so equality through one degree
    past the top of lhs is equality in every degree."""
    gens = semi_internal_i_gens(c, i_set)
    equal, h, witness = equals_kernel(lhs, gens, lhs.top_degree() + 1)
    if not equal:
        raise ConsistencyError(
            "deletion-intersection space and power-ideal kernel disagree: "
            f"columns {[list(map(str, v)) for v in c.columns]}, i={sorted(i_set)}, "
            f"lhs_hilbert={list(lhs.hilbert())}, kernel_hilbert={list(h)}, not_annihilated={witness}"
        )
    return lhs != rhs


def search_internal_extension(max_n: int, max_cols: int) -> dict:
    """Enumerate small 0/1 configurations and independent triples, looking for
    a failure of the patched-extension equality.  Finding nothing asserts
    nothing; any hit is re-verified through an independent route first.  A
    window that would examine nothing (n < 3 or fewer than 4 columns) is
    refused, like one past the caps.  Each triple goes straight to
    `r37_sides`: an examined configuration has no coloop and each triple is
    found independent first, all that `internal_extension_check` validates.
    Per n, the pool of 2^n - 1 nonzero 0/1 vectors is one Config and each
    configuration a sorted tuple of pool indices: it is skipped for rank
    unless its pool mask contains a pool basis, and for a coloop when an
    index picked once leaves a mask that does not; an examined one is
    `_derive(pool, picks)`.  The pool's independence table walks 2^(2^n - 1)
    masks, 128 at n = 3 and 32,768 at n = 4, which is why n stays at most
    SEARCH_MAX_N = 3."""
    if max_n > SEARCH_MAX_N or max_cols > SEARCH_MAX_COLS:
        raise InputError(
            f"search bounds capped at n<={SEARCH_MAX_N}, columns<={SEARCH_MAX_COLS}; "
            f"got n<={max_n}, columns<={max_cols}"
        )
    # the search starts at n = 3, and with N = n every column is a coloop
    if max_n < 3 or max_cols < 4:
        raise InputError(
            f"empty search window: needs n>=3 and columns>=4, "
            f"got n<={max_n}, columns<={max_cols}"
        )
    report = {
        "bounds": {"max_n": max_n, "max_cols": max_cols},
        "configs_examined": 0,
        "configs_skipped_rank": 0,
        "configs_skipped_coloop": 0,
        "triples_checked": 0,
        "violations": [],
        "note": "an empty violation list asserts nothing beyond the searched bounds",
    }
    for n in range(3, max_n + 1):
        pool = Config(tuple(v for v in itertools.product((0, 1), repeat=n) if any(v)))
        pool_bases = _matroid(pool)[1]
        spanning: dict = {}  # pool mask -> it contains a pool basis

        def spans(mask):
            if mask not in spanning:
                spanning[mask] = any(b & mask == b for b in pool_bases)
            return spanning[mask]

        for ncols in range(n, max_cols + 1):
            shared: dict = {}  # deletion integer columns -> central space
            for picks in itertools.combinations_with_replacement(range(pool.ncols), ncols):
                # both skips read pool masks, so a skipped configuration
                # builds no Config
                mask = sum(1 << p for p in set(picks))
                if not spans(mask):
                    report["configs_skipped_rank"] += 1
                    continue
                if any(picks.count(p) == 1 and not spans(mask ^ 1 << p) for p in picks):
                    report["configs_skipped_coloop"] += 1
                    continue
                c = _derive(pool, picks)
                share_deletion_spaces(c, shared)
                report["configs_examined"] += 1
                for tri in itertools.combinations(range(ncols), 3):
                    i_set = frozenset(tri)
                    if not is_independent(c, i_set):
                        continue
                    report["triples_checked"] += 1
                    lhs, rhs, _, _ = r37_sides(c, i_set)
                    if lhs != rhs and _confirm_violation(c, i_set, lhs, rhs):
                        report["violations"].append(
                            {
                                "matrix": [
                                    [int(c.columns[j][i]) for j in range(ncols)]
                                    for i in range(n)
                                ],
                                "i": sorted(i_set),
                                "lhs_hilbert": list(lhs.hilbert()),
                                "rhs_hilbert": list(rhs.hilbert()),
                                "reverified": True,
                            }
                        )
    return report
