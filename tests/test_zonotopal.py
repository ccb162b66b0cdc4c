"""Bundle constructors and their built-in certificates.

Expected dimensions, Hilbert vectors and generator lists were derived by hand
from the defining data (facet normals with multiplicities, basis activity)
and are frozen here as oracles.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graded_oracle import integer_contains
from hpoly_oracle import as_hpoly, as_row, pair
from test_linalg import reference_rank
from zonoforge import cli, zonotopal
from zonoforge.cli import _family, parse_document
from zonoforge.config import (
    bases,
    full_family,
    make_config,
    semiexternal_close,
    set_to_mask,
)
from zonoforge.errors import (
    ColoopInI,
    ConditionFails,
    ConsistencyError,
    InputError,
    MissingB0,
    NotIndependent,
)
from zonoforge.graded import (
    GradedSubspace,
    IdealGens,
    component_dim,
    hilbert_quotient,
    ideal_contains,
    ideals_equal,
    kernel,
)
from zonoforge.poly import HPoly
from zonoforge.zonotopal import (
    bundle_for,
    central,
    central_space,
    codimension_counts,
    d_space,
    dual_pairing_certificate,
    external,
    full_span_space,
    internal_extension_check,
    internal_space,
    minimal_completion_sum,
    minimal_hitting_sets,
    semi_external,
    semi_internal,
    stabilization_cap,
)

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


# -- hitting sets --------------------------------------------------------------


def test_minimal_hitting_sets_small():
    got = minimal_hitting_sets([{0, 1}, {1, 2}])
    assert set(got) == {frozenset({1}), frozenset({0, 2})}


def test_minimal_hitting_sets_edges():
    assert minimal_hitting_sets([]) == (frozenset(),)
    assert minimal_hitting_sets([{0}, set()]) == ()
    assert minimal_hitting_sets([{0}, {1}]) == (frozenset({0, 1}),)


def test_minimal_hitting_sets_prunes_supersets():
    got = minimal_hitting_sets([{0, 1}, {0, 2}, {0, 3}])
    assert set(got) == {frozenset({0}), frozenset({1, 2, 3})}


def reference_minimal_hitting_sets(sets) -> tuple:
    """Inclusion-minimal sets meeting every member of the family.

    Branch on the smallest still-unmet member; prune branches that already
    contain a recorded hitting set (their completions cannot be minimal).
    For the empty family the empty set is the unique answer; a family with
    an empty member has no hitting set at all.
    """
    family = [frozenset(s) for s in sets]
    if any(not s for s in family):
        return ()
    if not family:
        return (frozenset(),)
    found: set = set()

    def branch(chosen: frozenset, remaining):
        if any(h <= chosen for h in found):
            return
        rem = [s for s in remaining if not (s & chosen)]
        if not rem:
            found.add(chosen)
            return
        pivot = min(rem, key=lambda s: (len(s), sorted(s)))
        for e in sorted(pivot):
            branch(chosen | {e}, rem)

    branch(frozenset(), family)
    minimal = [
        h
        for h in found
        if all(any(not (s & (h - {e})) for s in family) for e in h)
    ]
    return tuple(sorted(minimal, key=set_to_mask))


def _random_family(rng, universe: int, count: int) -> list:
    """Random subsets of range(universe), sometimes with an empty member or a
    repeated one, as sets, frozensets or sorted lists."""
    family = [
        {e for e in range(universe) if rng.random() < rng.choice((0.2, 0.4, 0.6))}
        for _ in range(count)
    ]
    family = [s for s in family if s] if rng.random() < 0.9 else family
    if family and rng.random() < 0.2:
        family.append(set(rng.choice(family)))
    kind = rng.choice((set, frozenset, sorted))
    return [kind(s) for s in family]


@pytest.mark.parametrize("seed", range(40))
def test_minimal_hitting_sets_match_frozenset_route(seed):
    rng = random.Random(3100 + seed)
    family = _random_family(rng, rng.randint(1, 9), rng.randint(0, 8))
    got = minimal_hitting_sets(family)
    assert got == reference_minimal_hitting_sets(family)
    assert all(type(h) is frozenset for h in got)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=8)
)
def test_minimal_hitting_sets_match_frozenset_route_hypothesis(family):
    assert minimal_hitting_sets(family) == reference_minimal_hitting_sets(family)


# -- central -------------------------------------------------------------------


def test_central_bundle(ex25):
    b = central(ex25)
    assert b.kind == "central"
    assert b.dim() == 4
    assert b.hilbert_valuation == b.hilbert_algebraic == b.p_space.hilbert() == (1, 3)
    assert len(b.q_basis) == 4
    assert kernel(b.i_ideal, b.p_space.top_degree()) == b.p_space


def test_central_q_degrees_are_valuations(ex25):
    b = central(ex25)
    degs = sorted(d for _, (d, _, _) in b.q_basis)
    assert degs == [0, 1, 1, 1]


def test_central_identity2(identity2):
    b = central(identity2)
    assert b.dim() == 1
    assert b.hilbert_algebraic == (1,)


def test_central_space_is_cached(ex25):
    assert central_space(ex25) is central_space(ex25)


# -- external ------------------------------------------------------------------


def test_external_bundle(ex25):
    b = external(ex25)
    assert b.kind == "external"
    assert b.dim() == 15
    assert b.hilbert_algebraic == (1, 3, 6, 4, 1)
    assert b.p_space == full_span_space(ex25)


def test_external_triangle(triangle):
    b = external(triangle)
    assert b.dim() == 7
    assert b.hilbert_algebraic == (1, 2, 3, 1)


# -- internal ------------------------------------------------------------------


def test_internal_space(ex25, identity2):
    assert internal_space(ex25).hilbert() == (1,)
    # deleting a coloop breaks full rank, so the all-deletions intersection
    # refuses configurations with coloops
    from zonoforge.errors import RankDeficient

    with pytest.raises(RankDeficient):
        internal_space(identity2)


def _codim_pairs(c):
    rep = codimension_counts(c)
    assert rep["passed"]
    return [(row["codim"], row["count"]) for row in rep["rows"]]


def test_codimension_counts(ex25, triangle, identity2):
    assert _codim_pairs(ex25) == [(4, 4), (15, 15), (1, 1)]
    assert _codim_pairs(triangle) == [(3, 3), (7, 7), (1, 1)]
    assert _codim_pairs(identity2) == [(1, 1), (4, 4), (0, 0)]


# -- semi-external -------------------------------------------------------------


def test_semi_external_first_family(ex25, fam1):
    b = semi_external(ex25, fam1)
    assert b.kind == "semi_external"
    assert b.dim() == 7
    assert b.hilbert_algebraic == (1, 3, 3)
    assert len(b.q_basis) == 7
    assert kernel(b.i_ideal, b.p_space.top_degree()) == b.p_space


def test_semi_external_second_family(ex25, fam2):
    b = semi_external(ex25, fam2)
    assert b.dim() == 8
    assert b.hilbert_algebraic == (1, 3, 3, 1)


def test_semi_external_pure_powers_second_family(ex25, fam2):
    # with the condition holding, the power ideal collapses to the six
    # facet-normal powers: cubes on member-spanned hyperplanes, squares off
    b = semi_external(ex25, fam2)
    cap = stabilization_cap(ex25)
    dmax = max(
        len(hilbert_quotient(b.i_ideal, cap)),
        len(hilbert_quotient(b.ieps_ideal, cap)),
    )
    assert ideals_equal(b.i_ideal, b.ieps_ideal, dmax)


def test_semi_external_mixed_generator_first_family(ex25, fam1):
    # span{e2, e3} is spanned by no family member, so its block contributes
    # the product t2 * t3^2 on top of the plain normal powers
    b = semi_external(ex25, fam1)
    mixed = IdealGens.make(3, [as_row(HPoly.monomial(3, (0, 1, 2)))])
    dmax = len(hilbert_quotient(b.i_ideal, stabilization_cap(ex25)))
    assert ideal_contains(b.i_ideal, mixed, dmax)
    assert not ideal_contains(b.ieps_ideal, mixed, dmax)


def test_semi_external_needs_b0():
    c = make_config([[1, 0], [0, 1]])
    with pytest.raises(MissingB0):
        semi_external(c, full_family(c))


def test_external_equals_full_family_semi_external(ex25):
    assert external(ex25).p_space == semi_external(ex25, full_family(ex25)).p_space


def test_minimal_completion_sum(ex25, fam1, fam2):
    assert minimal_completion_sum(ex25, fam2) == semi_external(ex25, fam2).p_space
    with pytest.raises(ConditionFails):
        minimal_completion_sum(ex25, fam1)


def test_equal_augmentations_share_one_central_space(monkeypatch, tmp_path):
    # repeated.json's columns 0 and 1 are equal, so the completions of its
    # minimal member by either one are equal augmentations: one space.
    # `_derive` is zonotopal's builder of augmentations and of nothing else
    augmented, built = [], []
    real_derive, real_space = zonotopal._derive, zonotopal.central_space

    def derive(c, picks):
        augmented.append(real_derive(c, picks))
        return augmented[-1]

    def space(c):
        if any(c is a for a in augmented):
            built.append(c._ints)
        return real_space(c)

    monkeypatch.setattr(zonotopal, "_derive", derive)
    monkeypatch.setattr(zonotopal, "central_space", space)
    out = tmp_path / "report.json"
    argv = ["verify", "--theorem", "t28", "--input", str(INPUTS / "repeated.json"), "--output", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["passed"]
    assert len(augmented) == len(built) == len(set(built)) == 1


# -- semi-internal -------------------------------------------------------------


def test_semi_internal_bundle(ex25):
    b = semi_internal(ex25, {3})
    assert b.kind == "semi_internal"
    assert b.dim() == 1
    assert b.hilbert_algebraic == (1,)
    assert b.b_minus == (frozenset({0, 1, 2}),)
    assert b.i_set == frozenset({3})


def test_semi_internal_empty_i_is_central(ex25):
    assert semi_internal(ex25, frozenset()) == central(ex25)


def test_semi_internal_repeated_column(repeated):
    b = semi_internal(repeated, {0})
    assert b.dim() == 1
    assert b.b_minus == (frozenset({1, 2}),)


def test_semi_internal_rejects_coloop(repeated):
    with pytest.raises(ColoopInI):
        semi_internal(repeated, {2})


def test_semi_internal_rejects_dependent(ex25):
    with pytest.raises(NotIndependent):
        semi_internal(ex25, {0, 1, 2, 3})


def test_semi_internal_triangle(triangle):
    b = semi_internal(triangle, {2})
    assert b.dim() == 1
    assert b.b_minus == (frozenset({0, 1}),)


# -- shared machinery ----------------------------------------------------------


def test_bundle_for_dispatch(ex25, fam1):
    assert bundle_for(ex25, "central").kind == "central"
    assert bundle_for(ex25, "external").kind == "external"
    assert bundle_for(ex25, "semi_external", fam=fam1).kind == "semi_external"
    assert bundle_for(ex25, "semi_internal", i_set={3}).kind == "semi_internal"


def test_bundle_for_without_a_family_is_an_input_error(ex25):
    with pytest.raises(InputError, match="kind semi_external needs the iprime field"):
        bundle_for(ex25, "semi_external")


def test_bundle_for_without_an_index_list_is_an_input_error(ex25):
    # an absent i is a caller error, not the empty set (the central bundle)
    with pytest.raises(InputError, match="kind semi_internal needs the index list i"):
        bundle_for(ex25, "semi_internal")


def test_d_space_dimension_matches(ex25):
    b = central(ex25)
    assert d_space(b).dim() == b.dim()


def test_dual_pairing_certificate(ex25, fam1):
    for b in (central(ex25), semi_external(ex25, fam1), semi_internal(ex25, {3})):
        cert = dual_pairing_certificate(b, d_space(b))
        assert cert["passed"] and cert["invertible"]
        assert cert["dim_primal"] == cert["dim_kernel"] == b.dim()


def test_dual_pairing_certificate_singular_gram(identity2):
    # the kernel of the unit square's cover ideal is 1, t1, t2, t1*t2; a
    # primal side of the same dimension with t1^2 in place of t2 has a zero
    # Gram row, since t1^2 pairs with nothing in the kernel
    b = external(identity2)
    kernel_space = d_space(b)
    assert kernel_space.comps == ((0, ((1,),)), (1, ((1, 0), (0, 1))), (2, ((0, 1, 0),)))
    assert dual_pairing_certificate(b, kernel_space)["invertible"]
    other = GradedSubspace.from_components(2, {0: [[1]], 1: [[1, 0]], 2: [[1, 0, 0], [0, 1, 0]]})
    singular = dataclasses.replace(b, p_space=other, q_basis=None)
    cert = dual_pairing_certificate(singular, kernel_space)
    assert cert == reference_dual_pairing(singular, kernel_space)
    assert cert == {"dim_primal": 4, "dim_kernel": 4, "invertible": False, "passed": False}


def reference_dual_pairing(bundle, kernel_space) -> dict:
    """The Gram check as it was: Fraction polynomials paired by `pair` and
    ranked by the dense Fraction loop."""
    n = bundle.config.n
    if bundle.q_basis is not None:
        p_polys = [as_hpoly(n, q) for _, q in bundle.q_basis]
    else:
        p_polys = [as_hpoly(n, p) for p in bundle.p_space.basis_polys()]
    d_polys = [as_hpoly(n, q) for q in kernel_space.basis_polys()]
    gram = [[pair(p, q) for q in d_polys] for p in p_polys]
    square = len(p_polys) == len(d_polys)
    invertible = square and reference_rank(gram) == len(p_polys)
    return {
        "dim_primal": len(p_polys),
        "dim_kernel": len(d_polys),
        "invertible": invertible,
        "passed": square and invertible,
    }


def test_integer_gram_matches_the_pair_gram_on_every_document_bundle():
    # each bundle with its q_basis products, with its canonical p_space
    # rows, and with the first monomials of each degree in place of p_space
    # (square, and singular for some); the kernel one degree short of
    # d_space drops a component, so the Gram matrix there is not square
    for path in sorted(INPUTS.glob("*.json")):
        c, meta = parse_document(json.loads(path.read_text(encoding="utf-8")))
        for kind in ("central", "external", "semi_external", "semi_internal"):
            b = bundle_for(c, kind, _family(c, meta), frozenset(meta["i"]))
            units = GradedSubspace.from_components(
                c.n,
                {
                    d: [[int(j == k) for j in range(component_dim(c.n, d))] for k in range(len(basis))]
                    for d, basis in b.p_space.comps
                },
            )
            at_top = kernel(b.j_ideal, b.p_space.top_degree())
            short = kernel(b.j_ideal, max(b.p_space.top_degree() - 1, 0))
            primals = (b, dataclasses.replace(b, q_basis=None), dataclasses.replace(b, p_space=units, q_basis=None))
            for kernel_space in (d_space(b), at_top, short):
                for bundle in primals:
                    got = dual_pairing_certificate(bundle, kernel_space)
                    assert got == reference_dual_pairing(bundle, kernel_space), (path.name, kind)


def test_stabilization_cap_scales(ex25):
    assert stabilization_cap(ex25) == 2 * (4 + 3) + 2


# -- deletion-intersection comparison ------------------------------------------


def test_internal_extension_assert_mode(ex25):
    rep = internal_extension_check(ex25, {3})
    assert rep["mode"] == "assert"
    assert rep["equal"]
    rep = internal_extension_check(ex25, {2, 3})
    assert rep["mode"] == "assert"
    assert rep["equal"]


def test_internal_extension_empty_i(ex25):
    # every basis is internal relative to the empty set, so the patched side
    # adds one product per non-internal basis and recovers the short-set space
    rep = internal_extension_check(ex25, frozenset())
    assert rep["equal"]
    assert rep["restricted_bases"] == 4
    assert rep["plain_bases"] == 1


def test_internal_extension_explore_mode(ex25):
    rep = internal_extension_check(ex25, {0, 1, 2})
    assert rep["mode"] == "explore"
    assert "equal" in rep


def test_internal_extension_skips_coloops(repeated):
    rep = internal_extension_check(repeated, {0})
    assert "skipped" in rep
    assert "equal" not in rep


def test_internal_extension_rejects_coloop_member(repeated):
    with pytest.raises(ColoopInI):
        internal_extension_check(repeated, {2})


# -- property checks over random configurations --------------------------------


def test_central_dim_is_basis_count_random(config_pool):
    for c in config_pool:
        assert central(c).dim() == len(bases(c))


def test_monotone_chain_random(config_pool):
    rng = random.Random(3)
    for c in config_pool:
        ext = external(c).p_space
        cen = central_space(c)
        seed_col = rng.randrange(c.ncols)
        fam = semiexternal_close(c, [{seed_col}])
        mid = semi_external(c, fam).p_space
        assert integer_contains(mid, cen)
        assert integer_contains(ext, mid)


def test_consistency_error_is_loud():
    # the internal checker admits no silent disagreement
    from zonoforge.zonotopal import _check

    with pytest.raises(ConsistencyError):
        _check(False, "detected")


def test_hilbert_disagreement_carries_all_three_vectors(monkeypatch):
    # three generic vectors in the plane: central Hilbert function (1, 2)
    import zonoforge.zonotopal as zonotopal

    c = make_config([[1, 0, 1], [0, 1, 1]])
    monkeypatch.setattr(zonotopal, "hilbert_quotient", lambda gens, cap: (1, 1, 1))
    with pytest.raises(ConsistencyError) as info:
        central(c)
    msg = str(info.value)
    assert msg.startswith("central: Hilbert functions disagree")
    assert "h_val=(1, 2)" in msg
    assert "h_alg=(1, 1, 1)" in msg
    assert "p_space_hilbert=(1, 2)" in msg


def test_span_disagreement_carries_both_hilbert_vectors(monkeypatch):
    # the passive-set products span (1, 2); a short-set space of constants
    # alone must be reported with both Hilbert functions
    import zonoforge.zonotopal as zonotopal
    from zonoforge.graded import GradedSubspace

    c = make_config([[1, 0, 1], [0, 1, 1]])
    constants = GradedSubspace.from_spanning(2, [as_row(HPoly.constant(2))])
    monkeypatch.setattr(zonotopal, "central_space", lambda c: constants)
    with pytest.raises(ConsistencyError) as info:
        central(c)
    msg = str(info.value)
    assert msg.startswith("central: passive-set products fail to span the short-set space")
    assert "p_from_q_hilbert=(1, 2)" in msg
    assert "p_space_hilbert=(1,)" in msg


# kind -> (its bundle on ex25 with fam2 and I = {2, 3}, and the zonotopal
# name of its primal space)
BUNDLE_CASES = {
    "central": (lambda c, fam: central(c), "central_space"),
    "semi_external": (semi_external, "_family_short_space"),
    "semi_internal": (lambda c, fam: semi_internal(c, {2, 3}), "deletion_intersection"),
}


@pytest.mark.parametrize("kind", sorted(BUNDLE_CASES))
def test_each_bundle_check_names_its_kind_and_evidence(kind, ex25, fam2, monkeypatch):
    import zonoforge.zonotopal as zonotopal

    build, space_name = BUNDLE_CASES[kind]
    label = kind.replace("_", "-")
    h = build(ex25, fam2).hilbert_valuation

    def message(**patches) -> str:
        with monkeypatch.context() as m:
            for name, value in patches.items():
                m.setattr(zonotopal, name, value)
            with pytest.raises(ConsistencyError) as info:
                build(ex25, fam2)
        return str(info.value)

    msg = message(hilbert_quotient=lambda gens, cap: h + (1,))
    assert msg.startswith(f"{label}: Hilbert functions disagree")
    assert f"h_val={h!r}" in msg and f"h_alg={h + (1,)!r}" in msg and f"p_space_hilbert={h!r}" in msg

    # a zero primal space: the passive-set span check fires where the
    # bundle has one, the Hilbert check otherwise
    msg = message(**{space_name: lambda *args: GradedSubspace.zero(ex25.n)})
    if kind == "semi_internal":
        assert msg.startswith(f"{label}: Hilbert functions disagree")
        assert f"h_val={h!r}" in msg and "p_space_hilbert=()" in msg
    else:
        assert msg.startswith(f"{label}: passive-set products fail to span the short-set space")
        assert f"p_from_q_hilbert={h!r}" in msg and "p_space_hilbert=()" in msg
