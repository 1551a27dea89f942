import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xconn.formulas import (FAMILIES, FAMILY_MINS, TERMS, DomainError, FamilyParams, ceil_div,
                            ceil_mul_sqrt, ceil_sqrt, ceiling_identity, formula_terms, guard,
                            guard_limit, kappa_closed_form, kappa_formula, kappa_small_case,
                            small_case_limit, verify_ceiling_identities)


def bisect_ceil_mul_sqrt(c: int, x: int) -> int:
    """Independent oracle: binary search the least k with k^2 >= c^2 * x."""
    lo, hi = 0, c * x + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * mid >= c * c * x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_guard_examples():
    assert guard(FamilyParams("pxp", 5, 5, 3))          # 3 <= 9
    assert not guard(FamilyParams("cxp", 4, 3, 3))      # 3 > 2
    assert guard(FamilyParams("cxc", 4, 4, 0))          # 0 <= 3


def test_guard_limits():
    assert guard_limit("pxp", 5, 5) == 9
    assert guard_limit("cxp", 4, 3) == 2
    assert guard_limit("cxc", 4, 4) == 3


def test_kappa_formula_examples():
    res = kappa_formula(FamilyParams("pxp", 5, 5, 3))
    assert res.value == 5 and set(res.active_terms) == {"layers1", "layers2", "block"}

    res = kappa_formula(FamilyParams("cxp", 4, 3, 0))
    assert res.value == 4 and res.active_terms == ("layers1",)
    assert dict(res.terms) == {"layers1": 4, "layers2": 6, "block": 5}

    res = kappa_formula(FamilyParams("cxc", 6, 6, 2))
    assert res.value == 11 and res.active_terms == ("block",)


def test_kappa_formula_rejects_out_of_guard():
    with pytest.raises(DomainError):
        kappa_formula(FamilyParams("cxp", 4, 3, 3))


def test_family_params_structural_validation():
    with pytest.raises(ValueError):
        FamilyParams("pxp", 2, 5, 0)
    with pytest.raises(ValueError):
        FamilyParams("cxp", 3, 3, 0)
    with pytest.raises(ValueError):
        FamilyParams("cxc", 4, 3, 0)
    with pytest.raises(ValueError):
        FamilyParams("pxp", 3, 3, -1)


@pytest.mark.parametrize("m, n, g", [(3.5, 3, 0), (3, 3.0, 0), (3, 3, 1.5), (True, 3, 0),
                                     (3, 3, False), (3, "3", 0)])
def test_family_params_rejects_non_integers(m, n, g):
    with pytest.raises(ValueError, match="must be an integer"):
        FamilyParams("pxp", m, n, g)


@pytest.mark.parametrize("call, args", [
    (kappa_small_case, ("p1p", 5, 0.5)),
    (kappa_closed_form, ("pxp", 1, 5, 0.5)),
    (kappa_small_case, ("p2p", 5.5, 0)),
    (kappa_small_case, ("c3p", 5, True)),
    (small_case_limit, ("c3c", 4.0)),
    (kappa_closed_form, ("cxp", 3, "5", 0)),
    (kappa_closed_form, ("cxc", 3.0, 6, 0)),
])
def test_small_cases_reject_non_integers(call, args):
    # the small-case route once answered these (1, 1 and 2 for the first three)
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize("call, args", [(FamilyParams, (["pxp"], 3, 3, 0)),
                                        (guard_limit, (["pxp"], 3, 3)),
                                        (kappa_closed_form, ({"pxp"}, 3, 3, 0))])
def test_an_unhashable_family_is_unknown(call, args):
    with pytest.raises(ValueError, match=r"^unknown family \S+$"):
        call(*args)


@pytest.mark.parametrize("call, args", [(kappa_small_case, (["p1p"], 5, 0)),
                                        (small_case_limit, ({"p2p"}, 5)),
                                        (kappa_small_case, ("p9p", 5, 0))])
def test_an_unhashable_or_misspelt_small_case_is_unknown(call, args):
    with pytest.raises(ValueError, match=r"^unknown small case \S+$"):
        call(*args)


def test_small_cases():
    assert kappa_small_case("p1p", 7, 2) == 1       # 2 <= floor(6/2)-1
    assert kappa_small_case("p2p", 5, 3) == 2       # 3 <= 2*2-1
    assert kappa_small_case("c3p", 5, 5) == 3       # 5 <= 3*2-1
    assert kappa_small_case("c3c", 6, 5) == 6       # 5 <= 3*2-1
    for which, n, g in [("p1p", 7, 3), ("p2p", 5, 4), ("c3p", 5, 6), ("c3c", 6, 6),
                        ("c3c", 3, 0), ("p1p", 2, 0)]:
        with pytest.raises(DomainError):
            kappa_small_case(which, n, g)


def test_small_case_limits():
    assert small_case_limit("p1p", 7) == 2
    assert small_case_limit("p2p", 5) == 3
    assert small_case_limit("c3p", 8) == 8
    assert small_case_limit("c3c", 4) == 2


def test_closed_form_routing():
    assert kappa_closed_form("pxp", 1, 7, 2) == 1
    assert kappa_closed_form("pxp", 7, 2, 1) == 2   # symmetric orders
    assert kappa_closed_form("cxp", 3, 5, 5) == 3
    assert kappa_closed_form("cxc", 3, 6, 5) == 6
    assert kappa_closed_form("cxc", 6, 3, 5) == 6
    assert kappa_closed_form("pxp", 5, 5, 3) == 5
    with pytest.raises(DomainError):
        kappa_closed_form("cxp", 4, 2, 0)


def test_ceil_helpers_exact():
    assert ceil_div(7, 2) == 4 and ceil_div(8, 2) == 4
    assert [ceil_sqrt(x) for x in (0, 1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 2, 3, 3, 3]
    for c in (1, 2, 4):
        for x in range(0, 500):
            assert ceil_mul_sqrt(c, x) == bisect_ceil_mul_sqrt(c, x)


@given(st.integers(0, 10 ** 12), st.sampled_from([1, 2, 4]))
@settings(max_examples=200)
def test_ceil_mul_sqrt_matches_bisection(x, c):
    assert ceil_mul_sqrt(c, x) == bisect_ceil_mul_sqrt(c, x)


def test_ceiling_identity_examples():
    # ceil(sqrt(3)) + ceil(3/2) = 4 = ceil(2*sqrt(3))
    assert ceiling_identity("path_path", 2)
    assert ceiling_identity("path_path", 0)
    # 2*ceil(sqrt(6)) + 2*ceil(6/3) = 10 = ceil(4*sqrt(6))
    assert ceiling_identity("cycle_cycle", 5)


def test_cycle_cycle_identity_fails_at_g2():
    # 2*ceil(sqrt(3)) + 2*ceil(3/2) + 4 = 12 but ceil(4*sqrt(3)) + 4 = 11:
    # the doubled square split overshoots the claimed ceiling term
    assert not ceiling_identity("cycle_cycle", 2)
    assert 2 * ceil_sqrt(3) + 2 * ceil_div(3, ceil_sqrt(3)) + 4 == 12
    assert ceil_mul_sqrt(4, 3) + 4 == 11


def test_identity_sweep_matches_single_checks():
    fails = verify_ceiling_identities(3000)
    for kind in ("path_path", "cycle_path", "cycle_cycle"):
        direct = [g for g in range(3001) if not ceiling_identity(kind, g)]
        assert fails[kind] == direct
    assert fails["path_path"] == [] and fails["cycle_path"] == []
    assert fails["cycle_cycle"][:4] == [2, 4, 6, 9]


def test_formula_symmetry_for_paths():
    for m in range(3, 8):
        for n in range(3, 8):
            for g in range(0, guard_limit("pxp", m, n) + 1):
                if g <= guard_limit("pxp", n, m):
                    a = kappa_formula(FamilyParams("pxp", m, n, g)).value
                    b = kappa_formula(FamilyParams("pxp", n, m, g)).value
                    assert a == b


def test_block_term_is_min_boundary_for_cylinder():
    # the cxp ceiling term equals min over interval lengths a of the true
    # boundary size a + 2*ceil((g+1)/a) + 2 (drives the witness construction)
    for g in range(0, 3000):
        x = g + 1
        best = min(a + 2 * ceil_div(x, a) for a in range(1, ceil_mul_sqrt(2, 2 * x) + 3))
        assert best + 2 == ceil_mul_sqrt(2, 2 * x) + 2, g


# The paper's per-family expressions, written out one by one as the reference
# for the functions derived from the CYCLES and SMALL_CASES tables.
PAPER_FAMILIES = {
    "pxp": {"mins": (3, 3),
            "terms": lambda m, n, g: (m, n, bisect_ceil_mul_sqrt(2, g + 1) + 1),
            "guard": lambda m, n: min(n * ((m - 1) // 2) - 1, m * ((n - 1) // 2) - 1)},
    "cxp": {"mins": (4, 3),
            "terms": lambda m, n, g: (m, 2 * n, bisect_ceil_mul_sqrt(2, 2 * (g + 1)) + 2),
            "guard": lambda m, n: min(n * ((m - 2) // 2) - 1, m * ((n - 1) // 2) - 1)},
    "cxc": {"mins": (4, 4),
            "terms": lambda m, n, g: (2 * m, 2 * n, bisect_ceil_mul_sqrt(4, g + 1) + 4),
            "guard": lambda m, n: min(n * ((m - 2) // 2) - 1, m * ((n - 2) // 2) - 1)},
}
PAPER_SMALL_CASES = {
    "p1p": (1, lambda n: (n - 1) // 2 - 1),
    "p2p": (2, lambda n: 2 * ((n - 1) // 2) - 1),
    "c3p": (3, lambda n: 3 * ((n - 1) // 2) - 1),
    "c3c": (6, lambda n: 3 * ((n - 2) // 2) - 1),
}
G_SPREAD = sorted({*range(0, 64), *(int(1.37 ** k) for k in range(14, 40)), 200_000})


def test_family_table_matches_the_paper():
    assert FAMILIES == tuple(PAPER_FAMILIES)
    assert FAMILY_MINS == {f: ref["mins"] for f, ref in PAPER_FAMILIES.items()}
    assert tuple(formula_terms(FamilyParams("pxp", 3, 3, 0))) == TERMS


def test_guards_and_terms_match_the_paper_per_family():
    for family, ref in PAPER_FAMILIES.items():
        min_m, min_n = ref["mins"]
        with pytest.raises(ValueError):
            FamilyParams(family, min_m - 1, min_n, 0)
        with pytest.raises(ValueError):
            FamilyParams(family, min_m, min_n - 1, 0)
        for m in range(min_m, 60):
            for n in range(min_n, 60):
                limit = ref["guard"](m, n)
                assert guard_limit(family, m, n) == limit, (family, m, n)
                for g in (0, limit // 2, limit):
                    res = kappa_formula(FamilyParams(family, m, n, g))
                    assert tuple(v for _, v in res.terms) == ref["terms"](m, n, g)
                    assert res.value == min(ref["terms"](m, n, g)), (family, m, n, g)
        # the block term depends on g alone; the layer terms on m and n alone
        for g in G_SPREAD:
            terms = formula_terms(FamilyParams(family, 59, 58, g))
            assert tuple(terms.values()) == ref["terms"](59, 58, g), (family, g)


def test_small_cases_match_the_paper():
    for which, (value, limit_of) in PAPER_SMALL_CASES.items():
        min_n = 3 if which == "c3c" else 1
        with pytest.raises(ValueError):
            kappa_small_case(which, min_n - 1, 0)
        for n in range(min_n, 400):
            limit = limit_of(n)
            assert small_case_limit(which, n) == limit, (which, n)
            if limit >= 0:
                assert kappa_small_case(which, n, limit) == value
            with pytest.raises(DomainError):
                kappa_small_case(which, n, limit + 1)
