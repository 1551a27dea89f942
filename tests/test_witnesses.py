import hashlib

import pytest

from xconn.formulas import (FAMILY_MINS, DomainError, FamilyParams, ceil_div, ceil_mul_sqrt,
                            formula_terms, guard_limit)
from xconn.products import family_product
from xconn.solver import kappa_extra_fragment
from xconn.witnesses import (WITNESS_KINDS, WitnessError, WitnessSpec, build_witness,
                             build_witnesses, plan_witness, validate_witness)


def coords(params, cut):
    return sorted(divmod(v, params.n) for v in cut)


def test_block_witness_pxp_662():
    params = FamilyParams("pxp", 6, 6, 2)
    spec = plan_witness(params, "block")
    cut = build_witness(spec)
    assert len(cut) == spec.predicted_size == 5
    assert coords(params, cut) == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    verdict = validate_witness(family_product("pxp", 6, 6), cut, 2)
    assert verdict.is_g_extra
    assert min(verdict.component_sizes) == 4  # the isolated 2x2 corner block


def test_layers_witness_pxp_550():
    params = FamilyParams("pxp", 5, 5, 0)
    cut = build_witness(plan_witness(params, "layers1"))
    assert len(cut) == 5
    assert coords(params, cut) == [(i, 2) for i in range(5)]
    verdict = validate_witness(family_product("pxp", 5, 5), cut, 0)
    assert verdict.is_g_extra and sorted(verdict.component_sizes) == [10, 10]


def test_layers2_witness_cxc_551():
    params = FamilyParams("cxc", 5, 5, 1)
    cut = build_witness(plan_witness(params, "layers2"))
    assert len(cut) == 10
    # rows x0 and x_{floor((m-2)/2)+1} = x2
    assert {i for i, _ in coords(params, cut)} == {0, 2}
    assert validate_witness(family_product("cxc", 5, 5), cut, 1).is_g_extra


def test_layers2_witness_cxp_430_is_valid_but_not_minimum():
    params = FamilyParams("cxp", 4, 3, 0)
    cut = build_witness(plan_witness(params, "layers2"))
    assert len(cut) == 6
    assert {i for i, _ in coords(params, cut)} == {0, 2}
    pg = family_product("cxp", 4, 3)
    assert validate_witness(pg, cut, 0).is_g_extra
    assert kappa_extra_fragment(pg.graph, 0).value == 4 < len(cut)


def test_block_witness_cxp_is_corner_neighbourhood():
    params = FamilyParams("cxp", 6, 3, 0)
    spec = plan_witness(params, "block")
    cut = build_witness(spec)
    assert len(cut) == spec.predicted_size == 5
    # boundary of the single-vertex block at (1, 0): rows 0 and 2 over columns
    # 0..1, plus (1, 1)
    assert coords(params, cut) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    assert validate_witness(family_product("cxp", 6, 3), cut, 0).is_g_extra


def test_block_refused_unless_strictly_minimal():
    params = FamilyParams("cxc", 4, 4, 0)  # block term 8 == min(2m, 2n)
    with pytest.raises(WitnessError):
        plan_witness(params, "block")


def test_out_of_guard_refused():
    with pytest.raises(DomainError):
        plan_witness(FamilyParams("cxp", 4, 3, 3), "layers1")


def test_witness_sizes_cxc_550():
    cuts = build_witnesses(FamilyParams("cxc", 5, 5, 0))
    assert {which: len(cut) for which, cut in cuts.items()} == {
        "layers1": 10, "layers2": 10, "block": 8}


def test_block_cxc_size_exceeds_ceiling_term_at_g2():
    # the doubled square split costs 2q+2p+4 = 12 here while the closed form's
    # ceiling term says 11; the set is still a perfectly valid 2-extra cut,
    # and the exact solver confirms 12 is optimal (see
    # tests/test_cli.py::test_sweep_settles_the_torus_gap_cell)
    params = FamilyParams("cxc", 6, 6, 2)
    spec = plan_witness(params, "block")
    assert spec.predicted_size == 11
    cut = build_witness(spec)
    assert len(cut) == 12
    assert validate_witness(family_product("cxc", 6, 6), cut, 2).is_g_extra


def test_all_witnesses_validate_on_small_grid():
    for fam, m, n in [("pxp", 3, 3), ("pxp", 3, 5), ("cxp", 4, 4), ("cxc", 4, 5)]:
        pg = family_product(fam, m, n)
        for g in range(0, guard_limit(fam, m, n) + 1):
            params = FamilyParams(fam, m, n, g)
            terms = dict(formula_terms(params))
            cuts = build_witnesses(params)
            for which in ("layers1", "layers2"):
                assert len(cuts[which]) == terms[which]
                assert validate_witness(pg, cuts[which], g).is_g_extra
            if cuts["block"] is not None:
                assert validate_witness(pg, cuts["block"], g).is_g_extra


def block_cxp_two_pass(params):
    """The cylinder block as first written: find the least boundary size over
    the interval length a, then take the first a of that size that fits."""
    x = params.g + 1
    lengths = range(1, ceil_mul_sqrt(2, 2 * x) + 3)
    best = min(a + 2 * ceil_div(x, a) + 2 for a in lengths)
    for a in lengths:
        b = ceil_div(x, a)
        if a + 2 * b + 2 == best and a + 1 <= params.m - 1 and b <= params.n - 1:
            pairs = [(r, j) for r in (0, a + 1) for j in range(b + 1)]
            pairs += [(i, b) for i in range(1, a + 1)]
            return tuple(sorted(i * params.n + j for i, j in pairs))
    return None


def test_block_cxp_matches_the_two_pass_construction():
    cells = refused = 0
    for m in range(4, 9):
        for n in range(3, 7):
            for g in range(0, guard_limit("cxp", m, n) + 1):
                params = FamilyParams("cxp", m, n, g)
                try:
                    cut = build_witness(WitnessSpec(params, "block", 0))
                except WitnessError:
                    cut = None
                assert cut == block_cxp_two_pass(params), (m, n, g)
                cells += 1
                refused += cut is None
    assert (cells, refused) == (152, 9)


def test_every_witness_is_pinned():
    # every kind built straight from its spec (no plan_witness), so cells out
    # of guard and refused blocks are covered too; the digest covers every id
    # tuple and refusal, so any change to any witness fails here
    digest = hashlib.sha256()
    params_count = built = refused = 0
    for family, (min_m, min_n) in FAMILY_MINS.items():
        for m in range(min_m, 13):
            for n in range(min_n, 13):
                for g in range(0, guard_limit(family, m, n) + 3):
                    params = FamilyParams(family, m, n, g)
                    params_count += 1
                    for which in WITNESS_KINDS:
                        try:
                            line = repr(build_witness(WitnessSpec(params, which, 0)))
                        except WitnessError:
                            line = "refused"
                            refused += 1
                        built += 1
                        digest.update(f"{family} {m} {n} {g} {which} {line}\n".encode())
    assert (params_count, built, refused) == (6087, 18261, 535)
    assert digest.hexdigest() == (
        "6b9da35f6415af5bfd8eaeeaff90bf49eb78eab37a51f119d23d7fe020910440")
