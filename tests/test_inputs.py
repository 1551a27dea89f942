"""The integer contract of the public API and of the command line.

Every order, g, vertex, budget and thread count a caller passes in must be
an ``int`` that is not a ``bool``.  A call given anything else raises
ValueError (DomainError is one), or answers exactly as it does for the equal
``int``.  Huge values are passed only as a g or a budget: a huge order or
thread count would build a huge graph or process pool.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xconn
from xconn import (ExtraConnResult, FamilyParams, Graph, ProductGraph, SweepConfig,
                   ceiling_identity, check_g_extra_cut, check_layer_bounds, classify_cut,
                   components, enumerate_min_cuts, family_product, from_edges,
                   induced_subgraph, kappa_closed_form, kappa_extra_fragment,
                   kappa_extra_subset, kappa_small_case, layer, make_cycle, make_i_set,
                   make_l_set, make_path, neighborhood, slice_of_set, sweep, validate_witness)
from xconn.cli import run
from xconn.solver import SolverStats, fragment_solve_many

P4 = make_path(4)
PG = family_product("pxp", 3, 3)  # ids i*3 + j; the middle column {1, 4, 7} is a cut
ONE_CELL = SweepConfig(("pxp",), (3, 3), (3, 3), (0,))  # one cell: never a process pool

# (callable, kind of the argument under test, the call with that argument x)
CALLS = [
    (Graph, "order", lambda x: Graph(x, (0,) * 3)),
    (from_edges, "order", lambda x: from_edges(x, [(0, 1)])),
    (make_path, "order", make_path),
    (make_cycle, "order", make_cycle),
    (components, "vertex", lambda x: components(P4, [x])),
    (induced_subgraph, "vertex", lambda x: induced_subgraph(P4, [x])),
    (neighborhood, "vertex", lambda x: neighborhood(P4, [x])),
    (ProductGraph, "order", lambda x: ProductGraph(PG.graph, x, 3, "strong")),
    (ProductGraph, "order", lambda x: ProductGraph(PG.graph, 3, x, "strong")),
    (family_product, "order", lambda x: family_product("pxp", x, 3)),
    (family_product, "order", lambda x: family_product("cxc", 4, x)),
    (classify_cut, "vertex", lambda x: classify_cut(PG, [x, 4, 7])),
    (layer, "vertex", lambda x: layer(PG, "factor1", x)),
    (slice_of_set, "vertex", lambda x: slice_of_set(PG, [x, 4, 7], "factor2", 0)),
    (slice_of_set, "vertex", lambda x: slice_of_set(PG, [1, 4, 7], "factor1", x)),
    (make_i_set, "vertex", lambda x: make_i_set(PG, [x], "factor2")),
    (make_l_set, "vertex", lambda x: make_l_set(PG, [x], [0], [1], [0])),
    (make_l_set, "vertex", lambda x: make_l_set(PG, [1], [0], [1], [x])),
    (ExtraConnResult, "g", lambda x: ExtraConnResult(x, 1, (0,), "subset", SolverStats(0))),
    (check_g_extra_cut, "vertex", lambda x: check_g_extra_cut(P4, [x], 0)),
    (check_g_extra_cut, "g", lambda x: check_g_extra_cut(P4, [1], x)),
    (check_layer_bounds, "vertex", lambda x: check_layer_bounds(PG, [(x, 4, 7)], 0)),
    (check_layer_bounds, "g", lambda x: check_layer_bounds(PG, [(1, 4, 7)], x)),
    (check_layer_bounds, "g", lambda x: check_layer_bounds(PG, [], x)),
    (enumerate_min_cuts, "g", lambda x: enumerate_min_cuts(P4, x)),
    (enumerate_min_cuts, "budget", lambda x: enumerate_min_cuts(P4, 0, 1, max_checks=x)),
    (kappa_extra_fragment, "g", lambda x: kappa_extra_fragment(P4, x)),
    (kappa_extra_subset, "g", lambda x: kappa_extra_subset(P4, x)),
    (kappa_extra_subset, "budget", lambda x: kappa_extra_subset(P4, 0, budget=x)),
    (FamilyParams, "order", lambda x: FamilyParams("pxp", x, 3, 0)),
    (FamilyParams, "order", lambda x: FamilyParams("pxp", 3, x, 0)),
    (FamilyParams, "g", lambda x: FamilyParams("pxp", 3, 3, x)),
    (ceiling_identity, "g", lambda x: ceiling_identity("cycle_cycle", x)),
    (kappa_closed_form, "order", lambda x: kappa_closed_form("pxp", x, 5, 0)),
    (kappa_closed_form, "order", lambda x: kappa_closed_form("cxp", 4, x, 0)),
    (kappa_closed_form, "g", lambda x: kappa_closed_form("pxp", 1, 5, x)),
    (kappa_closed_form, "g", lambda x: kappa_closed_form("cxc", 5, 5, x)),
    (kappa_small_case, "order", lambda x: kappa_small_case("c3c", x, 0)),
    (kappa_small_case, "g", lambda x: kappa_small_case("p2p", 7, x)),
    (validate_witness, "vertex", lambda x: validate_witness(PG, [x, 4, 7], 0)),
    (validate_witness, "g", lambda x: validate_witness(PG, [1, 4, 7], x)),
    (sweep, "thread count", lambda x: sweep(ONE_CELL, threads=x)),
    (sweep, "order", lambda x: sweep(ONE_CELL._replace(m_range=(3, x)), threads=1)),
    (sweep, "g", lambda x: sweep(ONE_CELL._replace(explicit_g=(x,)), threads=1)),
]

# the public callables that take none of those arguments, or only validated
# records that carry them (FamilyParams, Graph, ProductGraph, SweepConfig)
NO_INTEGER_ARGUMENT = {
    "SweepConfig", "SweepRow", "WitnessSpec", "DomainError", "InconclusiveError",
    "is_complete", "is_connected", "min_degree", "cartesian_product", "strong_product",
    "classical_connectivity", "guard", "kappa_formula", "build_witness", "plan_witness",
    "check_cartesian_connectivity", "check_min_cut_classification",
}

NOT_INTEGERS = (0.5, 3.0, True, "3", None, [3])
HUGE = 10 ** 6


def equal_int(value):
    """The ``int`` equal to ``value``, or None when there is none."""
    if isinstance(value, (int, float)) and value == math.floor(value):
        return int(value)
    return None


def contract_cases():
    for call, kind, at in CALLS:
        values = NOT_INTEGERS + (-1,) + ((HUGE,) if kind in ("g", "budget") else ())
        for value in values:
            yield pytest.param(at, value, id=f"{call.__name__}-{kind}-{value!r}")


def test_every_public_callable_is_classified():
    covered = {call.__name__ for call, _, _ in CALLS}
    callables = {name for name in xconn.__all__ if callable(getattr(xconn, name))}
    assert covered | NO_INTEGER_ARGUMENT == callables
    assert not covered & NO_INTEGER_ARGUMENT


@pytest.mark.parametrize("at, value", contract_cases())
def test_integer_arguments_are_checked(at, value):
    try:
        got = at(value)
    except ValueError:  # DomainError included
        return
    same = equal_int(value)
    assert same is not None, f"answered {got!r} for {value!r}"
    assert got == at(same)


def test_a_bool_or_float_is_never_taken_for_its_int():
    # the contract would allow the equal int's answer; the program refuses both
    for _, _, at in CALLS:
        for value in (True, 3.0):
            with pytest.raises(ValueError):
                at(value)


@pytest.mark.parametrize("g", [value for value in NOT_INTEGERS + (-1,)
                               if value != [3]])  # a list cannot be a dict key
def test_the_g_of_an_upper_bound_is_checked(g):
    # each key of ``upper_bounds`` is a g: a float or a string is neither
    # taken for one nor silently ignored
    with pytest.raises(ValueError, match="g of an upper bound"):
        fragment_solve_many(P4, [0], {g: 1})


# --- the command line -------------------------------------------------------

def mostly(good: list[str], bad: list[str]):
    """Each good value three times as likely as each bad one, so that most
    runs get past the argument parser."""
    return st.sampled_from(good * 3 + bad)


ORDER = mostly(["3", "4", "5"], ["1", "2", "0", "-1", "0.5", "x", ""])
G = mostly(["0", "1", "2"], ["5", "-1", "3.0", "x", "True"])
PRODUCT = mostly(["pxp", "cxp", "cxc"], ["torus"])
CUT = mostly(["1,4,7", "1 4 7", "4,5,6"], ["1,x", "", "0", "-1", "3.0", "99"])
RANGE = mostly(["3:3", "3:4", "4:5", "5:5"], ["5:3", "x", "3", "-1:0", "3.0:4"])
TEXT = mostly(["text", "json"], ["dot", "csv"])
GRAPH = mostly(["json", "dot"], ["text"])

# per subcommand: the flags a run may give (most runs give each) and the
# flags it always gives, the required ones among them (and the orders)
COMMANDS = {
    "gen": ({"--family": mostly(["path", "cycle", "pxp", "cxp", "cxc"], ["torus"]),
             "--format": GRAPH}, {}),
    "product": ({"--family": PRODUCT, "--format": GRAPH,
                 "--kind": mostly(["strong", "cartesian"], ["tensor"]),
                 "--file1": st.just("no-such-graph.json")}, {}),
    "exact": ({"--family": PRODUCT, "--format": TEXT,
               "--solver": mostly(["fragment", "subset"], ["none"])}, {"--g": G}),
    "formula": ({"--format": TEXT}, {"--family": PRODUCT, "--g": G}),
    "witness": ({"--format": mostly(["text", "json", "dot"], ["csv"])},
                {"--family": PRODUCT, "--g": G,
                 "--which": mostly(["layers1", "layers2", "block"], ["corner"])}),
    "classify-cut": ({"--family": PRODUCT}, {"--cut": CUT}),
    "check-layers": ({"--family": PRODUCT}, {"--g": G, "--cut": CUT}),
    "identity": ({}, {"--kind": mostly(["path_path", "cycle_path", "cycle_cycle"], ["x"]),
                      "--g": G}),
    # m, n <= 5 and at most two threads keep every sweep small
    "sweep": ({"--families": mostly(["pxp", "cxc", "pxp,cxp"], ["bogus", ""]),
               "--g-list": mostly(["0", "0,1", "2,0"], ["-1", "x", "0.5", ""]),
               "--threads": mostly(["1", "2"], ["-1", "0", "x", "1.5"]),
               "--format": mostly(["csv", "json"], ["text"])},
              {"--m-range": RANGE, "--n-range": RANGE}),
}


@st.composite
def cli_arguments(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    optional, always = COMMANDS[command]
    argv = [command]
    for flag in sorted(optional):
        if draw(mostly(["give"], ["omit"])) == "give":
            argv += [flag, draw(optional[flag])]
    if command not in ("identity", "sweep"):
        always = {"--m": ORDER, "--n": ORDER, **always}
    for flag in sorted(always):
        argv += [flag, draw(always[flag])]
    if "subset" in argv:
        # a subset scan always gets a small budget, so no draw runs for long;
        # the fragment solver refuses any budget, so its draws get none
        argv += ["--budget", draw(mostly(["40", "400", "4000"], ["-1", "0", "2.5"]))]
    return argv


@given(cli_arguments())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refuses the argument list
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
