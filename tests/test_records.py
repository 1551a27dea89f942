"""The package's records: the plain ``typing.NamedTuple`` ones and the
validated ``graph.Record`` subclasses keep one contract, and importing them
loads neither ``dataclasses`` nor ``inspect``."""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import xconn
from xconn.formulas import FamilyParams, kappa_formula
from xconn.graph import Graph
from xconn.products import classify_cut, family_product
from xconn.solver import ExtraConnResult, check_g_extra_cut, kappa_extra_fragment
from xconn.verifier import SweepConfig, _evaluate_cell
from xconn.witnesses import plan_witness


def records_with_a_changed_field():
    """One instance of every record class, a field and another value for it."""
    pg = family_product("pxp", 3, 3)
    params = FamilyParams("pxp", 3, 3, 0)
    res = kappa_extra_fragment(pg.graph, 0)
    layer = [pg.id(1, j) for j in range(3)]
    # records built from lists, which they must store as tuples
    listed = Graph(pg.graph.n, list(pg.graph.masks), list(pg.graph.labels),
                   [list(p) for p in pg.graph.automorphisms])
    listed_res = ExtraConnResult(0, 2, [0, 2], "fragment", res.stats, [[0, 2], [1, 3]])
    return [
        (pg.graph, "labels", None),
        (listed, "labels", None),
        (listed_res, "witness", (1, 3)),
        (pg, "graph", Graph(pg.graph.n, pg.graph.masks)),
        (params, "g", 1),
        (res, "solver", "subset"),
        (res.stats, "nodes", res.stats.nodes + 1),
        (check_g_extra_cut(pg.graph, layer, 0), "is_g_extra", False),
        (kappa_formula(params), "value", 9),
        (plan_witness(params, "layers1"), "predicted_size", 4),
        (classify_cut(pg, layer), "axis", "factor2"),
        (SweepConfig(), "explicit_g", (0,)),
        (_evaluate_cell(("pxp", 3, 3, SweepConfig()))[0], "g", 9),
    ]


def test_every_record_is_immutable_picklable_and_copied_with_one_field_changed():
    cases = records_with_a_changed_field()
    modules = [importlib.import_module(f"xconn.{info.name}")
               for info in pkgutil.iter_modules(xconn.__path__)]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and hasattr(obj, "_fields")}
    assert {type(record) for record, _, _ in cases} == classes and len(classes) == 11
    for record, field, value in cases:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        values = {name: getattr(record, name) for name in record._fields}
        changed = type(record)(**{**values, field: value})
        assert changed != record and getattr(changed, field) == value
        assert all(getattr(changed, name) == values[name]
                   for name in record._fields if name != field)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as pytest itself loads both
    code = "import sys, xconn.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(xconn.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
