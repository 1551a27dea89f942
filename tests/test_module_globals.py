"""Every global name the xconn code reads must exist.

``import xconn`` succeeds even when a function refers to a name its module
never imports or defines; the NameError only appears once that function
runs.  This test reads the bytecode of every function and method defined in
the package and checks each ``LOAD_GLOBAL`` name against the module's
globals and the builtins, so such a slip fails the suite at once.
"""

import builtins
import dis
import importlib
import inspect
import pkgutil
import types

import xconn

MODULES = [importlib.import_module(f"xconn.{info.name}")
           for info in pkgutil.iter_modules(xconn.__path__)]


def own_functions(module: types.ModuleType):
    """Functions and methods whose code lives in the module's own file,
    including those behind decorator wrappers that set ``__wrapped__``."""
    pending = list(vars(module).values())
    seen = set()
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if hasattr(obj, "__wrapped__"):  # e.g. functools.lru_cache wrappers
            pending.append(obj.__wrapped__)
        if isinstance(obj, (staticmethod, classmethod)):
            pending.append(obj.__func__)
        elif isinstance(obj, property):
            pending.extend(f for f in (obj.fget, obj.fset, obj.fdel) if f is not None)
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            pending.extend(vars(obj).values())
        elif inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            yield obj


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def undefined_globals(module: types.ModuleType) -> list[str]:
    missing = []
    for func in own_functions(module):
        for code in code_objects(func.__code__):
            for ins in dis.get_instructions(code):
                if (ins.opname == "LOAD_GLOBAL" and ins.argval not in vars(module)
                        and not hasattr(builtins, ins.argval)):
                    missing.append(f"{module.__name__}.{code.co_qualname} -> {ins.argval}")
    return missing


def test_no_undefined_globals():
    assert {"xconn.formulas", "xconn.solver", "xconn.verifier"} <= {m.__name__ for m in MODULES}
    missing = [entry for module in MODULES for entry in undefined_globals(module)]
    assert missing == [], missing


def test_decorated_functions_are_checked():
    from xconn import solver
    checked = set(own_functions(solver))
    assert solver.classical_connectivity.__wrapped__ in checked
