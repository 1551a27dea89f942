"""Every global name the xconn code reads must exist, and none is written.

``import xconn`` succeeds even when a function refers to a name its module
never imports or defines; the NameError only appears once that function
runs.  This test reads the bytecode of every function and method defined in
the package and checks each ``LOAD_GLOBAL`` name against the module's
globals and the builtins, so such a slip fails the suite at once.

The same bytecode walk rejects ``STORE_GLOBAL``: a function that writes a
module global leaves state behind that a later call can read, so what a call
returns would depend on the calls made before it.
"""

import builtins
import dis
import functools
import importlib
import inspect
import pkgutil
import types

import xconn

MODULES = [importlib.import_module(f"xconn.{info.name}")
           for info in pkgutil.iter_modules(xconn.__path__)]


def own_functions(module: types.ModuleType):
    """Functions and methods whose code lives in the module's own file,
    including those behind decorator wrappers that set ``__wrapped__`` and
    the bodies of ``functools.cached_property`` attributes."""
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
        elif isinstance(obj, functools.cached_property):
            pending.append(obj.func)
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


def stored_globals(module: types.ModuleType) -> list[str]:
    return [f"{module.__name__}.{code.co_qualname} -> {ins.argval}"
            for func in own_functions(module)
            for code in code_objects(func.__code__)
            for ins in dis.get_instructions(code)
            if ins.opname in ("STORE_GLOBAL", "DELETE_GLOBAL")]


def test_no_function_writes_a_module_global():
    stored = [entry for module in MODULES for entry in stored_globals(module)]
    assert stored == [], stored


def test_a_global_statement_is_caught():
    module = types.ModuleType("memo_mod")
    module.__file__ = "<memo_mod>"
    source = ("_memo = None\n\n"
              "def remember(x):\n"
              "    global _memo\n"
              "    _memo = x\n")
    exec(compile(source, module.__file__, "exec"), vars(module))
    assert stored_globals(module) == ["memo_mod.remember -> _memo"]


def test_no_undefined_globals():
    assert {"xconn.formulas", "xconn.solver", "xconn.verifier"} <= {m.__name__ for m in MODULES}
    missing = [entry for module in MODULES for entry in undefined_globals(module)]
    assert missing == [], missing


def test_decorated_functions_are_checked():
    # a throwaway module whose only function hides behind an lru_cache wrapper
    module = types.ModuleType("cached_mod")
    module.__file__ = "<cached_mod>"
    source = ("import functools\n\n"
              "@functools.lru_cache\n"
              "def lookup(x):\n"
              "    return not_defined_anywhere + x\n")
    exec(compile(source, module.__file__, "exec"), vars(module))
    assert module.lookup.__wrapped__ in set(own_functions(module))
    assert undefined_globals(module) == ["cached_mod.lookup -> not_defined_anywhere"]


def test_cached_property_bodies_are_checked():
    # a throwaway module whose only code sits in cached_property bodies
    module = types.ModuleType("lazy_mod")
    module.__file__ = "<lazy_mod>"
    source = ("import functools\n\n"
              "_memo = None\n\n"
              "class Lazy:\n"
              "    @functools.cached_property\n"
              "    def value(self):\n"
              "        return not_defined_anywhere\n\n"
              "    @functools.cached_property\n"
              "    def leak(self):\n"
              "        global _memo\n"
              "        _memo = self\n")
    exec(compile(source, module.__file__, "exec"), vars(module))
    assert vars(module.Lazy)["value"].func in set(own_functions(module))
    assert undefined_globals(module) == ["lazy_mod.Lazy.value -> not_defined_anywhere"]
    assert stored_globals(module) == ["lazy_mod.Lazy.leak -> _memo"]
