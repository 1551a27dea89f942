"""Command-line front end.

Subcommands: gen, product, exact, formula, witness, classify-cut,
check-layers, identity, sweep.  Exit codes: 0 success, 1 usage or input
error, 2 outside the asserted closed-form domain, 3 inconclusive (budget,
recursion limit, or a pooled sweep whose worker process died), 4
verification failure.  No subcommand uses randomness, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import graph as graphmod
from . import products as productsmod
from .formulas import (FAMILIES, IDENTITY_KINDS, DomainError, FamilyParams, ceiling_identity,
                       kappa_closed_form, kappa_formula)
from .products import ProductGraph, classify_cut, family_product
from .solver import (INFINITY, SUBSET_BUDGET, InconclusiveError, check_layer_bounds,
                     kappa_extra_fragment, kappa_extra_subset)
from .verifier import (SweepConfig, report_failures, sweep, to_csv, to_json_dict)
from .witnesses import (WITNESS_KINDS, WitnessError, build_witness, plan_witness,
                        validate_witness)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_any(path: str) -> tuple[graphmod.Graph, ProductGraph | None]:
    with open(path) as fh:
        text = fh.read()
    try:
        doc = graphmod.parse_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if isinstance(doc, dict) and "product" in doc:
        pg = productsmod.from_doc(doc)
        return pg.graph, pg
    return graphmod.from_doc(doc), None


def _parse_cut(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(p) for p in text.replace(",", " ").split()}))
    except ValueError:
        raise ValueError(f"--cut {text!r} is not a list of vertex ids") from None


def _family_flags(args) -> str:
    """Those of --family, --m and --n that were given, joined for a message."""
    return ", ".join(f"--{name}" for name in ("family", "m", "n")
                     if getattr(args, name) is not None)


def _need_orders(args, *names: str) -> None:
    """Refuse a --family graph that lacks any of the orders ``names``."""
    if missing := [f"--{name}" for name in names if getattr(args, name) is None]:
        raise ValueError(f"--family {args.family} needs {' and '.join(missing)}")


def _resolve_graph(args) -> tuple[graphmod.Graph, ProductGraph | None]:
    if getattr(args, "file", None):
        if flags := _family_flags(args):
            raise ValueError(f"--file gives the graph, so {flags} would be ignored")
        return _load_any(args.file)
    if args.family in FAMILIES:
        _need_orders(args, "m", "n")
        pg = family_product(args.family, args.m, args.n)
        return pg.graph, pg
    if args.family and args.m is not None:
        raise ValueError(f"--family {args.family} takes --n only, so --m would be ignored")
    if args.family:
        _need_orders(args, "n")
    if args.family == "path":
        return graphmod.make_path(args.n), None
    if args.family == "cycle":
        return graphmod.make_cycle(args.n), None
    raise ValueError("a graph is needed: give --family or --file")


def _render_graph(g: graphmod.Graph, pg: ProductGraph | None, fmt: str) -> str:
    if fmt == "dot":
        return graphmod.to_dot(g)
    if pg is not None:
        return productsmod.to_json(pg) + "\n"
    return graphmod.to_json(g) + "\n"


def cmd_gen(args) -> int:
    g, pg = _resolve_graph(args)
    _emit(_render_graph(g, pg, args.format), args.out)
    return EXIT_OK


def cmd_product(args) -> int:
    if (args.file1 or args.file2) and (flags := _family_flags(args)):
        raise ValueError(f"--file1 and --file2 give the factors, so {flags} would be ignored")
    if bool(args.file1) != bool(args.file2):
        raise ValueError(f"a product of two files needs {'--file2' if args.file1 else '--file1'}")
    if args.file1:
        g1, _ = _load_any(args.file1)
        g2, _ = _load_any(args.file2)
        build = (productsmod.strong_product if args.kind == "strong"
                 else productsmod.cartesian_product)
        pg = build(g1, g2)
    elif args.family:
        _need_orders(args, "m", "n")
        pg = family_product(args.family, args.m, args.n, args.kind)
    else:
        raise ValueError("a product needs --family or --file1 and --file2")
    _emit(_render_graph(pg.graph, pg, args.format), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    g, pg = _resolve_graph(args)
    if args.solver == "subset":
        budget = SUBSET_BUDGET if args.budget is None else args.budget
        res = kappa_extra_subset(g, args.g, budget=budget)
    elif args.budget is not None:
        raise ValueError("--budget bounds the subset solver only")
    else:
        res = kappa_extra_fragment(g, args.g)
    value = "infinity" if res.value is INFINITY else res.value
    if args.format == "json":
        doc = {"g": res.extra, "value": value, "witness": res.witness,  # a tuple writes as a list
               "solver": res.solver, "stats": {"nodes": res.stats.nodes}}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    lines = [f"kappa_{args.g} = {value}"]
    if res.witness is not None:
        lines.append("witness ids: " + " ".join(map(str, res.witness)))
        if pg is not None:
            lines.append("witness coords: " + productsmod.render_coords(pg, res.witness))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_formula(args) -> int:
    _need_orders(args, "m", "n")
    value = kappa_closed_form(args.family, args.m, args.n, args.g)
    if args.format == "json":
        doc: dict = {"family": args.family, "m": args.m, "n": args.n,
                     "g": args.g, "value": value}
        try:
            res = kappa_formula(FamilyParams(args.family, args.m, args.n, args.g))
            doc["terms"] = dict(res.terms)
            doc["active_terms"] = list(res.active_terms)
        except (ValueError, DomainError):
            pass  # small-case route has no three-term breakdown
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        _emit(f"{value}\n", args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    _need_orders(args, "m", "n")
    params = FamilyParams(args.family, args.m, args.n, args.g)
    spec = plan_witness(params, args.which)
    pg = family_product(args.family, args.m, args.n)  # refuses an oversized order first
    cut = build_witness(spec)
    verdict = validate_witness(pg, cut, args.g)
    if args.format == "dot":
        _emit(graphmod.to_dot(pg.graph, cut), args.out)
        return EXIT_OK
    if args.format == "json":
        doc = {"family": args.family, "m": args.m, "n": args.n, "g": args.g,
               "which": args.which, "predicted_size": spec.predicted_size,
               "size": len(cut), "cut": list(cut),
               "is_g_extra_cut": verdict.is_g_extra,
               "component_sizes": list(verdict.component_sizes)}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    lines = [f"{args.which} cut, size {len(cut)} (predicted {spec.predicted_size})",
             "ids: " + " ".join(map(str, cut)),
             "coords: " + productsmod.render_coords(pg, cut),
             f"valid {args.g}-extra cut: {'yes' if verdict.is_g_extra else 'NO'}"]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _resolve_product(args) -> ProductGraph:
    _, pg = _resolve_graph(args)
    if pg is None:
        raise ValueError(f"{args.command} needs a product graph")
    return pg


def cmd_classify_cut(args) -> int:
    pg = _resolve_product(args)
    cls = classify_cut(pg, _parse_cut(args.cut))
    doc = {k: v for k, v in cls._asdict().items() if v is not None}
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_check_layers(args) -> int:
    pg = _resolve_product(args)
    ok = check_layer_bounds(pg, [_parse_cut(args.cut)], args.g)
    _emit(("pass" if ok else "fail") + "\n", args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_identity(args) -> int:
    ok = ceiling_identity(args.kind, args.g)
    _emit(("holds" if ok else "fails") + "\n", args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_sweep(args) -> int:
    families = FAMILIES if args.families is None else tuple(args.families.split(","))

    def parse_range(flag, text):
        if text is None:
            return None
        try:
            lo, hi = map(int, text.split(":"))
        except ValueError:
            raise ValueError(f"{flag} {text!r} is not lo:hi") from None
        if lo > hi:
            raise ValueError(f"{flag} {text!r} is reversed: lo > hi")
        return (lo, hi)
    explicit = None
    if args.g_list is not None:
        try:
            explicit = tuple(int(p) for p in args.g_list.split(",")) if args.g_list else ()
        except ValueError:
            raise ValueError(f"--g-list {args.g_list!r} is not a comma-separated "
                             "list of integers") from None
    config = SweepConfig(families=families,
                         m_range=parse_range("--m-range", args.m_range),
                         n_range=parse_range("--n-range", args.n_range),
                         explicit_g=explicit)
    report = sweep(config, threads=args.threads)
    if args.format == "json":
        _emit(json.dumps(to_json_dict(report), sort_keys=True) + "\n", args.out)
    else:
        _emit(to_csv(report), args.out)
    failures = report_failures(report)
    if args.out:
        agreed = sum(1 for r in report if r.agree)
        print(f"wrote {args.out}: {len(report)} rows, {agreed} asserted agreements, "
              f"{len(failures)} failures")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="xconn",
                     description="Exact g-extra connectivity of path/cycle strong products")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family_choices, need_g=False, need_family=False):
        p.add_argument("--family", choices=family_choices, required=need_family)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        if need_g:
            p.add_argument("--g", type=int, required=True)
        p.add_argument("--out")

    p = sub.add_parser("gen", help="generate a factor or product graph")
    add_common(p, ("path", "cycle") + FAMILIES)
    p.add_argument("--file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", help="build a strong or Cartesian product")
    add_common(p, FAMILIES)
    p.add_argument("--kind", choices=("strong", "cartesian"), default="strong")
    p.add_argument("--file1")
    p.add_argument("--file2")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("exact", help="exact kappa_g by an exhaustive solver")
    add_common(p, FAMILIES, need_g=True)
    p.add_argument("--file")
    p.add_argument("--solver", choices=("fragment", "subset"), default="fragment")
    p.add_argument("--budget", type=int, help="checks before --solver subset gives up")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("formula", help="closed-form kappa_g")
    add_common(p, FAMILIES, need_g=True, need_family=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("witness", help="construct an explicit optimal-size cut")
    add_common(p, FAMILIES, need_g=True, need_family=True)
    p.add_argument("--which", choices=WITNESS_KINDS, required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("classify-cut", help="classify a product cut as I-set/L-set")
    add_common(p, FAMILIES)
    p.add_argument("--file")
    p.add_argument("--cut", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=cmd_classify_cut)

    p = sub.add_parser("check-layers", help="layer lower-bound check for a cut")
    add_common(p, FAMILIES, need_g=True)
    p.add_argument("--file")
    p.add_argument("--cut", required=True)
    p.set_defaults(func=cmd_check_layers)

    p = sub.add_parser("identity", help="check one block-size ceiling identity")
    p.add_argument("--kind", choices=IDENTITY_KINDS, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("sweep", help="grid verification: formula vs solver vs witnesses")
    p.add_argument("--families")
    p.add_argument("--m-range", help="lo:hi")
    p.add_argument("--n-range", help="lo:hi")
    p.add_argument("--g-list", help="explicit comma-separated g values")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, WitnessError) as exc:
        print(f"out of domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:  # e.g. a document whose n is 2**62
        print(f"error: input too large to build ({type(exc).__name__})", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
