"""Command-line front end over the JSON artifact formats.

Every verb reads at most one input artifact (a file path, inline JSON, or
``-`` for standard input), performs one library operation, and writes
canonical JSON to standard output.  Exit codes: 0 on success, 1 on domain
errors (validation failures, size caps) with a machine-readable error
object, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Any, NoReturn

from . import algebra, bordism, bott, jsonio, kernels
from .algebra import ExtPolynomial
from .errors import BordismError, InputFormatError, ValidationError
from .graphs import (ColoredGraph, TorusGraph, graph_coloring_polynomial,
                     torus_graph_from_pair, torus_polynomial)
from .localization import FixedPointData, chern_sweep
from .polytopes import coloring_polynomial


def _read_input(raw: str) -> Any:
    """Resolve a positional INPUT: '-' is stdin, '{...}' is inline, else a path."""
    if raw == "-":
        return jsonio.parse_text(sys.stdin.read())
    if raw.lstrip().startswith("{"):
        return jsonio.parse_text(raw)
    try:
        with open(raw, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read input file {raw!r}: {exc}") from exc
    return jsonio.parse_text(text)


def _emit(obj: Any) -> None:
    sys.stdout.write(jsonio.canonical_dumps(obj))


# ---------------------------------------------------------------------------
# verbs


def _cmd_dim(args: argparse.Namespace) -> int:
    out: dict[str, Any] = {"dim": kernels.kernel_space(args.n).dim}
    if args.weight_bound is not None:
        window = kernels.kernel_sample_unitary(args.n, args.weight_bound)
        out["weight_bound"] = window.weight_bound
        out["window_dim"] = window.dim
    _emit(out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    p = jsonio.polynomial_from_obj(_read_input(args.input))
    ok, reason = algebra.in_image_verdict(p)
    _emit({"in_image": ok, "reason": reason})
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    p = jsonio.polynomial_from_obj(_read_input(args.input))
    _emit(jsonio.polynomial_to_obj(algebra.dual(p)))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    p = jsonio.polynomial_from_obj(_read_input(args.input))
    _emit(jsonio.polynomial_to_obj(algebra.differential(p)))
    return 0


def _cmd_poly_of_polytope(args: argparse.Namespace) -> int:
    p, coloring = jsonio.polytope_from_obj(_read_input(args.input))
    if coloring is None:
        raise ValidationError("the polytope artifact carries no coloring")
    _emit(jsonio.polynomial_to_obj(coloring_polynomial(p, coloring)))
    return 0


def _cmd_poly_of_graph(args: argparse.Namespace) -> int:
    g = jsonio.graph_from_obj(_read_input(args.input))
    if isinstance(g, TorusGraph):
        raise ValidationError("input is a torus graph; use the torus-poly verb")
    _emit(jsonio.polynomial_to_obj(graph_coloring_polynomial(g)))
    return 0


def _cmd_torus_poly(args: argparse.Namespace) -> int:
    obj = _read_input(args.input)
    if isinstance(obj, dict) and "edges" in obj:
        g = jsonio.graph_from_obj(obj, edgeless_torus=True)
        if isinstance(g, ColoredGraph):
            raise ValidationError(
                "input is a GF(2)-colored graph; use the poly-of-graph verb")
        # the polynomial's vertex bases are the ones validation proved, read
        # back from the dual-basis hook's memo
        g.validate()
        if g.sigma is None:
            raise ValidationError('torus graph has no "sigma" field; torus-poly '
                                  'needs the orientation of every vertex')
        poly = torus_polynomial(g)
    else:
        p, coloring = jsonio.polytope_from_obj(obj)
        if coloring is None or coloring.target != "z":
            raise ValidationError("torus-poly needs an integer-colored polytope")
        poly = torus_polynomial(torus_graph_from_pair(p, coloring))
    _emit(jsonio.polynomial_to_obj(poly))
    return 0


def _cmd_chern(args: argparse.Namespace) -> int:
    obj = _read_input(args.input)
    if isinstance(obj, dict) and "points" in obj:
        data = jsonio.fixed_point_data_from_obj(obj)
    else:
        data = FixedPointData.from_polynomial(jsonio.polynomial_from_obj(obj))
    cap, sweep = chern_sweep(data, args.degree_bound)
    numbers = [{"i": r.i, "j": r.j,
                "polynomial": r.is_polynomial,
                "integral": r.integral,
                "constant": r.constant}
               for r in sweep]
    _emit({"degree_bound": cap, "n": data.n, "numbers": numbers})
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    obj = _read_input(args.input)
    if isinstance(obj, dict) and "flavor" in obj:
        a = jsonio.class_from_obj(obj)
        _emit(jsonio.class_to_obj(bordism.reduce(a)))
        return 0
    p = jsonio.polynomial_from_obj(obj)
    if not isinstance(p, ExtPolynomial):
        raise ValidationError("reduce expects an integer-coefficient artifact")
    _emit(jsonio.polynomial_to_obj(algebra.mod2_reduce(p)))
    return 0


def _cmd_generators(args: argparse.Namespace) -> int:
    gens = bott.bott_generators(args.n)
    polys = [g.polynomial for g in gens]
    rank = bott.spanning_rank(args.n).rank
    kernel_dim = kernels.kernel_space(args.n).dim
    _emit({
        "n": args.n,
        "count": len(gens),
        "kernel_dim": kernel_dim,
        "spanning_rank": rank,
        "spans_kernel": rank == kernel_dim,
        "generators": [jsonio.polynomial_to_obj(p) for p in polys],
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # only this verb runs the suite, so only it pays for the import
    from .acceptance import run_all
    if args.format == "json":
        results = run_all()
        _emit({"passed": sum(r.passed for r in results),
               "total": len(results),
               "results": [{"index": r.index, "name": r.name,
                            "passed": r.passed, "detail": r.detail,
                            "seconds": round(r.seconds, 3)}
                           for r in results]})
    else:
        results = run_all(sys.stdout)
        print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser plumbing


_INPUT = ("input", {"metavar": "INPUT",
                    "help": "path to a JSON artifact, inline JSON, or - for stdin"})
_N = ("--n", {"type": int, "required": True, "help": "ambient torus rank"})

# verb -> (function, help, description or None for the help, arguments);
# the order is the order of the help text
_VERBS: dict[str, tuple] = {
    "dim": (_cmd_dim, "dimension of the rank-n kernel space", None, (
        _N,
        ("--weight-bound", {"type": int, "default": None,
                            "help": "also report the integral window kernel dimension "
                                    "over characters of this weight (default: skip)"}))),
    "check": (_cmd_check, "membership verdict for a polynomial artifact", None, (_INPUT,)),
    "dual": (_cmd_dual, "dual polynomial of a faithful polynomial", None, (_INPUT,)),
    "diff": (_cmd_diff, "boundary differential of a polynomial", None, (_INPUT,)),
    "poly-of-polytope": (_cmd_poly_of_polytope,
                         "coloring polynomial of a colored simple polytope", None, (_INPUT,)),
    "poly-of-graph": (_cmd_poly_of_graph,
                      "coloring polynomial of a GF(2)-colored graph", None, (_INPUT,)),
    "torus-poly": (_cmd_torus_poly,
                   "torus polynomial of a torus graph or integer-colored polytope",
                   None, (_INPUT,)),
    "chern": (_cmd_chern, "equivariant Chern number sweep for fixed-point data", None, (
        _INPUT,
        ("--degree-bound", {"type": int, "default": None,
                            "help": "sweep c1^i c2^j with i + 2j up to this bound "
                                    "(default: 2n)"}))),
    "reduce": (_cmd_reduce, "mod-2 reduction of an integer class or polynomial", None,
               (_INPUT,)),
    "generators": (_cmd_generators,
                   "distinct generator polynomials of rank n and their span", None, (_N,)),
    "verify": (_cmd_verify, "run the bundled verification suite",
               "Run the bundled verification suite; exits nonzero if any criterion fails.",
               (("--format", {"choices": ("text", "json"), "default": "text",
                              "help": "one PASS/FAIL line per criterion, or a JSON report"}),)),
}


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``verb``'s subparser when it names one, else with
    every verb's (for help, usage and the invalid-choice error)."""
    ap = argparse.ArgumentParser(
        prog="bordismkit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True, metavar="VERB")
    for name in (verb,) if verb in _VERBS else _VERBS:
        fn, help_, description, arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_, description=description or help_)
        p.set_defaults(func=fn)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BordismError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}})
        return 2 if isinstance(exc, InputFormatError) else 1


def entry() -> NoReturn:
    """Process entry of the console script and ``python -m``: run ``main``,
    then freeze the collector so that shutdown skips the full collection
    of every object the imports made (docs/decisions/0006).  atexit handlers
    and the stream flush still run; ``main`` itself never touches gc."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
