"""Command line front end.

Subcommands: validate, analyze, classify, cideal, enumerate, catalog,
verify, fuzz.  Exit codes: 0 clean, 1 semantic failure (a violated
bracket identity or a failing verification suite), 2 usage or parse
errors, 3 enumeration budget exceeded.  The environment variable
``LIE_CIDEAL_BUDGET`` overrides the default enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BadParams, BudgetExceeded, Error, JacobiViolation
from .fields import Field, GF, Q
from .linalg import parse_subspace, subspace_text
from .lattice import (
    DEFAULT_BUDGET,
    cartan_subalgebras,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    one_dim_ideals,
)
from .cideal import is_cideal
from .structure import classify_line_cideals, structure_profile
from .catalog import builtin, builtin_names, parse, serialize
from .harness import FAIL, SKIP, fuzz, run_suite

_ENV_BUDGET = "LIE_CIDEAL_BUDGET"


def _field_flag(text: str) -> Field:
    low = text.strip().lower()
    if low == "q":
        return Q
    if low.startswith("gf"):
        digits = low[2:]
        if digits.isdigit():
            return GF(int(digits))
    raise BadParams(f"unrecognized field {text!r}; use q or gf<p>")


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(_ENV_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BadParams(f"{_ENV_BUDGET} must be an integer, got {env!r}")
    return DEFAULT_BUDGET


def _load(path: str, validate: bool = True):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse(text, validate=validate)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_validate(args) -> int:
    algebra = _load(args.file, validate=False)
    violations = algebra.validate()
    print(f"field: {algebra.field}")
    print(f"dim: {algebra.dim}")
    print(f"names: {', '.join(algebra.names)}")
    if violations:
        for i, j, k, residual in violations:
            names = algebra.names
            print(
                f"jacobi violation at ({names[i]}, {names[j]}, {names[k]}): "
                f"residual {[c.text() for c in residual]}"
            )
        return 1
    print("jacobi: ok")
    return 0


def _cmd_analyze(args) -> int:
    algebra = _load(args.file)
    profile = structure_profile(algebra, _resolve_budget(args))
    data = profile.as_dict()
    if args.json:
        _emit_json(data)
        return 0
    width = max(len(k) for k in data)
    for key, value in data.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _cmd_classify(args) -> int:
    algebra = _load(args.file)
    result = classify_line_cideals(algebra)
    if args.json:
        _emit_json(result.as_dict())
        return 0
    print(f"case: {result.case}")
    if result.abelian_part is not None:
        print(f"abelian part: {subspace_text(result.abelian_part)}")
    if result.almost_abelian_part is not None:
        print(f"almost abelian part: {subspace_text(result.almost_abelian_part)}")
    return 0


def _cmd_cideal(args) -> int:
    algebra = _load(args.file)
    sub = parse_subspace(algebra.field, algebra.dim, args.sub)
    verdict = is_cideal(algebra, sub, _resolve_budget(args))
    if args.json:
        _emit_json(verdict.as_dict())
        return 0
    print(f"answer: {verdict.answer}")
    print(f"method: {verdict.method}")
    print(f"exhaustive: {verdict.exhaustive}")
    if verdict.certificate is not None:
        print(f"certificate ideal: {subspace_text(verdict.certificate)}")
    return 0


# The --what choices of `enumerate`, in order, and what each one lists.
_ENUM_KINDS = {
    "subspaces": enum_subspaces,
    "subalgebras": enum_subalgebras,
    "ideals": enum_ideals,
    "maximal": maximal_subalgebras,
    "maxnilp": maximal_nilpotent_subalgebras,
    "cartan": cartan_subalgebras,
    "lines": one_dim_ideals,
}


def _cmd_enumerate(args) -> int:
    algebra = _load(args.file)
    items = list(_ENUM_KINDS[args.what](algebra, budget=_resolve_budget(args)))
    print(f"count: {len(items)}")
    for s in items:
        print(f"dim {s.dim}: {subspace_text(s)}")
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        rows = builtin_names()
        width = max(len(r[0]) for r in rows)
        for name, takes_param, description in rows:
            shown = f"{name}(k)" if takes_param else name
            print(f"{shown.ljust(width + 3)}  {description}")
        return 0
    field = _field_flag(args.field)
    algebra = builtin(args.name, field, args.param)
    sys.stdout.write(serialize(algebra))
    return 0


def _cmd_verify(args) -> int:
    algebra = _load(args.file)
    reports = run_suite(
        algebra, args.suite, _resolve_budget(args), algebra_id=args.file
    )
    failed = sum(1 for r in reports if r.status == FAIL)
    if args.json:
        _emit_json(
            {
                "reports": [r.as_dict() for r in reports],
                "failures": failed,
            }
        )
        return 1 if failed else 0
    for r in reports:
        line = f"{r.theorem_id:>4}  {r.status:<8} {r.seconds:.3f}s"
        if r.reason:
            line += f"  {r.reason}"
        print(line)
        if r.status == FAIL and r.witnesses:
            print(f"      witnesses: {json.dumps(r.witnesses, sort_keys=True)}")
    print(f"failures: {failed}")
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    field = _field_flag(args.field)
    result = fuzz(
        args.seed,
        args.count,
        field,
        ambient_n=args.ambient,
        suites=args.suite,
        budget=_resolve_budget(args),
    )
    if args.json:
        _emit_json(result.as_dict())
        return 1 if result.failure_count else 0
    passed = sum(1 for r in result.reports if r.status == "pass")
    skipped = sum(1 for r in result.reports if r.status == SKIP)
    print(
        f"algebras: {result.count}  reports: {len(result.reports)}  "
        f"pass: {passed}  skipped: {skipped}  fail: {result.failure_count}"
    )
    for f in result.failures:
        report = f["report"]
        print(f"FAIL {report.theorem_id} on {f['algebra_id']}: {report.reason}")
        print(f"  witnesses: {json.dumps(report.witnesses, sort_keys=True)}")
        print(f"  document: {f['document'].rstrip()}")
    return 1 if result.failure_count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cideals",
        description="Exact-arithmetic c-ideal analysis for finite dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document parses and satisfies the Jacobi identity")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("analyze", help="print the structure profile")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("classify", help="classify which algebras have every line a c-ideal")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("cideal", help="decide whether a subalgebra is a c-ideal")
    p.add_argument("file")
    p.add_argument("--sub", required=True, help='generators, e.g. "1,0,0; 0,1,0"')
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_cideal)

    p = sub.add_parser("enumerate", help="list subspaces, subalgebras, ideals, ...")
    p.add_argument("file")
    p.add_argument("--what", required=True, choices=_ENUM_KINDS)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("catalog", help="list builtin algebras or emit one as a document")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    pl = catalog_sub.add_parser("list")
    pl.set_defaults(handler=_cmd_catalog)
    pe = catalog_sub.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("--field", required=True, help="q, gf2, gf3, gf5, or any gf<p>")
    pe.add_argument("--param", type=int, default=None)
    pe.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify", help="run verification suites against a document")
    p.add_argument("file")
    p.add_argument("--suite", default="all", help="all or a comma list like T1,T7,T8")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fuzz", help="run suites over randomly generated solvable algebras")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--field", required=True, help="gf2, gf3, gf5, or any gf<p>")
    p.add_argument("--ambient", type=int, default=3, choices=(3, 4))
    p.add_argument("--suite", default="all")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except JacobiViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
