"""
Command-line front end: per-element statistics, canonical words, involution
and history reports, path weights, enumerator polynomials, continued-fraction
coefficients, batch claim verification, and the Bruhat matching export.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import genpoly as gp
from . import perm_core as pc
from .bruhat import (build_matching, matching_to_dot, matching_to_text,
                     validate_matching)
from .involutions import involution_a, involution_b
from .laguerre import (area, fz_history, heights, max_height, motzkin_paths,
                       nest, path_weight, is_valid_path, STEPS_MOTZKIN)
from .reduced_words import canonical_word, ird_and_ascents
from .verify import CLAIMS, run_claim


def _die(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _table(rows: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_stats(args) -> int:
    if args.elem:
        w = pc.parse_window(args.elem)
        if pc.is_unsigned(w):
            b = pc.StatBundle.of(w)
            rows = [("element", pc.format_window(w)), ("inv", b.inv),
                    ("des", b.des), ("exc", b.exc), ("iexc", b.iexc),
                    ("drops", b.drops), ("depth", b.depth),
                    ("spearman", b.spearman), ("mad", gp.mad(w)),
                    ("nest", nest(w))]
        else:
            rows = [("element", pc.format_window(w)),
                    ("inv_b", pc.inv_b(w)), ("inv_d", pc.inv_d(w)),
                    ("drops_b", pc.drops_b(w)), ("zdrops", pc.zdrops(w)),
                    ("nsum", pc.nsum(w)), ("negs", len(pc.negs(w)))]
            if len(w) >= 2:
                rows.insert(5, ("drops_d", pc.drops_d(w)))
        if args.format == "json":
            _emit(json.dumps(dict(rows)), args.out)
        else:
            _emit(_table(rows), args.out)
        return 0
    if args.n is None:
        raise _die("stats: need --elem or --n")
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.group in ("S", "A"):
        writer.writerow(["element", "inv", "des", "exc", "iexc", "drops",
                         "depth", "mad", "nest"])
        for w in pc.iter_group(args.group, args.n):
            writer.writerow([pc.format_window(w), pc.inv(w), pc.des(w),
                             pc.exc(w), pc.iexc(w), pc.drops(w), pc.depth(w),
                             gp.mad(w), nest(w)])
    else:
        writer.writerow(["element", "inv_b", "inv_d", "drops_b", "drops_d",
                         "zdrops", "nsum", "negs"])
        for w in pc.iter_group(args.group, args.n):
            writer.writerow([pc.format_window(w), pc.inv_b(w), pc.inv_d(w),
                             pc.drops_b(w), pc.drops_d(w), pc.zdrops(w),
                             pc.nsum(w), len(pc.negs(w))])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return 0


def _cmd_word(args) -> int:
    w = pc.parse_window(args.elem)
    kind = args.type or ("A" if pc.is_unsigned(w) else "B")
    word = canonical_word(w, kind)
    ird, ascents = ird_and_ascents(word)
    if args.format == "json":
        _emit(json.dumps({
            "element": pc.format_window(w), "type": kind, "word": str(word),
            "letters": list(ird), "factor_bounds": list(word.factor_bounds),
            "length": len(word), "ascents": list(ascents),
        }), args.out)
    else:
        _emit(_table([("element", pc.format_window(w)), ("type", kind),
                      ("word", str(word)), ("length", len(word)),
                      ("ird", ",".join(map(str, ird))),
                      ("ascents", "{" + ",".join(map(str, ascents)) + "}")]),
              args.out)
    return 0


def _cmd_invol(args) -> int:
    w = pc.parse_window(args.elem)
    kind = args.type or ("A" if pc.is_unsigned(w) else "B")
    rep = involution_a(w) if kind == "A" else involution_b(w)
    if args.format == "json":
        _emit(rep.to_json(), args.out)
    else:
        _emit(_table([("input", pc.format_window(rep.input)),
                      ("output", pc.format_window(rep.output)),
                      ("fixed", rep.fixed),
                      ("factor_index", rep.changed_factor_index),
                      ("transposition", rep.transposition)]), args.out)
    return 0


def _cmd_fz(args) -> int:
    w = pc.parse_window(args.elem)
    h = fz_history(w)
    if args.format == "json":
        _emit(h.to_json(), args.out)
    else:
        _emit(_table([("element", pc.format_window(w)), ("steps", h.steps),
                      ("labels", ",".join(map(str, h.labels))),
                      ("shape", h.shape), ("area", area(h.steps))]), args.out)
    return 0


def _cmd_path(args) -> int:
    if args.path:
        steps = args.path.upper()
        rows = [("path", steps), ("heights", ",".join(map(str, heights(steps)))),
                ("area", area(steps)), ("max_height", max_height(steps))]
        if is_valid_path(steps, STEPS_MOTZKIN):
            rows.append(("weight", path_weight(steps)))
        if args.format == "json":
            _emit(json.dumps(dict(rows)), args.out)
        else:
            _emit(_table(rows), args.out)
        return 0
    if args.n is None:
        raise _die("path: need --path or --n")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["path", "weight", "area", "max_height"])
    for steps in motzkin_paths(args.n):
        writer.writerow([steps, path_weight(steps), area(steps),
                         max_height(steps)])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return 0


def _cmd_poly(args) -> int:
    which = args.which
    if which == "trivariate":
        poly = gp.signed_trivariate(args.n)
    elif which == "signed-drops":
        poly = gp.signed_drops(args.group, args.n)
    elif which == "drops":
        poly = gp.drops_poly(args.group, args.n)
    elif which == "dep-inv":
        poly = gp.dep_inv_poly(args.n)
    elif which == "drops-mad":
        poly = gp.drops_mad_poly(args.n)
    elif which == "per-path":
        if not args.path:
            raise _die("poly --which per-path needs --path")
        poly = gp.per_path_enumerator(args.path.upper())
    else:
        raise _die(f"unknown polynomial {which!r}")
    _emit(poly.to_json() if args.format == "json" else poly.pretty(), args.out)
    return 0


def _cmd_cfrac(args) -> int:
    series = gp.jfraction_convergent(args.order)
    if args.format == "json":
        _emit(json.dumps([{"n": k, "poly": series.coefficient(k).to_json_obj()}
                          for k in range(args.order + 1)]), args.out)
    else:
        lines = [f"t^{k}: {series.coefficient(k).pretty()}"
                 for k in range(args.order + 1)]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    names = args.claims or list(CLAIMS)
    for name in names:
        if name not in CLAIMS:
            raise _die(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
    if args.n is not None:
        if args.n < 0 or (args.n == 0 and set(names) != {"cfrac"}):
            raise _die(f"out-of-range n {args.n}")
        if args.claims:
            # explicitly selected claims must be runnable at an explicit size
            for name in args.claims:
                if any(p.group == "D" for p in CLAIMS[name]) and args.n < 2:
                    raise _die(f"claim {name!r} needs n >= 2")
    if args.threads < 0:
        raise _die(f"--threads must be >= 0 (0 means all cores), got {args.threads}")
    ns = (args.n,) if args.n is not None else None
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    reports = []
    for name in names:
        reports.extend(run_claim(name, ns, threads, args.max_n))
    lines = []
    if args.format == "json":
        lines = [r.to_json() for r in reports]
    else:
        lines.append(f"{'claim':<10} {'group':<5} {'n':>2} {'status':<6} "
                     f"{'count':>8} {'ms':>9}  witness")
        for r in reports:
            lines.append(f"{r.claim:<10} {r.group:<5} {r.n:>2} {r.status:<6} "
                         f"{r.count:>8} {r.elapsed_ms:>9.1f}  {r.witness or ''}")
    _emit("\n".join(lines), args.out)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_match(args) -> int:
    edges = build_matching(args.group, args.n)
    report = validate_matching(edges, args.group, args.n)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(matching_to_dot(edges, args.group, args.n,
                                     hasse=args.hasse) + "\n")
    if args.format == "json":
        payload = {
            "group": args.group, "n": args.n, "edges": len(edges),
            "valid": report.ok, "violations": report.violations,
            "matching": [{"lower": pc.format_window(e.lower),
                          "upper": pc.format_window(e.upper),
                          "kind": e.kind} for e in edges],
        }
        _emit(json.dumps(payload), args.out)
    else:
        text = matching_to_text(edges, args.group, args.n)
        status = "valid" if report.ok else "INVALID: " + "; ".join(report.violations)
        _emit(text + f"\n# {len(edges)} edges, {status}", args.out)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxdrops",
        description="Exact enumeration of drop statistics on the classical "
                    "Coxeter groups: per-element reports and batch "
                    "verification of every enumerative identity.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        return p

    p = common(sub.add_parser("stats", help="per-element statistics or CSV sweeps"))
    p.add_argument("--elem", help="window, e.g. '3,1,-5,2,-4'")
    p.add_argument("--group", choices=pc.GROUPS, default="S")
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_stats)

    p = common(sub.add_parser("word", help="canonical reduced word"))
    p.add_argument("--elem", required=True)
    p.add_argument("--type", choices=("A", "B"))
    p.set_defaults(func=_cmd_word)

    p = common(sub.add_parser("invol", help="apply the sign-reversing involution"))
    p.add_argument("--elem", required=True)
    p.add_argument("--type", choices=("A", "B"))
    p.set_defaults(func=_cmd_invol)

    p = common(sub.add_parser("fz", help="restricted Laguerre history of a permutation"))
    p.add_argument("--elem", required=True)
    p.set_defaults(func=_cmd_fz)

    p = common(sub.add_parser("path", help="path heights, area and weight"))
    p.add_argument("--path", help="step word over N S E D, e.g. 'NEDS'")
    p.add_argument("--n", type=int, help="sweep all Motzkin paths of length n")
    p.set_defaults(func=_cmd_path)

    p = common(sub.add_parser("poly", help="statistic enumerator polynomials"))
    p.add_argument("--which", required=True,
                   choices=("trivariate", "signed-drops", "drops", "dep-inv",
                            "drops-mad", "per-path"))
    p.add_argument("--group", choices=pc.GROUPS, default="S")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--path")
    p.set_defaults(func=_cmd_poly)

    p = common(sub.add_parser("cfrac", help="continued-fraction convergent coefficients"))
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_cfrac)

    p = common(sub.add_parser("verify", help="run claim suites exhaustively"))
    p.add_argument("claims", nargs="*",
                   help=f"claims to run (default: all); known: {', '.join(CLAIMS)}")
    p.add_argument("--n", type=int, help="run at a single size")
    p.add_argument("--max-n", type=int, help="sweep sizes up to this bound")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes (default: all cores)")
    p.set_defaults(func=_cmd_verify)

    p = common(sub.add_parser("match", help="Bruhat-order matching and DOT export"))
    p.add_argument("--group", choices=("S", "B"), default="S")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering to FILE")
    p.add_argument("--hasse", action="store_true",
                   help="underlay the full Hasse diagram (n <= 5 advisable)")
    p.set_defaults(func=_cmd_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
