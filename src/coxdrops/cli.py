"""
Command-line front end: per-element statistics, canonical words, involution
and history reports, path weights, enumerator polynomials, continued-fraction
coefficients, batch claim verification, and the Bruhat matching export.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys

from . import genpoly as gp
from . import perm_core as pc
from .bruhat import (build_matching, matching_to_dot, matching_to_text,
                     validate_matching)
from .involutions import involution_a, involution_b
from .laguerre import (area, fz_history, heights, max_height, motzkin_number,
                       motzkin_paths, nest, path_weight, is_valid_path,
                       STEPS_MOTZKIN)
from .reduced_words import canonical_word, ird_and_ascents
from .verify import CLAIMS, plan, run_claim


# the most elements a verb sweeps per group (`verify --force` lifts it):
# B_8 (10,321,920) runs, S_11 (39,916,800) does not.  It also bounds the
# steps of a `poly` transfer and the paths `path --n` lists.
SWEEP_BUDGET = 2 * 10 ** 7

_ELEM_HELP = "window, e.g. '3,1,-5,2,-4'; write --elem=-3,1,5 when it starts with a minus"


def _die(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _within_budget(what: str, size, n: int, unit: str, hint: str = "") -> None:
    # size(k) grows with k, so past twice the first k >= 2 (where D_k starts)
    # over the budget the size there is a lower bound: size(n) itself may
    # take seconds (10^6!), pass int's digit limit or exhaust memory
    first = next(k for k in itertools.count(2) if size(k) > SWEEP_BUDGET)
    count = size(min(n, 2 * first))           # raises as ever on a bad n
    if count > SWEEP_BUDGET:
        bound = "at least " if n > 2 * first else ""
        raise _die(f"{what} ({bound}{count:,} {unit}s), over the "
                   f"{SWEEP_BUDGET:,}-{unit} budget{hint}")


def _check_budget(what: str, group: str, n: int, hint: str = "") -> None:
    _within_budget(f"{what} would sweep {group}_{n}",
                   lambda k: pc.group_order(group, k), n, "element", hint)


def _refuse_unread(verb: str, args, names: tuple[str, ...], mode: str) -> None:
    # an option the chosen mode would not read is refused, not ignored
    for name in names:
        if getattr(args, name) is not None:
            raise _die(f"{verb} --{name} is not read with {mode}")


def _sink(out: str | None):
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out: str | None) -> None:
    with _sink(out) as fh:
        print(text, file=fh)


def _emit_csv(header: list[str], rows, out: str | None) -> None:
    # rows are written as they are made, never held whole in memory
    with _sink(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _table(rows: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _drops_d(s: pc.Window) -> int | None:
    return pc.drops_d(s) if len(s) >= 2 else None


# the columns of `stats`, for unsigned and for signed windows
_UNSIGNED_STATS = (("inv", pc.inv), ("des", pc.des), ("exc", pc.exc),
                   ("iexc", pc.iexc), ("drops", pc.drops), ("depth", pc.depth),
                   ("spearman", pc.spearman), ("mad", gp.mad), ("nest", nest))
_SIGNED_STATS = (("inv_b", pc.inv_b), ("inv_d", pc.inv_d),
                 ("drops_b", pc.drops_b), ("drops_d", _drops_d),
                 ("zdrops", pc.zdrops), ("nsum", pc.nsum),
                 ("negs", lambda s: len(pc.negs(s))))


def _cmd_stats(args) -> int:
    if args.elem is not None:
        _refuse_unread("stats", args, ("n", "group"), "--elem")
        w = pc.parse_window(args.elem)
        stats = _UNSIGNED_STATS if pc.is_unsigned(w) else _SIGNED_STATS
        rows = [("element", pc.format_window(w))]
        rows += [(name, f(w)) for name, f in stats]
        if args.format == "json":
            _emit(json.dumps(dict(rows)), args.out)
        else:
            _emit(_table([(k, "" if v is None else v) for k, v in rows]), args.out)
        return 0
    if args.n is None:
        raise _die("stats: need --elem or --n")
    if args.format == "json":
        raise _die("stats --n writes CSV; --format json applies to --elem only")
    group = args.group or "S"
    _check_budget("stats", group, args.n)
    stats = _UNSIGNED_STATS if group in ("S", "A") else _SIGNED_STATS
    _emit_csv(["element"] + [name for name, _ in stats],
              ([pc.format_window(w)] + [f(w) for _, f in stats]
               for w in pc.iter_group(group, args.n)), args.out)
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
    if args.path is not None:
        _refuse_unread("path", args, ("n",), "--path")
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
    if args.format == "json":
        raise _die("path --n writes CSV; --format json applies to --path only")
    _within_budget(f"path would list the Motzkin paths of length {args.n}",
                   motzkin_number, args.n, "path")
    _emit_csv(["path", "weight", "area", "max_height"],
              ([steps, path_weight(steps), area(steps), max_height(steps)]
               for steps in motzkin_paths(args.n)), args.out)
    return 0


# the transfers `poly --which` names (besides per-path): domain and (group, n) -> poly
_POLYS = {
    "trivariate": ("S_n", lambda group, n: gp.signed_trivariate(n)),
    "signed-drops": ("S_n, B_n and D_n", gp.signed_drops),
    "drops": ("S_n and A_n", gp.drops_poly),
    "dep-inv": ("S_n", lambda group, n: gp.dep_inv_poly(n)),
    "drops-mad": ("S_n", lambda group, n: gp.drops_mad_poly(n)),
}


def _cmd_poly(args) -> int:
    which = args.which
    if args.path is not None and which != "per-path":
        raise _die(f"poly --path is read by --which per-path only, not by --which {which}")
    groups, transfer = _POLYS.get(which, ("S_n", None))
    if f"{args.group}_n" not in groups:
        raise _die(f"poly --which {which} is defined on {groups} only, not on {args.group}_n")
    n = 0 if args.n is None else args.n
    if transfer is not None:                  # sized by its subset-state steps
        _within_budget(f"poly --which {which} would run a transfer over {args.group}_{n}",
                       lambda k: gp.transitions(args.group, k), n, "transition")
        poly = transfer(args.group, n)
    else:
        if args.path is None:
            raise _die("poly --which per-path needs --path")
        _refuse_unread("poly", args, ("n",), "--which per-path")
        poly = gp.per_path_enumerator(args.path.upper())
    _emit(poly.to_json() if args.format == "json" else poly.pretty(), args.out)
    return 0


def _cmd_cfrac(args) -> int:
    # at length k the path transfer holds min(k, order - k) + 1 heights, each
    # a polynomial with at most C(k, 2) + 1 powers of q and k^2/4 + 1 of x
    _within_budget(f"cfrac would fill the path transfer to order {args.order}",
                   lambda order: sum((min(k, order - k) + 1) * (k * (k - 1) // 2 + 1)
                                     * (k * k // 4 + 1) for k in range(order + 1)),
                   args.order, "cell")
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
    names = list(dict.fromkeys(args.claims)) or list(CLAIMS)
    ns = (args.n,) if args.n is not None else None
    try:
        runs = plan(names, ns, args.max_n)
    except ValueError as exc:
        raise _die(str(exc)) from None
    # a selected claim, or every claim of an unfiltered run, must keep a size
    planned = {part.name for part, _ in runs}
    empty = [name for name in names if name not in planned]
    if empty and (args.claims or not runs):
        low = min(min(part.default_ns) for part in CLAIMS[empty[0]])
        raise _die(f"claim {empty[0]!r} has no size to run: it starts at n = {low}")
    if not args.force:
        for part, n in runs:
            _check_budget(f"verify {part.name}", part.group, n,
                          "; pass --force to run it anyway")
    if args.threads < 0:
        raise _die(f"--threads must be >= 0 (0 means every usable CPU), got {args.threads}")
    threads = args.threads if args.threads else pc.usable_cpus()
    ok = True                                  # each report is written as its part ends
    with _sink(args.out) as fh:
        if args.format != "json":
            print(f"{'claim':<10} {'group':<5} {'n':>2} {'status':<6} {'route':<8} "
                  f"{'count':>8} {'ms':>9}  witness", file=fh, flush=True)
        for name in names:
            for r in run_claim(name, ns, threads, args.max_n):
                ok = ok and r.ok
                print(r.to_json() if args.format == "json" else
                      f"{r.claim:<10} {r.group:<5} {r.n:>2} {r.status:<6} {r.route:<8} "
                      f"{r.count:>8} {r.elapsed_ms:>9.1f}  {r.witness or ''}",
                      file=fh, flush=True)
    return 0 if ok else 1


def _cmd_match(args) -> int:
    _check_budget("match", args.group, args.n)
    if args.hasse:
        # hasse_covers compares every pair on adjacent length levels; the
        # level sizes are the coefficients of prod [i]_q (S) or [2i]_q (B)
        step = 1 if args.group == "S" else 2

        def pairs(n):
            size = math.prod(map(gp.q_integer, range(step, step * n + 1, step)),
                             start=gp.MultiPoly.one()).univariate("q")
            return sum(c * size.get(k + 1, 0) for k, c in size.items())
        _within_budget(f"match --hasse would compare {args.group}_{args.n} elements pairwise",
                       pairs, args.n, "pair")
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
    p.add_argument("--elem", help=_ELEM_HELP)
    p.add_argument("--group", choices=pc.GROUPS, help="default S")
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_stats)

    p = common(sub.add_parser("word", help="canonical reduced word"))
    p.add_argument("--elem", required=True, help=_ELEM_HELP)
    p.add_argument("--type", choices=("A", "B"))
    p.set_defaults(func=_cmd_word)

    p = common(sub.add_parser("invol", help="apply the sign-reversing involution"))
    p.add_argument("--elem", required=True, help=_ELEM_HELP)
    p.add_argument("--type", choices=("A", "B"))
    p.set_defaults(func=_cmd_invol)

    p = common(sub.add_parser("fz", help="restricted Laguerre history of a permutation"))
    p.add_argument("--elem", required=True, help=_ELEM_HELP)
    p.set_defaults(func=_cmd_fz)

    p = common(sub.add_parser("path", help="path heights, area and weight"))
    p.add_argument("--path", help="step word over N S E D, e.g. 'NEDS'")
    p.add_argument("--n", type=int, help="sweep all Motzkin paths of length n")
    p.set_defaults(func=_cmd_path)

    p = common(sub.add_parser("poly", help="statistic enumerator polynomials"))
    p.add_argument("--which", required=True,
                   choices=(*_POLYS, "per-path"))
    p.add_argument("--group", choices=pc.GROUPS, default="S")
    p.add_argument("--n", type=int, help="default 0")
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
                   help="worker processes (default: every CPU this process may use)")
    p.add_argument("--force", action="store_true",
                   help=f"run an explicit --n even when a group has more "
                        f"than {SWEEP_BUDGET:,} elements")
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
        code = args.func(args)
        sys.stdout.flush()                     # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:                    # the reader left, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit is quiet
        return 1
    except OSError as exc:
        if exc.filename is None:               # only --out and --dot name a file
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
