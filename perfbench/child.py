"""
One round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD [--setup-only] [--trace] [--reference]

run.py starts this script once per round, with PYTHONPATH set to the
checkout's src/ and a fixed PYTHONHASHSEED.  The script imports coxdrops,
builds the workload's inputs and prints ``ready``; with --setup-only it then
only times calibrate_import() for run.py, which times set-up.  Otherwise it runs the workload's
operations in one timed region, checks their outputs outside that region,
and prints one JSON object as its last line.

Host-speed samples are taken during the timed region (see hostspeed.py); the
result carries both the raw and the rescaled times.  --trace records a span around every call into coxdrops
(name, start, end, parent span, element count) and returns the spans with
the result.  The
``probes`` workload exists only for traced runs: it times single layers on
fixed inputs.  --reference makes parallel-sweep also run its claims with one
worker, untimed, and compare the report content.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import checks
from hostspeed import Clock, calibrate_import

# (claim, group, sizes) of `coxdrops verify` at every claim's default scale
PAPER_SCALES = (
    ("thm1.1", "S", range(1, 9)),
    ("thm1.3", "S", range(1, 9)),
    ("cor1.4", "S", range(1, 9)),
    ("thm-typeB", "B", range(1, 7)),
    ("thm-typeD", "D", range(2, 7)),
    ("lemma7.2", "B", range(2, 7)),
    ("cfrac", "S", range(0, 9)),
    ("mad", "S", range(1, 9)),
    ("weights", "S", range(1, 9)),
    ("shape", "S", range(1, 9)),
    ("moments", "S", range(1, 9)),
    ("fz", "S", range(1, 9)),
    ("invol", "S", range(1, 9)),
    ("invol", "B", range(1, 7)),
)
MATCHINGS = (("S", 7), ("B", 5))
PARALLEL_CLAIMS = (("cor1.4", "S", 9), ("thm-typeB", "B", 7), ("thm-typeD", "D", 7))
# (span name, group swept, n); jfraction_convergent sweeps no group
ENUMERATORS = (
    ("genpoly.signed_trivariate", "S", 9),
    ("genpoly.signed_drops_B", "B", 7),
    ("genpoly.signed_drops_D", "D", 7),
    ("genpoly.drops_moments_A", "A", 9),
    ("genpoly.dep_inv_poly", "S", 9),
    ("genpoly.jfraction", None, 9),
)


def workers() -> int:
    """min(2, number of CPUs this process may run on)."""
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory; with enabled False no span is recorded."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float | None, count: int = 0) -> None:
        if not self.enabled:
            return
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "count": count})

    @contextlib.contextmanager
    def _span(self, name: str, count: int):
        index = len(self.spans)
        self.add(name, time.perf_counter(), None, count)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def span(self, name: str, count: int = 0):
        return self._span(name, count) if self.enabled else contextlib.nullcontext()


def traced_run_claim(run_claim, tracer: Tracer):
    """Wrap verify.run_claim so that each report it yields becomes a span
    named after its claim and group."""
    def wrapper(name, *args, **kwargs):
        start = time.perf_counter()
        for report in run_claim(name, *args, **kwargs):
            tracer.add(f"verify.claim.{name}.{report.group}", start,
                       time.perf_counter(), report.count)
            yield report
            start = time.perf_counter()
    return wrapper


def run_cli(cli, argv: list[str]) -> tuple[int, list[dict]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# workloads: each has setup() -> inputs, run(inputs, tracer) -> (failed,
# outputs) and check(outputs, inputs, tracer, reference) -> (problems,
# content), where content is what later rounds must repeat.  beside_workers
# tells the clock whether worker processes run during the timed region.
# ---------------------------------------------------------------------------

class PaperCheck:
    beside_workers = False
    ops = sum(len(ns) for _, _, ns in PAPER_SCALES) + len(MATCHINGS)
    elements = (sum(checks.group_order(g, n) for _, g, ns in PAPER_SCALES for n in ns)
                + sum(checks.group_order(k, n) for k, n in MATCHINGS))

    def setup(self):
        from coxdrops import bruhat, cli
        return cli, bruhat, ["verify", "--threads", "1", "--format", "json"]

    def run(self, inputs, tracer):
        cli, bruhat, argv = inputs
        failed = 0
        reports = []
        code = None
        original = cli.run_claim
        if tracer.enabled:
            cli.run_claim = traced_run_claim(original, tracer)
        try:
            with tracer.span("cli.verify"):
                code, reports = run_cli(cli, argv)
        except Exception as exc:                   # the whole verify call failed
            print(f"verify raised {exc!r}", file=sys.stderr)
            failed += self.ops - len(MATCHINGS)
        finally:
            cli.run_claim = original
        matchings = []
        for kind, n in MATCHINGS:
            order = checks.group_order(kind, n)
            try:
                with tracer.span("bruhat.build_matching", order):
                    edges = bruhat.build_matching(kind, n)
                with tracer.span("bruhat.validate_matching", order):
                    valid = bruhat.validate_matching(edges, kind, n)
            except Exception as exc:
                print(f"matching {kind}{n} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            matchings.append((kind, n, edges, valid))
        return failed, (code, reports, matchings)

    def check(self, outputs, inputs, tracer, reference):
        code, reports, matchings = outputs
        problems = []
        if code is not None:                       # verify did not raise
            if code != 0:
                problems.append(f"verify exited {code}")
            expected = [(c, g, n) for c, g, ns in PAPER_SCALES for n in ns]
            problems += checks.check_reports(reports, expected)
        for kind, n, edges, valid in matchings:
            if not valid.ok:
                problems.append(f"validate_matching {kind}{n}: {valid.violations[:3]}")
            problems += checks.check_matching([(e.lower, e.upper) for e in edges], kind, n)
        return problems, None


class ParallelSweep:
    beside_workers = True
    ops = len(PARALLEL_CLAIMS)
    elements = sum(checks.group_order(g, n) for _, g, n in PARALLEL_CLAIMS)

    def setup(self):
        from coxdrops import cli
        return cli, workers()

    def run(self, inputs, tracer):
        cli, k = inputs
        failed = 0
        runs = []
        for claim, group, n in PARALLEL_CLAIMS:
            try:
                with tracer.span(f"verify.parallel.{claim}", checks.group_order(group, n)):
                    runs.append(((claim, group, n), *self._verify(cli, claim, n, k)))
            except Exception as exc:
                print(f"verify {claim} raised {exc!r}", file=sys.stderr)
                failed += 1
        return failed, (cli, runs)

    @staticmethod
    def _verify(cli, claim, n, threads):
        return run_cli(cli, ["verify", claim, "--n", str(n), "--threads", str(threads),
                             "--format", "json"])

    def check(self, outputs, inputs, tracer, reference):
        cli, runs = outputs
        problems = []
        parallel = []
        for _, code, reports in runs:
            if code != 0:
                problems.append(f"verify exited {code}")
            parallel += reports
        problems += checks.check_reports(parallel, [scale for scale, _, _ in runs])
        if reference:
            serial = []
            for (claim, group, n), _, _ in runs:
                with tracer.span(f"verify.serial.{claim}", checks.group_order(group, n)):
                    serial += self._verify(cli, claim, n, 1)[1]
            problems += checks.check_same_content(serial, parallel)
        return problems, [checks.report_content(r) for r in parallel]


class Enumerators:
    beside_workers = False
    ops = len(ENUMERATORS)
    elements = sum(checks.group_order(g, n) for _, g, n in ENUMERATORS if g)

    def setup(self):
        from coxdrops import genpoly
        return [
            (genpoly.signed_trivariate, (9,)),
            (genpoly.signed_drops, ("B", 7)),
            (genpoly.signed_drops, ("D", 7)),
            (genpoly.drops_moments, ("A", 9)),
            (genpoly.dep_inv_poly, (9,)),
            (genpoly.jfraction_convergent, (9,)),
        ]

    def run(self, inputs, tracer):
        failed = 0
        results = {}
        for (name, group, n), (fn, fargs) in zip(ENUMERATORS, inputs):
            try:
                with tracer.span(name, checks.group_order(group, n) if group else 0):
                    results[name] = fn(*fargs)
            except Exception as exc:
                print(f"{name} raised {exc!r}", file=sys.stderr)
                failed += 1
        return failed, results

    def check(self, results, inputs, tracer, reference):
        problems = []
        terms = {k: v.terms for k, v in results.items() if hasattr(v, "terms")}
        if "genpoly.signed_trivariate" in terms:
            problems += checks.check_trivariate(terms["genpoly.signed_trivariate"], 9)
        if "genpoly.signed_drops_B" in terms:
            problems += checks.check_signed_drops_b(terms["genpoly.signed_drops_B"], 7)
        if "genpoly.signed_drops_D" in terms:
            problems += checks.check_signed_drops_d(terms["genpoly.signed_drops_D"], 7)
        if "genpoly.drops_moments_A" in results:
            problems += checks.check_drops_moments(*results["genpoly.drops_moments_A"], 9)
        if "genpoly.dep_inv_poly" in terms:
            problems += checks.check_dep_inv_at_x1(terms["genpoly.dep_inv_poly"], 9)
            if "genpoly.jfraction" in results:
                problems += checks.check_jfraction(
                    results["genpoly.jfraction"].coefficient(9).terms,
                    terms["genpoly.dep_inv_poly"], 9)
        return problems, None


class Probes:
    """Single layers on fixed inputs; traced runs only.  Each probe is one
    span whose count is the number of elements (or products) it handled."""
    beside_workers = False
    elements = 0

    def setup(self):
        from coxdrops import genpoly, involutions, laguerre, reduced_words
        from coxdrops import perm_core as pc
        s8 = list(pc.iter_group("S", 8))
        b6 = list(pc.iter_group("B", 6))
        words = [reduced_words.canonical_word_a(w).letters for w in s8]
        total = math.factorial(9)
        pieces = min(2 * 4, 128)                # the cut verify makes for two workers
        chunks = [(total * i // pieces, total * (i + 1) // pieces) for i in range(pieces)]
        poly = genpoly.dep_inv_poly(7)

        def iter_full():
            return sum(1 for _ in pc.iter_group("S", 8))

        def iter_ranged():
            return sum(1 for a, b in chunks for _ in pc.iter_group("S", 9, a, b))

        def iter_signed():
            return (sum(1 for _ in pc.iter_group("B", 7))
                    + sum(1 for _ in pc.iter_group("D", 7)))

        def stats():
            for w in s8:
                pc.inv(w), pc.des(w), pc.exc(w), pc.iexc(w), pc.drops(w), pc.depth(w)
            return len(s8)

        def inv():
            return sum(map(pc.inv, s8))

        def signed_stats():
            for s in b6:
                pc.inv_b(s), pc.drops_b(s), pc.inv_d(s), pc.drops_d(s), pc.zdrops(s)
            return len(b6)

        def each(fn, elems):
            def probe():
                for w in elems:
                    fn(w)
                return len(elems)
            return probe

        def evaluate_word():
            for letters in words:
                reduced_words.evaluate_word(letters, "A", 8)
            return len(words)

        def multipoly_mul():
            for _ in range(20):
                poly * poly
            return 20

        # (span, probe, repeats, element count per repeat, expected return)
        probes = [
            ("perm_core.iter_full", iter_full, 20, len(s8), len(s8)),
            ("perm_core.iter_ranged", iter_ranged, 1, total, total),
            ("perm_core.iter_signed", iter_signed, 1,
             checks.group_order("B", 7) + checks.group_order("D", 7),
             checks.group_order("B", 7) + checks.group_order("D", 7)),
            ("perm_core.stats", stats, 2, len(s8), len(s8)),
            # sum of inv over S_n is n! n(n-1)/4
            ("perm_core.inv", inv, 4, len(s8), len(s8) * 8 * 7 // 4),
            ("perm_core.signed_stats", signed_stats, 1, len(b6), len(b6)),
            ("reduced_words.canonical_word_a", each(reduced_words.canonical_word_a, s8),
             1, len(s8), len(s8)),
            ("reduced_words.canonical_word_b", each(reduced_words.canonical_word_b, b6),
             1, len(b6), len(b6)),
            ("reduced_words.evaluate_word", evaluate_word, 2, len(s8), len(s8)),
            ("involutions.involution_a", each(involutions.involution_a, s8), 1, len(s8), len(s8)),
            ("involutions.involution_b", each(involutions.involution_b, b6), 1, len(b6), len(b6)),
            ("laguerre.fz_history", each(laguerre.fz_history, s8), 1, len(s8), len(s8)),
            ("genpoly.mad", each(genpoly.mad, s8), 1, len(s8), len(s8)),
            ("genpoly.multipoly_mul", multipoly_mul, 1, 20, 20),
        ]
        self.ops = len(probes)
        return probes

    def run(self, inputs, tracer):
        results = {}
        for name, probe, repeats, count, _ in inputs:
            for _ in range(repeats):
                with tracer.span(name, count):
                    results[name] = probe()
        return 0, results

    def check(self, results, inputs, tracer, reference):
        return [f"{name} returned {results[name]}, expected {want}"
                for name, _, _, _, want in inputs if results[name] != want], None


WORKLOADS = {"paper-check": PaperCheck, "parallel-sweep": ParallelSweep,
             "enumerators": Enumerators, "probes": Probes}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child that ended."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(me.ru_maxrss, kids.ru_maxrss) / 1024.0         # KiB -> MiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    inputs = workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"calibrate_import_s": calibrate_import()}))
        return 0

    tracer = Tracer(args.trace)

    def on_sample(start, end, paused):
        tracer.add("bench.calibrate" if paused else "bench.calibrate.beside", start, end)

    with Clock(workload.beside_workers, on_sample) as clock:
        failed, outputs = workload.run(inputs, tracer)
    rss = peak_rss_mb()

    problems, content = workload.check(outputs, inputs, tracer, args.reference)
    print(json.dumps({
        **clock.totals(), "peak_rss_mb": rss,
        "attempted": workload.ops, "failed": failed,
        "elements": workload.elements, "problems": problems,
        "content": content, "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
