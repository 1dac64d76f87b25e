"""
The coxdrops benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the package is imported
from its src/ directory, so nothing needs installing.  Workloads:

  paper-check     `coxdrops verify --threads 1` at every claim's default
                  scale, plus the Bruhat matchings of S_7 and B_5
  parallel-sweep  cor1.4 at n = 9, thm-typeB and thm-typeD at n = 7, each
                  with min(2, CPUs) workers
  enumerators     the genpoly enumerators and the J-fraction convergent

Each round of a workload runs in a fresh interpreter (child.py), and a run
measures whole rounds until --seconds have passed.  With --trace 0 the run
prints the end-to-end metrics: the median over its rounds of wall_s, cpu_s
and peak_rss_mb, elements_per_s, and setup_s, the median over several
spawns of interpreter start, import and input building.  Times are rescaled
to a reference host speed by interleaved calibration samples (hostspeed.py);
the raw times are printed beside them.  With --trace 1 it
runs every workload once more with spans around the calls into each module,
plus single-layer probes, prints the per-layer metrics and writes the spans
to .perfbench-out/.  The inputs are exhaustive, so --seed changes nothing
but is recorded.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_CALIBRATE_IMPORT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("paper-check", "parallel-sweep", "enumerators")
SETUP_SPAWNS = 21
CHILD_TIMEOUT_S = 170.0
HASH_SEED = "0"

# per-layer metric -> (how, span names); "per_s" is elements per second,
# "us" microseconds per element, "ms" milliseconds per counted item and
# "s" summed seconds, all raw and less the host-speed samples inside a span
LAYER_SPANS = {
    "perm_core.iter_full_per_s": ("per_s", ["perm_core.iter_full"]),
    "perm_core.iter_ranged_per_s": ("per_s", ["perm_core.iter_ranged"]),
    "perm_core.iter_signed_per_s": ("per_s", ["perm_core.iter_signed"]),
    "perm_core.stats_us": ("us", ["perm_core.stats"]),
    "perm_core.inv_us": ("us", ["perm_core.inv"]),
    "perm_core.signed_stats_us": ("us", ["perm_core.signed_stats"]),
    "reduced_words.canonical_word_a_us": ("us", ["reduced_words.canonical_word_a"]),
    "reduced_words.canonical_word_b_us": ("us", ["reduced_words.canonical_word_b"]),
    "reduced_words.evaluate_word_us": ("us", ["reduced_words.evaluate_word"]),
    "involutions.involution_a_us": ("us", ["involutions.involution_a"]),
    "involutions.involution_b_us": ("us", ["involutions.involution_b"]),
    "laguerre.fz_history_us": ("us", ["laguerre.fz_history"]),
    "genpoly.mad_us": ("us", ["genpoly.mad"]),
    "genpoly.multipoly_mul_ms": ("ms", ["genpoly.multipoly_mul"]),
    "genpoly.jfraction_s": ("s", ["genpoly.jfraction"]),
    "genpoly.signed_trivariate_s": ("s", ["genpoly.signed_trivariate"]),
    "genpoly.signed_drops_B_s": ("s", ["genpoly.signed_drops_B"]),
    "genpoly.signed_drops_D_s": ("s", ["genpoly.signed_drops_D"]),
    "genpoly.drops_moments_A_s": ("s", ["genpoly.drops_moments_A"]),
    "genpoly.dep_inv_poly_s": ("s", ["genpoly.dep_inv_poly"]),
    "bruhat.build_matching_s": ("s", ["bruhat.build_matching"]),
    "bruhat.validate_matching_s": ("s", ["bruhat.validate_matching"]),
    "cli.verify_s": ("s", ["cli.verify"]),
}
for _claim, _group in (("thm1.1", "S"), ("thm1.3", "S"), ("cor1.4", "S"),
                       ("thm-typeB", "B"), ("thm-typeD", "D"), ("lemma7.2", "B"),
                       ("cfrac", "S"), ("mad", "S"), ("weights", "S"), ("shape", "S"),
                       ("moments", "S"), ("fz", "S")):
    LAYER_SPANS[f"verify.claim_s.{_claim}"] = ("s", [f"verify.claim.{_claim}.{_group}"])
for _group in ("S", "B"):
    LAYER_SPANS[f"verify.claim_s.invol.{_group}"] = ("s", [f"verify.claim.invol.{_group}"])
PARALLEL_CLAIMS = ("cor1.4", "thm-typeB", "thm-typeD")
for _claim in PARALLEL_CLAIMS:
    LAYER_SPANS[f"verify.serial_s.{_claim}"] = ("s", [f"verify.serial.{_claim}"])

UNITS = {"per_s": "1/s", "us": "us", "ms": "ms", "s": "s"}
# (seconds, count) -> value
CONVERT = {"per_s": lambda secs, count: count / secs,
           "us": lambda secs, count: secs / count * 1e6,
           "ms": lambda secs, count: secs / count * 1e3,
           "s": lambda secs, count: secs}
CALIBRATE = "bench.calibrate"


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(args: list[str]) -> tuple[float, dict]:
    """Start child.py with args; return the seconds until it printed
    ``ready`` and its JSON result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError(f"child {args} timed out after {CHILD_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise ChildError(f"child {args} exited {proc.returncode}")
    return ready, json.loads(rest.strip().splitlines()[-1])


def measure_setup(workload: str) -> tuple[float, float]:
    """Seconds from spawn to ``ready``: the median over SETUP_SPAWNS children,
    each rescaled by its own calibrate_import() time (see hostspeed.py), and
    the raw median."""
    spawn([workload, "--setup-only"])          # writes bytecode caches, untimed
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        ready, result = spawn([workload, "--setup-only"])
        raw.append(ready)
        scaled.append(ready * REF_CALIBRATE_IMPORT_S / result["calibrate_import_s"])
    return statistics.median(scaled), statistics.median(raw)


def run_untraced(workload: str, seconds: float) -> tuple[dict, dict, list[dict], list[str]]:
    setup_s, raw_setup_s = measure_setup(workload)
    rounds: list[dict] = []
    problems: list[str] = []
    measured = 0.0
    while not rounds or measured < seconds:
        args = [workload] + (["--reference"] if not rounds else [])
        _, result = spawn(args)
        if rounds and result["content"] != rounds[0]["content"]:
            problems.append(f"round {len(rounds) + 1} reports differ from round 1")
        rounds.append(result)
        problems += result["problems"]
        measured += result["wall_s"]          # seconds at the reference speed
    wall = statistics.median(r["wall_s"] for r in rounds)
    metrics = {
        "wall_s": (wall, "s"),
        "elements_per_s": (rounds[0]["elements"] / wall, "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {"raw_wall_s": statistics.median(r["raw_wall_s"] for r in rounds),
           "raw_cpu_s": statistics.median(r["raw_cpu_s"] for r in rounds),
           "raw_setup_s": raw_setup_s}
    return metrics, raw, rounds, problems


def self_seconds(span: dict, spans: list[dict]) -> float:
    """Duration less the host-speed samples that paused the work inside the span."""
    return span["end"] - span["start"] - sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == CALIBRATE and span["start"] <= s["start"] and s["end"] <= span["end"])


def layer_metrics(spans_by_child: dict[str, list[dict]], walls: dict[str, float]) -> dict:
    metrics = {}
    for metric, (how, names) in LAYER_SPANS.items():
        picked = [(s, spans) for spans in spans_by_child.values() for s in spans
                  if s["name"] in names]
        if not picked:
            raise ChildError(f"no span for {metric}")
        secs = sum(self_seconds(s, spans) for s, spans in picked)
        count = sum(s["count"] for s, _ in picked)
        metrics[metric] = (CONVERT[how](secs, count), UNITS[how])
    spans = [s for spans in spans_by_child.values() for s in spans]
    for claim in PARALLEL_CLAIMS:
        serial = metrics[f"verify.serial_s.{claim}"][0]
        parallel = sum(s["end"] - s["start"] for s in spans
                       if s["name"] == f"verify.parallel.{claim}")
        metrics[f"verify.speedup.{claim}"] = (serial / parallel, "x")
    for workload, wall in walls.items():
        metrics[f"trace.wall_s.{workload}"] = (wall, "s")
    return metrics


def run_traced(workload: str, seed: int) -> tuple[dict, dict, list[dict], list[str]]:
    """Every workload once with spans, then the probes."""
    rounds, problems, spans, walls = [], [], {}, {}
    for name in WORKLOADS + ("probes",):
        _, result = spawn([name, "--trace", "--reference"])
        rounds.append(result)
        problems += result["problems"]
        walls[name] = result["wall_s"]
        spans[name] = result["spans"]
    del walls["probes"]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    metrics = layer_metrics(spans, walls)
    # host speed during the traced run, relative to the reference (see hostspeed.py)
    metrics["host.speed"] = (statistics.fmean(r["speed"] for r in rounds), "x")
    return metrics, {}, rounds, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="coxdrops benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coxdrops" / "__init__.py").is_file():
        print(f"error: no coxdrops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, raw, rounds, problems = run_traced(args.workload, args.seed)
        else:
            metrics, raw, rounds, problems = run_untraced(args.workload, args.seconds)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    for name, value in raw.items():
        print(f"  ({name:<38} {value:14.6g} s, not rescaled)")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
