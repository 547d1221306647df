"""quasisat benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload robust_mix --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/quasisat` and
`corpus/`.  Every timed repeat runs in a fresh interpreter, so the
module caches of `quasisat.series` start cold as they do for a CLI user.
Repeats run one after another until `--seconds` have passed (at least
three).  Each output is checked against its label or exact reference.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced.  With `--trace 1` untraced and traced repeats
alternate; the metrics are the per-layer ones, and the tracing overhead
is traced minus untraced `wall_s`.  `--workload all` runs every
workload in turn and prints each one's table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Per-item verdicts,
certificates (exact `num/den`, recorded but not gated) and distance
enclosures go to `bench/results/`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (found through the path set above)
from tracing import SELF_TIMES  # noqa: E402

MIN_REPEATS = 3
IMPORT_SAMPLES = 9
CHILD_TIMEOUT_S = 150


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q: int):
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Repeat:
    """Runs one fresh-interpreter repeat of the worker."""

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs

    def __call__(self, trace: bool, timer: bool, spans: str | None = None) -> dict:
        request = {"src": str(ROOT / "src"), "jobs": self.jobs, "trace": trace,
                   "timer": timer, "spans": spans}
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout)


def _check(item, rec: dict) -> list[str]:
    """Why this output is wrong, or nothing when it is right."""
    problems = []
    if "error" in rec:
        problems.append(f"solve raised {rec['error']}")
    elif item.label == "UNKNOWN" and rec["outcome"] != "UNKNOWN":
        problems.append(f"non-robust sentence decided {rec['outcome']}")
    elif rec["outcome"] not in (item.label, "UNKNOWN"):
        problems.append(f"verdict {rec['outcome']} contradicts label {item.label}")
    if "distance_error" in rec:
        problems.append(f"distance raised {rec['distance_error']}")
    else:
        lo, hi = (Fraction(x) for x in rec["distance"])
        tol = workloads.DISTANCE_TOL
        if not lo <= item.distance_ref <= hi or hi - lo > tol:
            problems.append(f"distance [{lo}, {hi}] misses {item.distance_ref} "
                            f"or is wider than {tol}")
    return problems


def _layer_metrics(traces: list[dict], walls: list[float], plain_walls: list[float],
                   verdicts: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values: medians over the traced repeats.  Traced and
    untraced repeats alternate, so the overhead is the median difference
    of neighbours, which the host's drift affects least."""
    def med(fn):
        return _median([fn(t) for t in traces])

    def calls(name):
        return lambda t: t["calls"].get(name, 0)

    def self_s(*names):
        return lambda t: sum(t["self_s"].get(n, 0.0) for n in names)

    m = {}
    for metric, names in SELF_TIMES.items():
        m[metric] = med(self_s(*names))
    m["geometry.grid_cells"] = med(lambda t: t["counts"].get("geometry.grid_cells", 0))
    m["geometry.cells.yielded"] = med(lambda t: t["counts"].get("geometry.cells.yielded", 0))
    m["geometry.faces.yielded"] = med(lambda t: t["counts"].get("geometry.faces.yielded", 0))
    m["evaluation.eval_env.calls"] = med(calls("evaluation.eval_env"))
    m["evaluation.us_per_call"] = med(
        lambda t: 1e6 * t["total_s"].get("evaluation.eval_env", 0.0)
        / max(1, t["calls"].get("evaluation.eval_env", 0)))
    m["evaluation.zero_excluded_ratio"] = med(
        lambda t: t["counts"].get("evaluation.zero_excluded", 0)
        / max(1, t["calls"].get("evaluation.eval_env", 0)))
    m["evaluation.positive_lower_bound.calls"] = med(calls("evaluation.positive_lower_bound"))
    m["intervals.RatInterval.created"] = med(lambda t: t["created"])
    for f in ("sin", "cos", "exp", "sqrt", "pi"):
        m[f"series.{f}.calls"] = med(calls(f"series.{f}"))
    m["series.max_p"] = med(lambda t: t["max_p"])
    m["degree.calls"] = med(calls("degree"))
    for k in ("subdivisions", "failures", "zero"):
        m[f"degree.{k}"] = med(lambda t, k=k: t["counts"].get(f"degree.{k}", 0))
    m["solver.iterations"] = _median([sum(r.get("iterations", 0) for r in v) for v in verdicts])
    m["solver.complexes"] = _median([sum(r.get("complexes", 0) for r in v) for v in verdicts])
    m["solver.decided_ratio"] = _median(
        [sum(r.get("outcome") in ("TRUE", "FALSE") for r in v) / len(v) for v in verdicts])
    m["parser.parse.calls"] = med(calls("parser.parse"))
    m["parser.chars_per_s"] = med(
        lambda t: t["chars"] / max(1e-12, t["total_s"].get("parser.parse", 0.0)))
    m["distance.calls"] = med(calls("distance.distance_enclosure"))
    m["distance.eval_env.calls"] = med(calls("distance.eval_env"))
    m["trace.wall_s"] = _median(walls)
    m["trace.overhead_s"] = _median([t - p for t, p in zip(walls, plain_walls)])
    # what the reported self times leave out of the traced wall time:
    # the benchmark's own loop and the unreported spans
    reported = sum(m[k] for k in SELF_TIMES)
    m["trace.unattributed_s"] = _median(walls) - reported
    absent = sorted({a for t in traces for a in t["absent"]})
    return m, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    items = workloads.WORKLOADS[name](ROOT, seed)
    bad = workloads.self_check(items)
    if bad:
        raise ValueError(f"generated labels fail their self-check: {bad}")
    repeat = Repeat([it.job() for it in items])

    imports = [Repeat([])(False, False) for _ in range(IMPORT_SAMPLES)]

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_REPEATS or (trace and len(traced) < MIN_REPEATS)
           or time.perf_counter() < deadline):
        plain.append(repeat(False, timer=not trace))
        if trace:
            spans = str(results_dir / f"{stem}-spans.jsonl.gz") if not traced else None
            traced.append(repeat(True, timer=False, spans=spans))

    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for res in plain + traced:
        for item, rec in zip(items, res["items"]):
            attempted += 2  # the solve and the distance query
            found = _check(item, rec)
            if found:
                failed += len(found)
                problems.setdefault(item.id, found)

    def timings(suffix: str) -> dict:
        # per sentence the median over repeats first, so that a slow
        # moment of the host does not decide which sentence is the median
        solve = [_median([res["items"][i][f"solve{suffix}"] * 1e3 for res in plain])
                 for i in range(len(items))]
        dist = [_median([res["items"][i][f"distance{suffix}"] * 1e3 for res in plain])
                for i in range(len(items))]
        return {
            "setup_s": _median([r[f"import{suffix}"] for r in imports]),
            "wall_s": _median([r[f"wall{suffix}"] for r in plain]),
            "solve_p50_ms": _median(solve),
            "solve_p90_ms": _quantile(solve, 90),
            "distance_p50_ms": _median(dist),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
    # end-to-end times are calibrated (see worker.py); raw ones are kept
    # in the results file for comparison
    e2e, raw = timings("_cal_s"), timings("_s")
    per_item = f"{len(items)} sentences x {len(plain)} repeats"
    samples = {"setup_s": len(imports), "wall_s": len(plain), "solve_p50_ms": per_item,
               "solve_p90_ms": per_item, "distance_p50_ms": per_item,
               "peak_rss_mb": len(plain)}
    decided = [rec.get("outcome") in ("TRUE", "FALSE") for rec in plain[0]["items"]]
    unknown_items = [i for i, it in enumerate(items) if it.label == "UNKNOWN"]
    info = {
        "decided_ratio": sum(decided) / len(items),
        "decided_ratio_unknown_items": (
            sum(decided[i] for i in unknown_items) / len(unknown_items)
            if unknown_items else None),
        "failed_ratio": failed / attempted,
        "sentences": len(items),
        "repeats": len(plain),
    }

    layer, absent = {}, []
    if trace:
        layer, absent = _layer_metrics([r["trace"] for r in traced],
                                       [r["wall_s"] for r in traced],
                                       [r["wall_s"] for r in plain],
                                       [r["items"] for r in traced])

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "end_to_end": e2e, "end_to_end_raw": raw,
        "samples": samples, "chunk_s": [c for r in plain for c in r["chunks"]],
        "per_layer": layer, "absent_layers": absent, "info": info,
        "failed": failed, "attempted": attempted, "problems": problems,
        "items": [{"id": it.id, "family": it.family, "label": it.label, "text": it.text,
                   "budget": it.budget, "distance_ref": f"{it.distance_ref.numerator}/"
                   f"{it.distance_ref.denominator}",
                   **{k: v for k, v in rec.items() if k not in ("solve_s", "distance_s")}}
                  for it, rec in zip(items, plain[0]["items"])],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = (layer if trace else e2e).get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": units[m["name"]]}
    _print_table(name, seed, e2e, raw, samples, info, layer, absent, units, problems)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_table(name, seed, e2e, raw, samples, info, layer, absent, units, problems) -> None:
    print(f"== {name} (seed {seed}): {info['sentences']} sentences, "
          f"{info['repeats']} untraced repeats")
    if not layer:  # a traced run's untraced repeats go uncalibrated
        print("  end-to-end, calibrated (raw in brackets):")
        for k, v in e2e.items():
            print(f"  {k:<40} {v:>14.6g} {units.get(k, ''):<6} [{raw[k]:.6g}] (n={samples[k]})")
    print(f"  {'decided_ratio':<40} {info['decided_ratio']:>14.6g}")
    if info["decided_ratio_unknown_items"] is not None:
        print(f"  {'decided_ratio on UNKNOWN items':<40} "
              f"{info['decided_ratio_unknown_items']:>14.6g}")
    print(f"  {'failed_ratio':<40} {info['failed_ratio']:>14.6g}")
    for k, v in layer.items():
        print(f"  {k:<40} {v:>14.6g} {units.get(k, '')}")
    for a in absent:
        print(f"  absent layer: {a}")
    for item_id, found in problems.items():
        print(f"  FAILED {item_id}: {'; '.join(found)}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "quasisat" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"no quasisat checkout at {ROOT}: src/quasisat and corpus/ are needed",
              file=sys.stderr)
        return 2
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (names if args.workload == "all" else [args.workload]):
        got = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        summary["correct"] &= got["correct"]
        summary["attempted"] += got["attempted"]
        summary["failed"] += got["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + k: v for k, v in got["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
