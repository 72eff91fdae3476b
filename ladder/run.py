#!/usr/bin/env python3
"""The repository benchmark: builds ladder_bench, runs one workload, checks
every answer against references.json and prints the metrics.

    python3 ladder/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details (sample counts, the tail percentile, host facts, and with
--trace 1 the reconciliation checks and the Chrome trace path).

Maintenance modes:
    --make-references   recompute references.json with the serial runner
    --check-references  recompute the references twice, under FDML_SIMD=scalar
                        and under the active backend, and compare both with
                        the committed file (the exact-tier contract)
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial-f84", "cluster-dispatch", "service-jobs")
REFERENCES = os.path.join(HERE, "references.json")
# Percentiles the tail may be read at; the highest with >= 10 samples beyond.
TAIL_LADDER = (50, 75, 90, 95, 99)
RUN_TIMEOUT_S = 170
# search.driver_s + search.round_s of each traced search must reconstruct
# the untraced search of the same seed, run just before it, to within this
# share (median over the pairs). Back-to-back runs of one search differ by
# up to ~20 % on a shared VM, so the check catches broken accounting, not
# tracer overhead; obs.trace_overhead reports that.
RECONCILE_TOLERANCE = 0.25


def log(message):
    print(f"ladder: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build():
    """Configures and builds ladder_bench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "ladder_bench", "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "ladder_bench")


def run_binary(command, env=None):
    result = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                            timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(result.stdout)


def cpu_steal():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; falls back to the maximum with fewer than 20."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100, ordered[-1]) if ordered else (100, 0.0)
    for p in TAIL_LADDER:
        index = -(-p * n // 100) - 1  # nearest-rank percentile
        if n - (index + 1) >= 10:
            best = (p, ordered[index])
    return best


def judge(doc, references):
    """Counts the samples whose answer differs from the reference."""
    refs = references[doc["workload"]]["references"]
    failed = 0
    for sample in doc["samples"]:
        ref = refs.get(str(sample["seed"]))
        ok = (sample["status"] == "done" and ref is not None
              and sample["newick"] == ref["newick"]
              and sample["lnl_bits"] == ref["lnl_bits"]
              and sample["trees_evaluated"] in (-1, ref["trees_evaluated"]))
        if not ok:
            failed += 1
            log(f"mismatch: seed {sample['seed']} status {sample['status']}")
    return failed


def end_to_end(doc, failed):
    measured = [s for s in doc["samples"] if not s["warmup"]]
    done = [s for s in measured if s["status"] == "done"]
    walls = [s["wall_s"] for s in done]
    service = doc["workload"] == "service-jobs"
    cpu = (doc["window_cpu_s"] / max(len(done), 1) if service
           else median([s["cpu_s"] for s in done]))
    percentile, tail_s = tail(walls)
    attempted = len(doc["samples"])
    metrics = {
        "search_s": (median(walls), "s"),
        "cpu_s": (cpu, "s"),
        "jobs_per_s": (len(done) / doc["window_s"], "1/s"),
        "job_p50_s": (median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (median(doc["setup_s"]), "s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    detail = {"samples": len(measured), "job_tail_percentile": percentile,
              "setup_count": len(doc["setup_s"])}
    return metrics, detail


def per_layer(doc, spec):
    layers = doc["layers"]
    metrics = {}
    for entry in spec["per_layer"]:
        # Layers a workload bypasses report 0 (see ladder/README.md).
        metrics[entry["name"]] = (layers.get(entry["name"], 0.0), entry["unit"])
    return metrics


def reconcile(doc):
    """The ladder's own consistency checks (see test_ladder.py)."""
    checks = doc["checks"]
    out = {}
    if "search.paired_ratio" in checks:
        ratio = checks["search.paired_ratio"]
        out["driver_plus_round_ratio"] = ratio
        out["driver_plus_round_matches_search"] = (
            abs(ratio - 1.0) <= RECONCILE_TOLERANCE)
    out["task_bytes_match_wire_bytes"] = (
        checks["replay.stat_bytes"] == checks["replay.wire_bytes"])
    out["replay_best_matches"] = checks["replay.best_mismatches"] == 0
    if "jobs.attempted" in checks:
        out["jobs_accounted"] = checks["jobs.attempted"] == (
            checks["jobs.completed"] + checks["jobs.failed"]
            + checks["jobs.rejected"] + checks["jobs.interrupted"]
        ) == checks["scheduler.submitted"]
        out["scheduler_accounted"] = all(
            checks[f"scheduler.{k}"] == checks[f"jobs.{k}"]
            for k in ("completed", "failed", "interrupted")
        ) and checks["scheduler.in_flight"] == 0
    return out


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(REFERENCES) as handle:
        references = json.load(handle)
    binary = build()
    work = os.path.join(build_dir(), f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    command = [binary, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", work]
    trace_path = os.path.join(build_dir(), f"trace-{args.workload}.json")
    if args.trace:
        command += ["--trace-out", trace_path]
    steal0 = cpu_steal()
    try:
        doc = run_binary(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1 = cpu_steal()

    failed = judge(doc, references)
    attempted = len(doc["samples"])
    detail = {"workload": args.workload, "host": doc["host"],
              "shape": doc["shape"]}
    if steal0 and steal1 and steal1[1] > steal0[1]:
        detail["host"]["steal_frac"] = (
            (steal1[0] - steal0[0]) / (steal1[1] - steal0[1]))
    if args.trace:
        metrics = per_layer(doc, spec)
        detail["checks"] = reconcile(doc)
        detail["trace"] = trace_path
    else:
        metrics, extra = end_to_end(doc, failed)
        detail.update(extra)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def compute_references(binary, env=None):
    refs = {}
    for workload in WORKLOADS:
        doc = run_binary([binary, "reference", "--workload", workload], env)
        refs[workload] = {"references": doc["references"]}
        log(f"{workload}: {len(doc['references'])} references "
            f"({doc['simd_backend']})")
    return refs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true")
    parser.add_argument("--check-references", action="store_true")
    args = parser.parse_args()

    if args.make_references:
        refs = compute_references(build())
        with open(REFERENCES, "w") as handle:
            json.dump(refs, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    if args.check_references:
        binary = build()
        with open(REFERENCES) as handle:
            committed = json.load(handle)
        scalar = compute_references(binary, dict(os.environ, FDML_SIMD="scalar"))
        active = compute_references(binary)
        same = scalar == committed and active == committed
        print(json.dumps({"scalar_matches": scalar == committed,
                          "active_matches": active == committed}))
        return 0 if same else 1
    if args.workload is None:
        parser.error("--workload is required")
    run_workload(args)
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
