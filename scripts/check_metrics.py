#!/usr/bin/env python3
"""Validate a Prometheus text exposition produced by `fdmld --mode=scrape`.

Checks, beyond line-level well-formedness:
  - every metric name matches the exposition grammar
    [a-zA-Z_:][a-zA-Z0-9_:]*, and label values are properly quoted;
  - every histogram (any *_bucket family) ends in a le="+Inf" bucket whose
    value equals the family's *_count, and bucket counts are cumulative
    (non-decreasing as le increases);
  - with --require-worker-ranks R1,R2,...: each listed rank reports at
    least one nonzero fdml_kernel_* series (live per-rank telemetry) and is
    not marked stale (fdml_rank_stale{rank="R"} == 0);
  - with --require-stale-ranks R1,...: each listed rank IS marked stale
    (the dead-worker drill);
  - with --advance-from EARLIER.prom: every counter-like series present in
    both scrapes is monotonic (never decreases), and at least one
    fdml_job_* progress series strictly advanced — a live run must move.

Usage: check_metrics.py SCRAPE.prom [--require-worker-ranks 2,3,4]
           [--require-stale-ranks 3] [--advance-from EARLIER.prom]
Exits 1 with a diagnostic on the first violated invariant.
"""
import argparse
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name{labels} value  |  name value
LINE_RE = re.compile(r"^([^\s{]+)(\{[^}]*\})?\s+(\S+)$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

# Prefixes whose series are counters by construction (summed deltas, task
# tallies) and must therefore never decrease between scrapes. The format
# itself cannot distinguish counters from gauges, so the check is an
# allowlist rather than "everything but the known gauges".
MONOTONIC_PREFIXES = (
    "fdml_kernel_",
    "fdml_worker_",
    "fdml_job_",
    "fdml_rank_frames",
    "fdml_rank_incarnations",
    "fdml_telemetry_frames_",
    "fdml_service_jobs_completed",
    "fdml_service_jobs_failed",
    "fdml_service_jobs_interrupted",
)
# Carve-outs within those prefixes that are not monotonic after all: phase
# flips between addition/rearrange, and best lnL legitimately *decreases*
# as taxa are added (each addition step evaluates more data).
NON_MONOTONIC = ("fdml_job_phase", "fdml_job_best_log_likelihood")


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def parse_value(raw, where):
    if raw == "+Inf":
        return float("inf")
    try:
        return float(raw)
    except ValueError:
        fail(f"{where}: unparseable sample value {raw!r}")


def parse_exposition(path):
    """-> dict mapping (name, frozenset(labels)) -> float value."""
    samples = {}
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        fail(f"cannot load {path}: {error}")
    for number, line in enumerate(lines, 1):
        where = f"{path}:{number}"
        if not line.strip() or line.startswith("#"):
            continue
        match = LINE_RE.match(line)
        if not match:
            fail(f"{where}: unparseable sample line {line!r}")
        name, raw_labels, raw_value = match.groups()
        if not NAME_RE.match(name):
            fail(f"{where}: invalid metric name {name!r}")
        labels = {}
        if raw_labels:
            body = raw_labels[1:-1]
            for label_match in LABEL_RE.finditer(body):
                labels[label_match.group(1)] = label_match.group(2)
            # Everything in the braces must be consumed by valid pairs.
            rebuilt = ",".join(
                f'{k}="{v}"' for k, v in
                ((m.group(1), m.group(2)) for m in LABEL_RE.finditer(body)))
            stripped = body.replace(" ", "")
            if rebuilt.replace(" ", "") != stripped:
                fail(f"{where}: malformed labels {raw_labels!r}")
        key = (name, frozenset(labels.items()))
        if key in samples:
            fail(f"{where}: duplicate series {name}{raw_labels or ''}")
        samples[key] = parse_value(raw_value, where)
    if not samples:
        fail(f"{path}: no samples")
    return samples


def check_histograms(samples):
    """Every *_bucket family: cumulative buckets, +Inf present == _count."""
    families = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        le = dict(labels).get("le")
        if le is None:
            fail(f"{name}: bucket series without le label")
        rest = frozenset(kv for kv in labels if kv[0] != "le")
        families.setdefault((name, rest), {})[le] = value
    for (name, rest), buckets in families.items():
        if "+Inf" not in buckets:
            fail(f"{name}{dict(rest)}: histogram without a +Inf bucket")
        finite = sorted(
            ((float(le), v) for le, v in buckets.items() if le != "+Inf"))
        previous = 0.0
        for le, value in finite:
            if value < previous:
                fail(f"{name}{dict(rest)}: bucket le={le} not cumulative")
            previous = value
        if buckets["+Inf"] < previous:
            fail(f"{name}{dict(rest)}: +Inf below the largest finite bucket")
        base = name[: -len("_bucket")]
        count = samples.get((base + "_count", rest))
        if count is not None and count != buckets["+Inf"]:
            fail(f"{base}: _count {count} != +Inf bucket {buckets['+Inf']}")
    return len(families)


def rank_of(labels):
    return dict(labels).get("rank")


def check_worker_ranks(samples, ranks):
    for rank in ranks:
        kernel = [
            value for (name, labels), value in samples.items()
            if name.startswith("fdml_kernel_") and rank_of(labels) == rank
            and not name.endswith(("_bucket", "_sum"))
        ]
        if not any(value > 0 for value in kernel):
            fail(f"rank {rank}: no nonzero fdml_kernel_* series "
                 f"({len(kernel)} seen)")
        stale = samples.get(("fdml_rank_stale", frozenset({("rank", rank)})))
        if stale is None:
            fail(f"rank {rank}: no fdml_rank_stale series")
        if stale != 0:
            fail(f"rank {rank}: marked stale in a scrape that requires it live")


def check_stale_ranks(samples, ranks):
    for rank in ranks:
        stale = samples.get(("fdml_rank_stale", frozenset({("rank", rank)})))
        if stale is None:
            fail(f"rank {rank}: no fdml_rank_stale series")
        if stale != 1:
            fail(f"rank {rank}: expected stale after the kill, got {stale}")


def check_advance(earlier, later):
    regressed = []
    for key, before in earlier.items():
        name = key[0]
        if not name.startswith(MONOTONIC_PREFIXES):
            continue
        if name.startswith(NON_MONOTONIC):
            continue
        after = later.get(key)
        if after is not None and after < before:
            regressed.append(f"{name}{dict(key[1])}: {before} -> {after}")
    if regressed:
        fail("counters regressed between scrapes:\n  " +
             "\n  ".join(regressed))

    progress = [
        key for key in later
        if key[0].startswith("fdml_job_")
        and not key[0].startswith(NON_MONOTONIC)
    ]
    if not progress:
        fail("later scrape has no fdml_job_* progress series")
    advanced = any(
        later[key] > earlier.get(key, 0) for key in progress)
    if not advanced:
        fail("no fdml_job_* series advanced between scrapes "
             "(is the run actually making progress?)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("scrape")
    parser.add_argument("--require-worker-ranks", default="")
    parser.add_argument("--require-stale-ranks", default="")
    parser.add_argument("--advance-from")
    args = parser.parse_args()

    samples = parse_exposition(args.scrape)
    histograms = check_histograms(samples)

    if args.require_worker_ranks:
        check_worker_ranks(samples, args.require_worker_ranks.split(","))
    if args.require_stale_ranks:
        check_stale_ranks(samples, args.require_stale_ranks.split(","))
    if args.advance_from:
        check_advance(parse_exposition(args.advance_from), samples)

    print(f"check_metrics: OK ({len(samples)} samples, "
          f"{histograms} histogram families)")


if __name__ == "__main__":
    main()
