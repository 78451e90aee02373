#!/usr/bin/env python3
"""Collects google-benchmark JSON outputs into one BENCH_<pr>.json.

Workflow (wired through bench_common.h):

    cmake -B build -S . -DLQDB_BUILD_BENCHMARKS=ON && cmake --build build -j
    mkdir -p bench-json
    for b in build/bench_e*; do LQDB_BENCH_JSON_DIR=bench-json "$b"; done
    tools/collect_bench.py --dir bench-json --pr 3        # -> BENCH_3.json

Pass --diff BENCH_<old>.json to also print a per-benchmark speedup table
(old real_time / new real_time) against an earlier snapshot, so a PR's
perf claim is one command:

    tools/collect_bench.py --dir bench-json --pr 5 --diff BENCH_3.json

Each bench binary writes `<binary>.json` into $LQDB_BENCH_JSON_DIR (the
standard --benchmark_out format). This script merges them, keyed by binary
name, keeping one shared context block (host, CPU, build flags) so the
perf trajectory across PRs can be diffed mechanically:

    {
      "context": { ... google-benchmark context of the first file ... },
      "suites": {
        "bench_e7_mapping_ablation": [ {"name": ..., "real_time": ...}, ... ],
        ...
      }
    }
"""

import argparse
import json
import os
import pathlib
import platform
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True,
                        help="directory holding <bench>.json files")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number; writes BENCH_<pr>.json")
    parser.add_argument("--out", default=None,
                        help="explicit output path (overrides --pr)")
    parser.add_argument("--diff", default=None, metavar="BASELINE",
                        help="earlier BENCH_<pr>.json to diff against; "
                             "prints a per-benchmark speedup table")
    parser.add_argument("--require-e11-hits", action="store_true",
                        help="fail unless the bench_e11 reuse rows report "
                             "nonzero cache hit rates (CI guard: a refactor "
                             "must not silently wedge the kernel memo or "
                             "result cache shut)")
    args = parser.parse_args()

    if args.out is None and args.pr is None:
        parser.error("pass --pr N or --out FILE")
    out_path = pathlib.Path(args.out or f"BENCH_{args.pr}.json")

    json_dir = pathlib.Path(args.dir)
    inputs = sorted(json_dir.glob("*.json"))
    if not inputs:
        print(f"no *.json files under {json_dir}", file=sys.stderr)
        return 1

    # Collection-host metadata alongside google-benchmark's own context:
    # the concurrency benches (bench_e9's session-scaling rows) only
    # compare meaningfully between hosts with the same core count, and
    # --diff checks exactly that.
    merged = {
        "context": None,
        "meta": {
            "hardware_concurrency": os.cpu_count(),
            "host": platform.node(),
            "platform": platform.platform(),
        },
        "suites": {},
    }
    for path in inputs:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            print(f"skipping {path}: {err}", file=sys.stderr)
            continue
        if merged["context"] is None:
            merged["context"] = data.get("context")
        merged["suites"][path.stem] = data.get("benchmarks", [])

    if not merged["suites"]:
        print("no parseable benchmark files", file=sys.stderr)
        return 1

    out_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    total = sum(len(v) for v in merged["suites"].values())
    print(f"wrote {out_path}: {len(merged['suites'])} suites, "
          f"{total} benchmark entries")

    print_exact_vs_batched(merged)
    print_e11_reuse(merged)
    if args.diff is not None:
        print_diff(pathlib.Path(args.diff), merged)
    if args.require_e11_hits and not e11_hits_ok(merged):
        return 1
    return 0


def snapshot_times(snapshot: dict) -> dict:
    """(suite, name) -> (real_time, time_unit) for every benchmark entry."""
    out = {}
    for suite, entries in snapshot.get("suites", {}).items():
        for entry in entries:
            name = entry.get("name")
            real = entry.get("real_time")
            if name is None or real is None:
                continue
            out[(suite, name)] = (real, entry.get("time_unit", "ns"))
    return out


def print_exact_vs_batched(merged: dict) -> None:
    """Pairs every ".../exact..." row with its ".../batched-exact..."
    partner (substring replacement "/exact" -> "/batched-exact") inside
    this snapshot and prints the compiled-plan speedup — the benches emit
    pairable names ("BM_TheoremOne/batched-exact" vs "BM_TheoremOne/exact")
    for exactly this.
    """
    times = snapshot_times(merged)
    pairs = []
    for (suite, name) in sorted(times):
        if "/exact" not in name:
            continue
        partner = (suite, name.replace("/exact", "/batched-exact", 1))
        if partner in times:
            pairs.append(((suite, name), times[(suite, name)], times[partner]))
    if not pairs:
        return

    rows = [("suite", "benchmark", "batched-exact", "exact", "speedup")]
    for (suite, name), (ex_t, ex_unit), (b_t, b_unit) in pairs:
        speedup = b_t / ex_t if ex_t > 0 and ex_unit == b_unit else None
        rows.append((suite, name,
                     f"{b_t:.3f} {b_unit}", f"{ex_t:.3f} {ex_unit}",
                     f"{speedup:.2f}x" if speedup is not None else "n/a"))
    widths = [max(len(row[col]) for row in rows) for col in range(5)]
    print("\nexact vs batched-exact within this snapshot "
          "(batched-exact/exact real_time; >1 means the compiled plan wins):")
    for row in rows:
        print("  " + "  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())


def e11_rows(merged: dict):
    """(reuse_entry, baseline_entry) pairs from the bench_e11 suite, matched
    by substring replacement "/reuse" -> "/baseline" (the bench emits
    pairable names per stream for exactly this)."""
    pairs = []
    for suite, entries in merged.get("suites", {}).items():
        if "bench_e11" not in suite:
            continue
        by_name = {e.get("name"): e for e in entries}
        for name, entry in sorted(by_name.items()):
            if name is None or "/reuse" not in name:
                continue
            partner = by_name.get(name.replace("/reuse", "/baseline"))
            if partner is not None:
                pairs.append((entry, partner))
    return pairs


def print_e11_reuse(merged: dict) -> None:
    """Prints the incremental-stream speedups: reuse (kernel memo + result
    cache) vs baseline per stream, with the reuse rows' hit-rate counters."""
    pairs = e11_rows(merged)
    if not pairs:
        return
    rows = [("benchmark", "baseline", "reuse", "speedup",
             "result_hit_rate", "memo_hit_rate")]
    for reuse, base in pairs:
        r_t, b_t = reuse.get("real_time"), base.get("real_time")
        unit = reuse.get("time_unit", "ns")
        ok = (r_t is not None and b_t is not None and r_t > 0
              and unit == base.get("time_unit", "ns"))
        rows.append((reuse["name"],
                     f"{b_t:.3f} {unit}" if b_t is not None else "n/a",
                     f"{r_t:.3f} {unit}" if r_t is not None else "n/a",
                     f"{b_t / r_t:.2f}x" if ok else "n/a",
                     f"{reuse.get('result_hit_rate', 0.0):.2f}",
                     f"{reuse.get('memo_hit_rate', 0.0):.2f}"))
    widths = [max(len(row[col]) for row in rows) for col in range(6)]
    print("\nincremental re-evaluation (bench_e11): baseline/reuse "
          "real_time; >1 means reuse wins:")
    for row in rows:
        print("  " + "  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())


def e11_hits_ok(merged: dict) -> bool:
    """--require-e11-hits: every e11 reuse row must show cache traffic —
    a result-cache hit rate (repeated/updates streams) or a kernel-memo hit
    rate (perturbed stream, which runs with the result cache off)."""
    pairs = e11_rows(merged)
    if not pairs:
        print("--require-e11-hits: no bench_e11 reuse/baseline pairs found",
              file=sys.stderr)
        return False
    ok = True
    for reuse, _ in pairs:
        hits = max(reuse.get("result_hit_rate", 0.0),
                   reuse.get("memo_hit_rate", 0.0))
        if hits <= 0.0:
            print(f"--require-e11-hits: {reuse['name']} reports zero cache "
                  f"hits (result_hit_rate and memo_hit_rate both 0)",
                  file=sys.stderr)
            ok = False
    return ok


def core_count(snapshot: dict):
    """The collection host's core count: our own meta block when present,
    else google-benchmark's context (older snapshots predate "meta")."""
    meta = snapshot.get("meta") or {}
    if meta.get("hardware_concurrency") is not None:
        return meta["hardware_concurrency"]
    context = snapshot.get("context") or {}
    return context.get("num_cpus")


def print_diff(baseline_path: pathlib.Path, merged: dict) -> None:
    """Prints old-vs-new real_time per benchmark shared with the baseline."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot diff against {baseline_path}: {err}", file=sys.stderr)
        return

    old_cores, new_cores = core_count(baseline), core_count(merged)
    if old_cores is not None and new_cores is not None \
            and old_cores != new_cores:
        print(f"WARNING: core-count mismatch: baseline {baseline_path} was "
              f"collected on {old_cores} cores, this snapshot on "
              f"{new_cores} — concurrency rows (session scaling, parallel "
              f"engines) are not comparable", file=sys.stderr)

    old = snapshot_times(baseline)
    new = snapshot_times(merged)
    shared = sorted(set(old) & set(new))
    if not shared:
        print(f"no shared benchmarks with {baseline_path}", file=sys.stderr)
        return

    rows = [("suite", "benchmark", "old", "new", "speedup")]
    for key in shared:
        old_t, old_unit = old[key]
        new_t, new_unit = new[key]
        speedup = old_t / new_t if new_t > 0 and old_unit == new_unit else None
        rows.append((key[0], key[1],
                     f"{old_t:.3f} {old_unit}", f"{new_t:.3f} {new_unit}",
                     f"{speedup:.2f}x" if speedup is not None else "n/a"))
    widths = [max(len(row[col]) for row in rows) for col in range(5)]
    print(f"\nspeedup vs {baseline_path} (old/new real_time; >1 is faster):")
    for row in rows:
        print("  " + "  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    # Rows that appear or disappear are part of the perf story (a renamed
    # benchmark silently resets its trajectory), so list them explicitly
    # instead of dropping them from the table.
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"  gone ({len(only_old)} rows in the baseline only):")
        for suite, name in only_old:
            old_t, old_unit = old[(suite, name)]
            print(f"    {suite}  {name}  was {old_t:.3f} {old_unit}")
    if only_new:
        print(f"  new ({len(only_new)} rows without a baseline):")
        for suite, name in only_new:
            new_t, new_unit = new[(suite, name)]
            print(f"    {suite}  {name}  at {new_t:.3f} {new_unit}")


if __name__ == "__main__":
    sys.exit(main())
