#!/usr/bin/env python3
"""CI gate on the sparse LP kernel (DESIGN.md §12).

Reads BENCH_ilp.json and fails the build if the kernel's contract broke:

1. Every `lp` row must carry the kernel instrumentation — `pivots`,
   `nnz_density`, `time_ms`, `dense_time_ms`, `speedup_vs_dense_x`,
   `fill_in`, and the pricing split (`dantzig_pivots`, `bland_pivots`,
   `bland_fallbacks`). Missing fields mean the instrumentation layer was
   disconnected from the bench, which makes any future kernel regression
   unattributable from CI logs alone.

2. Every row that carries `verdicts_identical` must have it true — the
   sparse kernel and the dense-Bland reference (and the warm-ablation runs
   in the `consistency` section) must agree on every verdict. A kernel
   that got faster by answering differently is a correctness bug, not a
   win.

3. The GATE_ROW (`lp:catalog-14`, the largest cold-LP case) must show the
   sparse kernel no slower than the dense reference:
   time_ms <= dense_time_ms * (1 + GRACE). The sparse kernel exists to be
   faster; this floor only catches it becoming *slower*, with 5% grace for
   timer noise on busy runners. The full ≥2x speedup claim lives in the
   committed BENCH_ilp.json and the README table, not in a hard CI gate —
   shared runners are too noisy to enforce a multiple.

4. With --baseline, every non-timing column of every `lp`, `consistency`
   and `search` row must equal the committed BENCH_ilp.json's: pivots,
   the pricing split, fill-in, density, fast-lane and arithmetic-tier
   counters, and the search's nodes, cuts and warm starts. Those counters
   are exact and deterministic (the same search makes the same pivots in
   any build type), so there is no noise band: a kernel change that is
   meant to be faster, not different, must leave every one of them alone.
   Timing columns (`*_ms`, and the `*_x` ratios of timings) are skipped.

Usage: lp_kernel_gate.py [BENCH_ilp.json] [--baseline COMMITTED_BENCH_ilp.json]
"""

import json
import sys

GATE_ROW = "catalog-14"
GRACE = 0.05

LP_FIELDS = (
    "pivots",
    "dantzig_pivots",
    "bland_pivots",
    "bland_fallbacks",
    "nnz_density",
    "fill_in",
    "time_ms",
    "dense_time_ms",
    "speedup_vs_dense_x",
)


BASELINE_SECTIONS = ("lp", "consistency", "search")


def is_timing(column: str) -> bool:
    return column.endswith("_ms") or column.endswith("_x")


def counter_rows(report: dict) -> dict:
    return {
        (r.get("section"), r.get("dtd")): r
        for r in report.get("rows", [])
        if r.get("section") in BASELINE_SECTIONS
    }


def check_baseline(report: dict, baseline_path: str) -> int:
    """Fails on any non-timing difference from the committed rows."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    now = counter_rows(report)
    then = counter_rows(baseline)
    status = 0
    for key in sorted(set(now) | set(then), key=str):
        name = f"{key[0]}:{key[1]}"
        if key not in then or key not in now:
            where = "the committed baseline" if key not in then else "this run"
            print(f"FAIL: {name} is missing from {where}", file=sys.stderr)
            status = 1
            continue
        columns = set(now[key]) | set(then[key])
        for column in sorted(c for c in columns if not is_timing(c)):
            if now[key].get(column) != then[key].get(column):
                print(
                    f"FAIL: {name} {column} = {now[key].get(column)!r}, "
                    f"committed {then[key].get(column)!r} — the search or "
                    "the kernel's arithmetic changed, not only its speed.",
                    file=sys.stderr,
                )
                status = 1
    if status == 0:
        print(
            f"OK: {len(now)} lp/consistency/search rows match the counters "
            f"of {baseline_path}"
        )
    return status


def main() -> int:
    args = sys.argv[1:]
    baseline_path = None
    if "--baseline" in args:
        at = args.index("--baseline")
        if at + 1 >= len(args):
            print("error: --baseline needs a path", file=sys.stderr)
            return 2
        baseline_path = args[at + 1]
        del args[at : at + 2]
    path = args[0] if args else "BENCH_ilp.json"
    with open(path) as fh:
        report = json.load(fh)
    rows = report.get("rows", [])
    lp_rows = {r["dtd"]: r for r in rows if r.get("section") == "lp"}
    if not lp_rows:
        print(
            f"error: {path} has no `lp` rows — bench_ilp's cold-LP section "
            "didn't run",
            file=sys.stderr,
        )
        return 2

    status = 0
    for name in sorted(lp_rows):
        row = lp_rows[name]
        missing = [f for f in LP_FIELDS if f not in row]
        if missing:
            print(
                f"FAIL: lp:{name} is missing kernel fields {missing} — the "
                "sparse-kernel instrumentation is disconnected from the "
                "bench.",
                file=sys.stderr,
            )
            status = 1
            continue
        print(
            f"  lp:{name}: sparse {row['time_ms']:.3f} ms vs dense "
            f"{row['dense_time_ms']:.3f} ms "
            f"({row['speedup_vs_dense_x']:.2f}x), {row['pivots']} pivots "
            f"({row['dantzig_pivots']} dantzig / {row['bland_pivots']} "
            f"bland, {row['bland_fallbacks']} fallbacks), density "
            f"{row['nnz_density']:.4f}, fill-in {row['fill_in']}"
        )

    for row in rows:
        if row.get("verdicts_identical") is False:
            section = row.get("section", "?")
            name = row.get("dtd", "?")
            print(
                f"FAIL: {section}:{name} has verdicts_identical=false — the "
                "sparse kernel answered differently from its reference; "
                "that is a correctness bug, not a performance result.",
                file=sys.stderr,
            )
            status = 1

    gate = lp_rows.get(GATE_ROW)
    if gate is None:
        print(
            f"error: {path} has no lp:{GATE_ROW} row (found: "
            f"{sorted(lp_rows)})",
            file=sys.stderr,
        )
        return 2
    if status:
        return status

    sparse = gate["time_ms"]
    dense = gate["dense_time_ms"]
    limit = dense * (1.0 + GRACE)
    if sparse > limit:
        print(
            f"FAIL: lp:{GATE_ROW} sparse kernel took {sparse:.3f} ms vs "
            f"{dense:.3f} ms dense (limit {limit:.3f} with {GRACE:.0%} "
            "grace) — the sparse kernel is SLOWER than the dense reference "
            "it replaced; check nnz_density (a dense system defeats support "
            "tracking) and fill_in (pivoting may have densified the "
            "tableau).",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: lp:{GATE_ROW} sparse {sparse:.3f} ms <= dense {dense:.3f} ms "
        f"* {1.0 + GRACE} ({gate['speedup_vs_dense_x']:.2f}x speedup); all "
        "verdicts identical"
    )
    if baseline_path is not None:
        return check_baseline(report, baseline_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
