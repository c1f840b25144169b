#!/usr/bin/env python3
"""Perf regression gate: diff fresh bench JSON against a committed baseline.

Usage:
    check_bench_regression.py query   <baseline.json> <current.json>
    check_bench_regression.py explore <baseline.json> <current.json>

The committed baselines live in ci/bench_baselines/ and are refreshed
deliberately, in the same PR as the change that moves them — the gate
exists to make a perf regression a red CI leg instead of an anecdote.

Two knobs, both env-tunable because CI runners are noisy:

    BENCH_TOLERANCE   relative slack on wall-clock ratios (default 0.40:
                      a wall may grow up to 40% over baseline before the
                      gate trips — wide enough for shared-runner jitter,
                      narrow enough to catch a lost optimisation)
    BENCH_MIN_WALL_S  walls below this (default 0.5 s) are noise-dominated
                      and exempt from the ratio check entirely

Counts (states, transitions, hit rates) are *not* given slack: they are
deterministic, so any drift is a correctness change that must be
accompanied by a baseline update in the same commit.

The query gate also compares two walls of the *same* run: a warm query
may cost at most WARM_SHARE (5%) of one graph build. A ratio taken
within one run does not drift with the runner the way walls do, and it
still binds once the warm wall is far below the noise floor, where the
baseline ratio check above skips it.
"""

import json
import os
import sys

TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.40"))
MIN_WALL_S = float(os.environ.get("BENCH_MIN_WALL_S", "0.5"))
WARM_SHARE = 0.05

failures = []
checks = 0


def check(label, ok, detail):
    global checks
    checks += 1
    if not ok:
        failures.append(f"  FAIL {label}: {detail}")
    else:
        print(f"  ok   {label}: {detail}")


def wall_ratio(label, base, cur):
    """Ratio check with slack; tiny baselines are exempt (pure noise)."""
    if base < MIN_WALL_S:
        print(f"  skip {label}: baseline {base:.3f}s < {MIN_WALL_S}s floor")
        return
    ratio = cur / base
    check(
        label,
        ratio <= 1.0 + TOLERANCE,
        f"{cur:.2f}s vs baseline {base:.2f}s (x{ratio:.2f}, limit x{1.0 + TOLERANCE:.2f})",
    )


def gate_query(base, cur):
    for suite in sorted(base):
        b, c = base[suite], cur.get(suite)
        if c is None:
            check(f"{suite}", False, "suite missing from current run")
            continue
        wall_ratio(f"{suite}.build_wall_s", b["build_wall_s"], c["build_wall_s"])
        wall_ratio(f"{suite}.warm_wall_s", b["warm_wall_s"], c["warm_wall_s"])
        # The warm pass must stay pure cache hits — a hit-rate drop means
        # a key regression, not a slowdown, and gets zero slack.
        check(
            f"{suite}.warm_hit_rate",
            c["warm_hit_rate"] >= 1.0,
            f"{c['warm_hit_rate']:.4f}",
        )
        # A warm query is a store traversal: it must stay a small
        # fraction of one build of the graph it traverses, both
        # measured in this run.
        builds = c["graph_builds"]
        per_build = c["build_wall_s"] / builds if builds else 0.0
        share = c["warm_per_query_s"] / per_build if per_build else float("inf")
        check(
            f"{suite}.warm_vs_build",
            share <= WARM_SHARE,
            f"{c['warm_per_query_s'] * 1e3:.2f}ms per warm query is {share:.1%} "
            f"of {per_build:.3f}s per build (limit {WARM_SHARE:.0%})",
        )
        # Pin the cold-vs-legacy inversion fixed: a cold build-and-query
        # pass must not cost more than re-exploring per query did.
        if b["legacy_wall_s"] >= MIN_WALL_S:
            check(
                f"{suite}.cold_vs_legacy",
                c["cold_wall_s"] <= c["legacy_wall_s"] * (1.0 + TOLERANCE),
                f"cold {c['cold_wall_s']:.2f}s vs legacy {c['legacy_wall_s']:.2f}s",
            )


def gate_explore(base, cur):
    cur_by_key = {(row["n"], row["stack"]): row for row in cur}
    for b in base:
        key = (b["n"], b["stack"])
        c = cur_by_key.get(key)
        label = f"n={key[0]} {key[1]}"
        if c is None:
            check(label, False, "row missing from current run")
            continue
        # The reduction stack is deterministic: state/transition counts
        # and truncation verdicts must match the baseline exactly.
        for field in ("states", "transitions", "truncated"):
            check(
                f"{label}.{field}",
                c[field] == b[field],
                f"{c[field]} vs baseline {b[field]}",
            )
        wall_ratio(f"{label}.wall_s", b["wall_s"], c["wall_s"])


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("query", "explore"):
        sys.exit(__doc__)
    kind, base_path, cur_path = sys.argv[1:4]
    with open(base_path) as f:
        base = json.load(f)
    with open(cur_path) as f:
        cur = json.load(f)
    print(
        f"bench gate [{kind}] tolerance +{TOLERANCE:.0%}, "
        f"noise floor {MIN_WALL_S}s"
    )
    (gate_query if kind == "query" else gate_explore)(base, cur)
    if failures:
        print(f"\n{len(failures)}/{checks} checks FAILED:")
        print("\n".join(failures))
        print(
            "\nIf this movement is intended, refresh ci/bench_baselines/ "
            "in the same commit and say why in the message."
        )
        sys.exit(1)
    print(f"\nall {checks} checks passed")


if __name__ == "__main__":
    main()
