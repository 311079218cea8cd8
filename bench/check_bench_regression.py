#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh BENCH_sweep.json against the
committed baseline and fail on regression.

Two classes of check, with very different trust levels:

* Machine-independent metrics are gated strictly: graph arena
  bytes/contact (deterministic layout), success rates (deterministic
  seeds), the contended-traffic counts (messages offered, success, drop
  and expiry rates, evictions, budget blocks), and scenario coverage (a
  tier disappearing from a section is a regression even if everything
  left got faster). The fast-vs-oracle
  ratios are also machine-independent in the sense that both legs ran in
  the *same* process on the same machine — the fresh file alone must
  show the fast path no slower than the reference-simulator oracle
  (forward::simulate_reference: every step, every edge, per-run
  observation state), for Epidemic's word flood closure and for the
  non-flood schemes' holder-incident + shared-snapshot relay, on the
  city_2048-and-up tiers. Same for the
  resident-service gates: batch bit-identity and the served-vs-cold
  throughput ratio are properties of the fresh file alone.

* Wall-clock comparisons against the committed baseline are gated
  loosely (--wall-tolerance, default 1.5x): the baseline was produced on
  whatever machine last regenerated it, so only large multiples are
  signal. --skip-walls drops them entirely for known-incomparable
  machines.

Usage:
  check_bench_regression.py --fresh build/BENCH_sweep.json \
      --baseline BENCH_sweep.json [--wall-tolerance 1.5] [--skip-walls]

Exit status 0 = no regression, 1 = regression (failures listed on
stdout), 2 = bad invocation / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

# Fresh-file Epidemic gate: tiers at or above this node count must show
# mean oracle wall >= WORD_KERNEL_MARGIN x mean fast (word closure) wall
# for the flooding algorithm. Below it the kernels are within noise of each
# other and the gate would just flake.
WORD_KERNEL_MIN_NODES = 2048
WORD_KERNEL_MARGIN = 0.95

# Fresh-file non-flood fast-path gate: on tiers at or above this node
# count, the holder-incident + shared-snapshot fast path must be no
# slower than the reference-simulator oracle for every
# non-flooding algorithm that carries both wall columns. Same margin
# rationale as the word-kernel gate.
NONFLOOD_FAST_MIN_NODES = 2048
NONFLOOD_FAST_MARGIN = 0.95

# Deterministic metrics still pass through floating-point printing, so
# allow a hair of slack rather than demanding textual equality.
SUCCESS_RATE_TOLERANCE = 1e-6
BYTES_PER_CONTACT_TOLERANCE = 1.05

# Fresh-file resident-service gates: the served phase must beat the cold
# one-shot loop by this multiple (cold pays dataset + graph construction
# per request; the service pays it once — both measured in the same
# process, so machine noise largely cancels), and every served payload
# must be byte-identical to the one-shot reference. The cache hit rate is
# compared against the baseline with slack for one batching-window split
# (a split only ever ADDS hits, but the baseline itself may have recorded
# a lucky split).
SERVE_MIN_THROUGHPUT_RATIO = 5.0
SERVE_HIT_RATE_TOLERANCE = 0.05


def mean(values):
    return sum(values) / len(values) if values else 0.0


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot read {path}: {e}")
        sys.exit(2)


class Gate:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def coverage(self, section, baseline_keys, fresh_keys):
        for key in baseline_keys:
            self.check(
                key in fresh_keys,
                f"{section}: '{key}' present in baseline but missing from "
                f"fresh results (coverage regression)",
            )


def by_scenario(points):
    return {p["scenario"]: p for p in points}


def fast_walls(algo):
    # The fast column was named run_wall_seconds before the non-flood
    # fast path landed; accept either so old baselines stay readable.
    return algo.get("fast_run_wall_seconds") or algo.get("run_wall_seconds") or []


def check_node_scaling(gate, fresh, baseline, wall_tol):
    fresh_pts = by_scenario(fresh.get("node_scaling", []))
    base_pts = by_scenario(baseline.get("node_scaling", []))
    gate.coverage("node_scaling", base_pts, fresh_pts)

    for name, fp in fresh_pts.items():
        # Every fast path must beat (or at worst tie) its oracle re-run
        # on the large tiers — compared within the fresh file, so machine
        # noise between runs of the gate does not apply. For Epidemic
        # that is the word-parallel flood closure; for the non-flood
        # schemes it is holder-incident replay + shared observation
        # snapshots. The oracle is the reference simulator with per-run
        # observation state (the scalar_run_wall_seconds key).
        for algo in fp.get("algorithms", []):
            scalar = algo.get("scalar_run_wall_seconds", [])
            fast = fast_walls(algo)
            if not scalar or not fast:
                continue
            if (
                algo["name"] == "Epidemic"
                and fp.get("nodes", 0) >= WORD_KERNEL_MIN_NODES
            ):
                gate.check(
                    mean(scalar) >= WORD_KERNEL_MARGIN * mean(fast),
                    f"node_scaling/{name}: word-parallel Epidemic "
                    f"({mean(fast):.3f}s/run) slower than reference oracle "
                    f"({mean(scalar):.3f}s/run)",
                )
            elif (
                algo["name"] != "Epidemic"
                and fp.get("nodes", 0) >= NONFLOOD_FAST_MIN_NODES
            ):
                gate.check(
                    mean(scalar) >= NONFLOOD_FAST_MARGIN * mean(fast),
                    f"node_scaling/{name}: {algo['name']} fast path "
                    f"({mean(fast):.3f}s/run) slower than reference "
                    f"oracle ({mean(scalar):.3f}s/run)",
                )

        bp = base_pts.get(name)
        if bp is None:
            continue
        if bp.get("bytes_per_contact", 0) > 0 and fp.get("bytes_per_contact", 0) > 0:
            gate.check(
                fp["bytes_per_contact"]
                <= bp["bytes_per_contact"] * BYTES_PER_CONTACT_TOLERANCE,
                f"node_scaling/{name}: arena grew to "
                f"{fp['bytes_per_contact']:.1f} B/contact "
                f"(baseline {bp['bytes_per_contact']:.1f})",
            )
        base_algos = {a["name"]: a for a in bp.get("algorithms", [])}
        for algo in fp.get("algorithms", []):
            ba = base_algos.get(algo["name"])
            if ba is None:
                continue
            gate.check(
                abs(algo["success_rate"] - ba["success_rate"])
                <= SUCCESS_RATE_TOLERANCE,
                f"node_scaling/{name}/{algo['name']}: success rate changed "
                f"{ba['success_rate']} -> {algo['success_rate']} "
                f"(runs are seeded; this is a behavior change, not noise)",
            )
            if wall_tol is not None and fast_walls(ba):
                gate.check(
                    mean(fast_walls(algo))
                    <= mean(fast_walls(ba)) * wall_tol,
                    f"node_scaling/{name}/{algo['name']}: "
                    f"{mean(fast_walls(algo)):.3f}s/run vs baseline "
                    f"{mean(fast_walls(ba)):.3f}s/run "
                    f"(> {wall_tol}x)",
                )


def check_event_timeline(gate, fresh, baseline, wall_tol):
    fresh_pts = by_scenario(fresh.get("event_timeline", []))
    base_pts = by_scenario(baseline.get("event_timeline", []))
    gate.coverage("event_timeline", base_pts, fresh_pts)
    if wall_tol is None:
        return
    for name, fp in fresh_pts.items():
        bp = base_pts.get(name)
        if bp is None:
            continue
        base_algos = {a["name"]: a for a in bp.get("algorithms", [])}
        for algo in fp.get("algorithms", []):
            ba = base_algos.get(algo["name"])
            if ba is None or not ba.get("sparse_run_wall_seconds"):
                continue
            gate.check(
                mean(algo["sparse_run_wall_seconds"])
                <= mean(ba["sparse_run_wall_seconds"]) * wall_tol,
                f"event_timeline/{name}/{algo['name']}: sparse replay "
                f"{mean(algo['sparse_run_wall_seconds']):.3f}s/run vs "
                f"baseline {mean(ba['sparse_run_wall_seconds']):.3f}s/run "
                f"(> {wall_tol}x)",
            )


def check_path_explosion(gate, fresh, baseline, wall_tol):
    fresh_pts = by_scenario(fresh.get("path_explosion", []))
    base_pts = by_scenario(baseline.get("path_explosion", []))
    gate.coverage("path_explosion", base_pts, fresh_pts)
    if wall_tol is None:
        return
    for name, fp in fresh_pts.items():
        bp = base_pts.get(name)
        if bp is None or bp.get("sparse_wall_seconds", 0) <= 0:
            continue
        gate.check(
            fp["sparse_wall_seconds"] <= bp["sparse_wall_seconds"] * wall_tol,
            f"path_explosion/{name}: sparse enumeration "
            f"{fp['sparse_wall_seconds']:.3f}s vs baseline "
            f"{bp['sparse_wall_seconds']:.3f}s (> {wall_tol}x)",
        )


def check_model(gate, fresh, baseline, wall_tol):
    fresh_pts = by_scenario(fresh.get("model", []))
    base_pts = by_scenario(baseline.get("model", []))
    gate.coverage("model", base_pts, fresh_pts)
    if wall_tol is None:
        return
    for name, fp in fresh_pts.items():
        bp = base_pts.get(name)
        if bp is None:
            continue
        for metric in ("jump_events_per_sec", "mc_messages_per_sec"):
            if bp.get(metric, 0) <= 0:
                continue
            gate.check(
                fp.get(metric, 0) >= bp[metric] / wall_tol,
                f"model/{name}: {metric} {fp.get(metric, 0):.0f} vs "
                f"baseline {bp[metric]:.0f} (> {wall_tol}x slowdown)",
            )


def check_serve(gate, fresh, baseline, wall_tol):
    fresh_pts = by_scenario(fresh.get("serve", []))
    base_pts = by_scenario(baseline.get("serve", []))
    gate.coverage("serve", base_pts, fresh_pts)
    for name, fp in fresh_pts.items():
        gate.check(
            fp.get("batch_bit_identical") is True,
            f"serve/{name}: coalesced responses not bit-identical to the "
            f"one-shot reference (batching changed results)",
        )
        gate.check(
            fp.get("throughput_ratio", 0) >= SERVE_MIN_THROUGHPUT_RATIO,
            f"serve/{name}: resident service only "
            f"{fp.get('throughput_ratio', 0):.2f}x over cold one-shots "
            f"(floor {SERVE_MIN_THROUGHPUT_RATIO}x)",
        )
        bp = base_pts.get(name)
        if bp is None:
            continue
        gate.check(
            fp.get("cache_hit_rate", 0)
            >= bp.get("cache_hit_rate", 0) - SERVE_HIT_RATE_TOLERANCE,
            f"serve/{name}: cache hit rate fell "
            f"{bp.get('cache_hit_rate', 0):.3f} -> "
            f"{fp.get('cache_hit_rate', 0):.3f}",
        )
        if wall_tol is not None and bp.get("served_wall_seconds", 0) > 0:
            gate.check(
                fp.get("served_wall_seconds", 0)
                <= bp["served_wall_seconds"] * wall_tol,
                f"serve/{name}: served wall "
                f"{fp.get('served_wall_seconds', 0):.3f}s vs baseline "
                f"{bp['served_wall_seconds']:.3f}s (> {wall_tol}x)",
            )


def traffic_points(section):
    return {(p["scenario"], p["rate_multiplier"]): p for p in section}


def check_traffic(gate, fresh, baseline, wall_tol):
    fresh_pts = traffic_points(fresh.get("traffic", []))
    base_pts = traffic_points(baseline.get("traffic", []))
    gate.coverage(
        "traffic",
        [f"{s} x{m:g}" for s, m in base_pts],
        {f"{s} x{m:g}" for s, m in fresh_pts},
    )
    for key, fp in fresh_pts.items():
        bp = base_pts.get(key)
        if bp is None:
            continue
        name = f"traffic/{key[0]} x{key[1]:g}"
        # Seeded workloads under fixed limits: every count is a property
        # of the simulator, not of the machine.
        base_algos = {a["name"]: a for a in bp.get("algorithms", [])}
        for algo in fp.get("algorithms", []):
            ba = base_algos.get(algo["name"])
            if ba is None:
                continue
            for metric in ("messages_offered", "evictions", "budget_blocked"):
                gate.check(
                    algo.get(metric) == ba.get(metric),
                    f"{name}/{algo['name']}: {metric} changed "
                    f"{ba.get(metric)} -> {algo.get(metric)}",
                )
            for metric in ("success_rate", "drop_rate", "expiry_rate"):
                gate.check(
                    abs(algo.get(metric, 0) - ba.get(metric, 0))
                    <= SUCCESS_RATE_TOLERANCE,
                    f"{name}/{algo['name']}: {metric} changed "
                    f"{ba.get(metric)} -> {algo.get(metric)}",
                )
        if wall_tol is not None and bp.get("wall_seconds", 0) > 0:
            gate.check(
                fp.get("wall_seconds", 0) <= bp["wall_seconds"] * wall_tol,
                f"{name}: wall {fp.get('wall_seconds', 0):.3f}s vs baseline "
                f"{bp['wall_seconds']:.3f}s (> {wall_tol}x)",
            )


def check_sweep_matrix(gate, fresh, baseline, wall_tol):
    if wall_tol is None:
        return
    fresh_pts = {p["threads_requested"]: p for p in fresh.get("points", [])}
    base_pts = {p["threads_requested"]: p for p in baseline.get("points", [])}
    for threads, bp in base_pts.items():
        fp = fresh_pts.get(threads)
        if fp is None or bp.get("runs_per_sec", 0) <= 0:
            continue
        gate.check(
            fp.get("runs_per_sec", 0) >= bp["runs_per_sec"] / wall_tol,
            f"sweep_matrix/threads={threads}: "
            f"{fp.get('runs_per_sec', 0):.1f} runs/s vs baseline "
            f"{bp['runs_per_sec']:.1f} (> {wall_tol}x slowdown)",
        )


def main():
    parser = argparse.ArgumentParser(
        description="Fail on perf regression between two BENCH_sweep.json files"
    )
    parser.add_argument("--fresh", required=True, help="freshly generated JSON")
    parser.add_argument("--baseline", required=True, help="committed baseline")
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=1.5,
        help="allowed slowdown multiple for wall-clock comparisons "
        "(default 1.5; machine-independent checks are always strict)",
    )
    parser.add_argument(
        "--skip-walls",
        action="store_true",
        help="skip wall-clock comparisons entirely (incomparable machines)",
    )
    args = parser.parse_args()
    if args.wall_tolerance < 1.0:
        print("check_bench_regression: --wall-tolerance must be >= 1.0")
        sys.exit(2)

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    wall_tol = None if args.skip_walls else args.wall_tolerance

    gate = Gate()
    check_node_scaling(gate, fresh, baseline, wall_tol)
    check_event_timeline(gate, fresh, baseline, wall_tol)
    check_path_explosion(gate, fresh, baseline, wall_tol)
    check_model(gate, fresh, baseline, wall_tol)
    check_serve(gate, fresh, baseline, wall_tol)
    check_traffic(gate, fresh, baseline, wall_tol)
    check_sweep_matrix(gate, fresh, baseline, wall_tol)

    if gate.failures:
        print(f"PERF REGRESSION: {len(gate.failures)} of {gate.checks} "
              "checks failed")
        for failure in gate.failures:
            print(f"  FAIL {failure}")
        sys.exit(1)
    print(f"perf gate: {gate.checks} checks passed "
          f"({'walls skipped' if wall_tol is None else f'wall tolerance {wall_tol}x'})")


if __name__ == "__main__":
    main()
