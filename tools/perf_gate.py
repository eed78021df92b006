#!/usr/bin/env python3
"""Gate a bench run report against its checked-in baseline.

Usage:
  tools/perf_gate.py --baseline bench/baselines/perf_suite.json \
                     --current perf_report.json [--tolerance 0.15]

Two kinds of checks, matching what write_report() emits:

* ``scalars`` are key correctness results (error rates, sensor counts,
  bit-identity flags). They are compared for exact equality — the C++
  side serializes them with %.17g, which round-trips IEEE doubles, so
  any drift at all is a real numerical change and fails the gate.
  Scalars whose name matches a ``--fuzzy-scalar`` glob (repeatable) are
  instead tolerance-gated: |actual - expected| <= fuzzy-atol +
  fuzzy-rtol * |expected|. Use this for results that are legitimately
  run-to-run sensitive (e.g. iterative-solver outputs under different
  thread counts) while everything else stays byte-exact.

* ``timings_ms`` are wall-clock measurements. Raw wall time is
  machine-dependent, so each report carries ``calibration_ms`` (a fixed
  single-threaded arithmetic workload); the gate compares
  wall/calibration ratios and fails on a relative regression beyond
  --tolerance (default 15%). Speedups never fail. Timings whose baseline
  wall is under --min-wall-ms (default 20) are reported but not gated:
  at that scale scheduler noise dominates.

The resilience section is also watched: a run that needed retries,
fallbacks, or recollections where the baseline was clean fails the gate
(degraded runs must not silently become the new normal).

Exit status: 0 = within bounds, 1 = regression, 2 = usage/IO error.
"""

import argparse
import fnmatch
import json
import os
import sys


def regen_hint(baseline_path):
    """How to (re)create a baseline file, derived from its own name."""
    bench = os.path.splitext(os.path.basename(baseline_path))[0]
    return (f"  to regenerate it, run the bench with --report and commit "
            f"the result:\n"
            f"    build/bench/{bench} --quick --report {baseline_path}\n"
            f"  (see bench/baselines/README.md; the gate compares the "
            f"committed\n   baseline against each CI run's fresh report)")


def load(path, role, baseline_path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        if role == "baseline":
            print(f"perf_gate: baseline file does not exist: {path}\n"
                  f"{regen_hint(baseline_path)}", file=sys.stderr)
        else:
            print(f"perf_gate: current-run report does not exist: {path}\n"
                  f"  the bench probably failed before writing --report; "
                  f"re-run it with\n"
                  f"    --report {path}\n"
                  f"  and check its own output for the failure.",
                  file=sys.stderr)
        sys.exit(2)
    except OSError as e:
        print(f"perf_gate: cannot read {role} file {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"perf_gate: {role} file {path} is not valid JSON "
              f"(truncated or hand-edited?): {e}\n{regen_hint(baseline_path)}",
              file=sys.stderr)
        sys.exit(2)


def as_pairs(obj, section, role, path, baseline_path):
    if section not in obj:
        print(f"perf_gate: {role} file {path} has no \"{section}\" key — "
              f"it does not look like a write_report() artifact "
              f"(schema {obj.get('schema', 'absent')}).\n"
              f"{regen_hint(baseline_path)}", file=sys.stderr)
        sys.exit(2)
    pairs = obj[section]
    if not isinstance(pairs, dict):
        print(f"perf_gate: \"{section}\" in {path} is not an object\n"
              f"{regen_hint(baseline_path)}", file=sys.stderr)
        sys.exit(2)
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description="compare a bench --report JSON against its baseline")
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative wall-time regression "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--min-wall-ms", type=float, default=20.0,
                        help="baseline timings below this are not gated")
    parser.add_argument("--fuzzy-scalar", action="append", default=[],
                        metavar="GLOB",
                        help="scalar-name glob gated with a tolerance "
                             "instead of byte-exact equality (repeatable)")
    parser.add_argument("--fuzzy-rtol", type=float, default=0.10,
                        help="relative tolerance for --fuzzy-scalar matches "
                             "(default 0.10)")
    parser.add_argument("--fuzzy-atol", type=float, default=1e-6,
                        help="absolute tolerance for --fuzzy-scalar matches "
                             "(default 1e-6)")
    args = parser.parse_args()

    base = load(args.baseline, "baseline", args.baseline)
    cur = load(args.current, "current-run", args.baseline)
    failures = []

    bench = cur.get("bench", "?")
    if base.get("bench") != cur.get("bench"):
        failures.append(
            f"bench name mismatch: baseline={base.get('bench')} "
            f"current={cur.get('bench')}")

    # --- correctness scalars: exact equality --------------------------
    base_scalars = as_pairs(base, "scalars", "baseline", args.baseline,
                            args.baseline)
    cur_scalars = as_pairs(cur, "scalars", "current-run", args.current,
                           args.baseline)
    fuzzy_count = 0
    for name, expected in sorted(base_scalars.items()):
        if name not in cur_scalars:
            failures.append(f"scalar missing from current run: {name}")
            continue
        actual = cur_scalars[name]
        fuzzy = any(fnmatch.fnmatchcase(name, g) for g in args.fuzzy_scalar)
        if fuzzy:
            fuzzy_count += 1
            try:
                a, e = float(actual), float(expected)
            except (TypeError, ValueError):
                failures.append(
                    f"fuzzy scalar {name} is not numeric (baseline "
                    f"{expected!r}, current {actual!r})")
                continue
            bound = args.fuzzy_atol + args.fuzzy_rtol * abs(e)
            if abs(a - e) > bound:
                failures.append(
                    f"fuzzy scalar drift: {name} = {a!r}, baseline {e!r} "
                    f"(|diff| {abs(a - e):.3g} > {bound:.3g})")
        elif actual != expected:
            failures.append(
                f"scalar drift: {name} = {actual!r}, baseline {expected!r}")
    for name in sorted(set(cur_scalars) - set(base_scalars)):
        # New scalars are fine (the next baseline refresh picks them up)
        # but say so, to keep additions visible in CI logs.
        print(f"note: scalar not in baseline (ignored): {name}")

    # --- SIMD level: a note, never a failure ---------------------------
    # A run on another kernel dispatch level (a host without AVX-512, or
    # VMAP_SIMD=0) times other code; say so next to the timings it
    # explains. Baselines written before reports carried the level have
    # none.
    base_simd, cur_simd = base.get("simd"), cur.get("simd")
    if base_simd is None:
        print(f"note: [{bench}] the baseline does not record its SIMD level "
              f"(current run: {cur_simd or 'unreported'})")
    elif base_simd != cur_simd:
        print(f"note: [{bench}] SIMD level differs: baseline {base_simd}, "
              f"current run {cur_simd or 'unreported'}")

    # --- timings: calibration-normalized tolerance --------------------
    try:
        base_cal = float(base.get("calibration_ms", 0.0))
        cur_cal = float(cur.get("calibration_ms", 0.0))
    except (TypeError, ValueError):
        base_cal = cur_cal = 0.0
    if base_cal <= 0.0 or cur_cal <= 0.0:
        failures.append(
            f"missing/invalid calibration_ms in "
            f"{args.baseline if base_cal <= 0.0 else args.current} — "
            f"cannot normalize timings; regenerate the report "
            f"(write_report() always emits it)")
    else:
        speed = cur_cal / base_cal  # >1 = this machine is slower
        print(f"[{bench}] calibration: baseline {base_cal:.1f} ms, "
              f"current {cur_cal:.1f} ms (machine speed ratio {speed:.2f}x)")
        base_timings = as_pairs(base, "timings_ms", "baseline",
                                args.baseline, args.baseline)
        cur_timings = as_pairs(cur, "timings_ms", "current-run",
                               args.current, args.baseline)
        for name, base_ms in sorted(base_timings.items()):
            if name not in cur_timings:
                failures.append(f"timing missing from current run: {name}")
                continue
            try:
                cur_ms = float(cur_timings[name])
                base_ms = float(base_ms)
            except (TypeError, ValueError):
                failures.append(
                    f"timing {name} is not numeric (baseline "
                    f"{base_ms!r}, current {cur_timings[name]!r})")
                continue
            if base_ms < args.min_wall_ms:
                print(f"  {name}: {cur_ms:.1f} ms (baseline {base_ms:.1f} ms"
                      " — below gating floor, not checked)")
                continue
            ratio = (cur_ms / cur_cal) / (base_ms / base_cal)
            verdict = "ok"
            if ratio > 1.0 + args.tolerance:
                verdict = "REGRESSION"
                failures.append(
                    f"timing regression: {name} normalized ratio "
                    f"{ratio:.3f} > {1.0 + args.tolerance:.3f} "
                    f"({cur_ms:.1f} ms vs baseline {base_ms:.1f} ms)")
            print(f"  {name}: {cur_ms:.1f} ms vs {base_ms:.1f} ms "
                  f"(normalized {ratio:.2f}x) {verdict}")

    # --- resilience: no new degradation -------------------------------
    base_res = base.get("resilience", {})
    cur_res = cur.get("resilience", {})
    if base_res.get("clean", True) and not cur_res.get("clean", True):
        events = cur_res.get("events", [])
        failures.append(
            f"resilience degraded: baseline was clean, current run logged "
            f"{len(events)} event(s): " +
            "; ".join(e.get("detail", "?") for e in events[:3]))

    if failures:
        print(f"\nperf_gate FAILED for {bench}:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    exact = len(base_scalars) - fuzzy_count
    fuzzy_note = (f" ({fuzzy_count} tolerance-gated)" if fuzzy_count else "")
    print(f"\nperf_gate OK for {bench}: "
          f"{exact} scalars identical{fuzzy_note}, timings within "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
