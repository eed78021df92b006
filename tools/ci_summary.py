#!/usr/bin/env python3
"""Render a CI job's results as a GitHub step-summary markdown table.

Usage:
  tools/ci_summary.py --title "build-test (gcc, Release)" \
      [--ctest-log ctest.log] \
      [--report report.json ...] [--baselines-dir bench/baselines] \
      >> "$GITHUB_STEP_SUMMARY"

Three sections, each emitted only when its input is present:

* ``--ctest-log``: the tier-1 test tally, parsed from ctest's
  "N% tests passed, X tests failed out of Y" trailer (plus the names of
  any failed tests).
* ``--report`` (repeatable): one row per bench timing — wall time, the
  checked-in baseline's wall time, and the calibration-normalized ratio
  (wall/calibration vs baseline wall/calibration, the same number
  tools/perf_gate.py gates on). Baselines are looked up as
  <baselines-dir>/<bench>.json; a missing baseline just drops the
  comparison columns. Report tags (backend names etc.) are shown next
  to the bench name so ablation rows are self-describing. A line under
  the name gives the calibration ratio, the SIMD level and the run's
  peak RSS (`peak_rss_mb`, reported, not gated). Reports whose
  metrics snapshot holds group-lasso solves also get one line with the
  `gl.cap_hits` count, the `gl.sweeps` and `gl.working_sets` totals and
  the largest final `gl.duality_gap` (the upper edge of its highest
  non-empty bucket); any cap hit is flagged.

Always exits 0 — the summary must never fail a job; gating is
perf_gate's business. Unreadable inputs degrade to a note in the output.
"""

import argparse
import json
import os
import re
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"> :warning: cannot read `{path}`: {e}")
        print()
        return None


def ctest_section(path):
    try:
        with open(path) as f:
            log = f.read()
    except OSError as e:
        print(f"> :warning: cannot read ctest log `{path}`: {e}")
        print()
        return
    m = re.search(r"(\d+)% tests passed, (\d+) tests failed out of (\d+)",
                  log)
    if not m:
        print(f"> :warning: no ctest tally found in `{path}`")
        print()
        return
    pct, failed, total = m.group(1), int(m.group(2)), int(m.group(3))
    passed = total - failed
    icon = ":white_check_mark:" if failed == 0 else ":x:"
    print(f"**Tier-1 tests:** {icon} {passed}/{total} passed ({pct}%)")
    if failed:
        names = re.findall(r"\*\*\*Failed.*?- (\S+)", log) or \
            re.findall(r"\d+ - (\S+) \(Failed\)", log)
        if names:
            print()
            for n in names:
                print(f"- :x: `{n}`")
    print()


def fmt_ms(ms):
    return f"{ms / 1e3:.2f} s" if ms >= 1e3 else f"{ms:.1f} ms"


def tags_of(report):
    tags = report.get("tags", {})
    if not isinstance(tags, dict) or not tags:
        return ""
    return " " + " ".join(f"`{k}={v}`" for k, v in sorted(tags.items()))


def largest_bucket(hist):
    """Upper edge of the highest non-empty bucket, as display text."""
    buckets = hist.get("buckets", []) if isinstance(hist, dict) else []
    finite = [b.get("le") for b in buckets
              if isinstance(b.get("le"), (int, float))]
    for b in reversed(buckets):
        if not b.get("count"):
            continue
        edge = b.get("le")
        if isinstance(edge, (int, float)):
            return f"≤ {edge:.0e}"
        return f"> {finite[-1]:.0e}" if finite else "unbounded"
    return None


def gl_section(report):
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        return
    counters = metrics.get("counters") or {}
    solves = int(counters.get("gl.penalized_solves", 0) or 0)
    if solves == 0:
        return
    if "gl.cap_hits" not in counters:
        print(f"**Group lasso:** {solves} penalized solves; cap hits not "
              f"recorded")
        print()
        return
    cap_hits = int(counters["gl.cap_hits"] or 0)
    gap = largest_bucket((metrics.get("histograms") or {})
                         .get("gl.duality_gap"))
    icon = ":white_check_mark:" if cap_hits == 0 else ":x:"
    line = (f"**Group lasso:** {icon} {cap_hits} cap hit(s) in {solves} "
            f"penalized solves")
    effort = [f"{int(counters[name] or 0)} {label}"
              for name, label in (("gl.sweeps", "sweeps"),
                                  ("gl.working_sets", "working sets"))
              if name in counters]
    if effort:
        line += f" ({', '.join(effort)})"
    if gap:
        line += f"; largest final duality gap {gap}"
    print(line)
    print()
    if cap_hits:
        print(f"> :warning: {cap_hits} group-lasso solve(s) stopped at the "
              f"sweep cap before their duality gap met the tolerance")
        print()


def report_section(path, baselines_dir):
    report = load_json(path)
    if report is None:
        return
    bench = report.get("bench", os.path.basename(path))
    base = None
    base_path = os.path.join(baselines_dir, f"{bench}.json")
    if os.path.exists(base_path):
        base = load_json(base_path)

    print(f"**Bench `{bench}`**{tags_of(report)}")
    print()
    cal = float(report.get("calibration_ms", 0.0) or 0.0)
    base_cal = float((base or {}).get("calibration_ms", 0.0) or 0.0)
    simd = f"SIMD level `{report.get('simd', 'unreported')}`"
    peak = report.get("peak_rss_mb")
    if isinstance(peak, (int, float)):
        simd += f", peak RSS {peak:.1f} MB"
    if base_cal > 0 and cal > 0:
        print(f"calibration {cal:.1f} ms vs baseline {base_cal:.1f} ms "
              f"(machine speed ratio {cal / base_cal:.2f}x), {simd}")
    else:
        print(simd)
    print()

    timings = report.get("timings_ms", {})
    if not isinstance(timings, dict) or not timings:
        print("_no timings in report_")
        print()
        return
    base_timings = (base or {}).get("timings_ms", {})
    if not isinstance(base_timings, dict):
        base_timings = {}

    have_base = base_cal > 0 and cal > 0 and base_timings
    if have_base:
        print("| timing | wall | baseline | normalized |")
        print("|---|---:|---:|---:|")
    else:
        print("| timing | wall |")
        print("|---|---:|")
    for name, ms in timings.items():
        try:
            ms = float(ms)
        except (TypeError, ValueError):
            continue
        if have_base and name in base_timings:
            base_ms = float(base_timings[name])
            ratio = ((ms / cal) / (base_ms / base_cal)
                     if base_ms > 0 else float("nan"))
            print(f"| `{name}` | {fmt_ms(ms)} | {fmt_ms(base_ms)} "
                  f"| {ratio:.2f}x |")
        elif have_base:
            print(f"| `{name}` | {fmt_ms(ms)} | — | — |")
        else:
            print(f"| `{name}` | {fmt_ms(ms)} |")
    print()

    gl_section(report)

    res = report.get("resilience", {})
    if isinstance(res, dict) and not res.get("clean", True):
        events = res.get("events", [])
        print(f"> :warning: resilience: {len(events)} event(s) — "
              f"{res.get('retries', 0)} retries, "
              f"{res.get('fallbacks', 0)} fallbacks, "
              f"{res.get('recollects', 0)} recollects")
        print()


def main():
    parser = argparse.ArgumentParser(
        description="markdown step summary from ctest logs and bench "
                    "reports")
    parser.add_argument("--title", default="")
    parser.add_argument("--ctest-log")
    parser.add_argument("--report", action="append", default=[])
    parser.add_argument("--baselines-dir", default="bench/baselines")
    args = parser.parse_args()

    if args.title:
        print(f"### {args.title}")
        print()
    if args.ctest_log:
        ctest_section(args.ctest_log)
    for path in args.report:
        report_section(path, args.baselines_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
