#!/usr/bin/env python3
"""Validate a Chrome trace-event file produced by the benches (--trace=).

Checks, per engine ("pid" in the trace):
  1. The file is valid JSON with a traceEvents list of complete events.
  2. Durations are non-negative.
  3. The per-phase open breakdown adds up: within each `harness.open_read`
     window (barrier-to-barrier, so identical on every rank — deduped to
     one per engine), the rank whose `plfs.open`-category spans sum highest
     (the critical-path rank every other rank waits for at the barrier)
     accounts for the window's duration to within --tolerance (default 1%).
  4. When collective-buffering windows are present (`cb.write`/`cb.read`,
     category "iolib.cb"), each rank's "iolib.cb.phase" child spans tile
     the window: per (pid, tid), the phase spans inside a window sum to
     its duration within --tolerance. Virtual time only advances at
     awaits and every await in the collective layer sits inside exactly
     one phase span, so this reconciliation is exact by construction —
     any gap means an unattributed await crept in.

Exit status 0 when every window passes, 1 otherwise.

Usage: check_trace.py TRACE.json [--tolerance=0.01] [--verbose]
"""

import json
import sys
from collections import defaultdict


def main(argv):
    tolerance = 0.01
    verbose = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg == "--verbose":
            verbose = True
        else:
            paths.append(arg)
    if len(paths) != 1:
        raise SystemExit(__doc__)
    path = paths[0]
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SystemExit(f"{path}: no traceEvents list")

    # (pid, tid) -> list of (ts, dur, name, cat) complete spans.
    spans = defaultdict(list)
    for ev in events:
        if ev.get("ph") != "X":
            continue
        ts, dur = float(ev["ts"]), float(ev["dur"])
        if dur < 0:
            raise SystemExit(f"{path}: negative duration in {ev}")
        spans[(ev["pid"], ev["tid"])].append((ts, dur, ev["name"], ev.get("cat", "")))

    # Every rank carries the same barrier-to-barrier open_read window;
    # dedupe to one per (pid, ts, dur).
    windows = sorted(
        {
            (pid, ts, dur)
            for (pid, _), track in spans.items()
            for ts, dur, name, _ in track
            if name == "harness.open_read" and dur > 0
        }
    )

    n_failed = 0
    n_checked = 0
    for pid, wts, wdur in windows:
        # Critical-path rank: the max across ranks of the summed plfs.open
        # phase time inside this window, same engine.
        best, best_tid = 0.0, None
        phase_names = set()
        for (opid, otid), track in spans.items():
            if opid != pid:
                continue
            total = 0.0
            for ts, dur, name, cat in track:
                if cat == "plfs.open" and wts <= ts and ts + dur <= wts + wdur + 1e-6:
                    total += dur
                    phase_names.add(name)
            if total > best:
                best, best_tid = total, otid
        if best_tid is None:
            # No plfs.open spans inside this window at all: a direct-access
            # (non-PLFS) open, e.g. fig5's direct cells. Nothing to
            # reconcile against.
            continue
        n_checked += 1
        rel = abs(best - wdur) / wdur
        ok = rel <= tolerance
        n_failed += not ok
        if verbose or not ok:
            status = "ok" if ok else "FAIL"
            print(
                f"{status}: pid={pid} open window @{wts:.3f}us dur={wdur:.3f}us "
                f"critical rank tid={best_tid} phases sum={best:.3f}us "
                f"({rel * 100:.3f}% off; phases: {sorted(phase_names)})"
            )
    if not windows:
        print(f"{path}: no harness.open_read windows found", file=sys.stderr)
        return 1

    # Collective-buffering windows reconcile per rank: the phase spans on
    # the same track must tile each cb.write/cb.read window exactly.
    n_cb = n_cb_failed = 0
    for (pid, tid), track in spans.items():
        for wts, wdur, name, cat in track:
            if cat != "iolib.cb" or wdur <= 0:
                continue
            n_cb += 1
            total = sum(
                dur
                for ts, dur, _, pcat in track
                if pcat == "iolib.cb.phase" and wts <= ts and ts + dur <= wts + wdur + 1e-6
            )
            rel = abs(total - wdur) / wdur
            ok = rel <= tolerance
            n_cb_failed += not ok
            if verbose or not ok:
                status = "ok" if ok else "FAIL"
                print(
                    f"{status}: pid={pid} tid={tid} {name} window @{wts:.3f}us "
                    f"dur={wdur:.3f}us phase sum={total:.3f}us ({rel * 100:.3f}% off)"
                )

    print(f"{path}: {n_checked - n_failed}/{n_checked} PLFS open windows within "
          f"{tolerance * 100:g}% ({len(windows) - n_checked} direct skipped, "
          f"{len(events)} events)")
    if n_cb:
        print(f"{path}: {n_cb - n_cb_failed}/{n_cb} collective-buffering windows reconcile")
    return 1 if (n_failed or n_cb_failed) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
