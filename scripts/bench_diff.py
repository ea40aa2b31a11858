#!/usr/bin/env python3
"""Compare two rbsim bench JSON dumps and flag IPC regressions.

Usage: bench_diff.py [--threshold PCT] [--speed-gate PCT] [--exact]
                     old.json new.json

Cells are matched on (machine, workload); per-machine harmonic-mean IPC
is recomputed over the *common* cells only, so dumps taken with
different --machines/--scale filters still compare what they share.
Exits 1 when any machine's harmonic-mean IPC dropped by more than the
threshold (default 1%), 0 otherwise (including when there is nothing
comparable, which is reported).

A cell with non-positive IPC (a deadlock-aborted or budget-capped run
reports 0.0) cannot be averaged harmonically and means the dump itself
is broken; it is reported with its (machine, workload) coordinates and
the file it came from, and the script exits 2 — never a
ZeroDivisionError traceback, and never a silent pass.

Cells carrying a "ci95" field (sampled runs: IPC is a mean over
measured windows with a 95% confidence half-width) are gated
statistically instead of exactly: the cell fails only when the new IPC
falls below the old by more than the combined half-widths
(|new - old| beyond ci_old + ci_new, in the regression direction).
A sampled dump compared against a full-detail dump (ci95 on one side
only) therefore gates on the sampled run's own CI — exactly the
sampled-vs-full acceptance check. Cells without ci95 on either side
keep the exact harmonic-mean threshold gate.

With --exact the dumps must describe the same simulations: every cell
without a ci95 must be present in both dumps, with equal "ipc" and equal
"stats" (the full StatSnapshot: counters, formulas, vectors). The first
cell that is missing or differs is named, with the first differing stat,
and the script exits 1. The harmonic-mean gate alone cannot see an IPC
rise, or a moved counter that leaves IPC alone; the CI steps that check
"bit-identical" simulation use --exact.

When both dumps carry per-cell host speed (sim_khz, written since the
wakeup-array scheduler landed), a second section reports per-machine
harmonic-mean simulation-speed deltas. By default it is informational
only — host speed is noisy and machine-dependent. With --speed-gate PCT
the section becomes gating: any machine whose harmonic-mean sim_khz
dropped by more than PCT percent fails the run (exit 1), which CI uses
as a coarse host-performance ratchet (docs/PERFORMANCE.md). Pick PCT
well above run-to-run noise on shared runners.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != "rbsim-bench-1":
        sys.exit(f"{path}: unsupported schema {schema!r}")
    return doc


def cell_map(doc):
    return {(c["machine"], c["workload"]): c["ipc"] for c in doc["cells"]}


def speed_map(doc):
    return {(c["machine"], c["workload"]): c["sim_khz"]
            for c in doc["cells"] if c.get("sim_khz", 0) > 0}


def ci_map(doc):
    """Cells that carry a 95% CI half-width (sampled runs)."""
    return {(c["machine"], c["workload"]): c["ci95"]
            for c in doc["cells"] if "ci95" in c}


def flat_stats(stats):
    """{"counters": {name: v}, ...} -> {"counters/name": v}, so a
    difference can be named by one key (a cell without stats: {})."""
    return {f"{kind}/{name}": v
            for kind, group in (stats or {}).items()
            for name, v in group.items()}


def first_exact_difference(old_doc, new_doc):
    """The first non-ci95 cell that is missing from one dump or differs
    in ipc or stats, as a message; None when the dumps agree."""
    def exact_cells(doc):
        return {(c["machine"], c["workload"]): c for c in doc["cells"]
                if "ci95" not in c}
    old, new = exact_cells(old_doc), exact_cells(new_doc)
    order = list(old) + [k for k in new if k not in old]
    for key in order:
        cell = f"(machine={key[0]!r}, workload={key[1]!r})"
        if key not in new:
            return f"cell {cell} is missing from the new dump"
        if key not in old:
            return f"cell {cell} is missing from the old dump"
        o, n = old[key], new[key]
        if o["ipc"] != n["ipc"]:
            return f"cell {cell}: ipc {o['ipc']!r} -> {n['ipc']!r}"
        os_, ns = flat_stats(o.get("stats")), flat_stats(n.get("stats"))
        for name in sorted(set(os_) | set(ns)):
            if os_.get(name, "<absent>") != ns.get(name, "<absent>"):
                return (f"cell {cell}: stat {name} "
                        f"{os_.get(name, '<absent>')!r} -> "
                        f"{ns.get(name, '<absent>')!r}")
    return None


def hmean(xs):
    """Harmonic mean. Refuses empty and non-positive inputs with a
    message instead of raising ZeroDivisionError — callers are expected
    to have reported the offending cells already (check_cells)."""
    if not xs:
        sys.exit("bench_diff: harmonic mean of an empty series "
                 "(no cells for a machine?)")
    if min(xs) <= 0:
        sys.exit("bench_diff: harmonic mean of a non-positive series")
    return len(xs) / sum(1.0 / x for x in xs)


def check_cells(path, cells, keys):
    """Report every non-positive IPC cell in `cells` (restricted to
    `keys`) with its coordinates, and exit 2 when any exist."""
    bad = [(k, cells[k]) for k in keys if cells[k] <= 0]
    for (machine, workload), ipc in bad:
        print(f"bench_diff: {path}: non-positive IPC {ipc:g} in cell "
              f"(machine={machine!r}, workload={workload!r}) — "
              f"deadlock-aborted or budget-capped run?", file=sys.stderr)
    if bad:
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threshold", type=float, default=1.0,
                    help="max tolerated hmean-IPC drop, percent "
                         "(default 1.0)")
    ap.add_argument("--speed-gate", type=float, default=None,
                    metavar="PCT",
                    help="also fail when a machine's hmean sim_khz "
                         "dropped by more than PCT percent (default: "
                         "speed is informational only)")
    ap.add_argument("--exact", action="store_true",
                    help="fail unless every cell without a ci95 is in "
                         "both dumps with equal ipc and stats")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()

    old_doc, new_doc = load(args.old), load(args.new)
    if args.exact:
        diff = first_exact_difference(old_doc, new_doc)
        if diff:
            print(f"bench_diff: FAIL — not exact: {diff}")
            return 1
        n_exact = sum(1 for c in old_doc["cells"] if "ci95" not in c)
        print(f"bench_diff: exact — {n_exact} cells with equal ipc "
              "and stats")
    old_cells, new_cells = cell_map(old_doc), cell_map(new_doc)
    common = sorted(set(old_cells) & set(new_cells))
    if not common:
        print("bench_diff: no common (machine, workload) cells; "
              "nothing to compare")
        return 0

    machines = []
    for machine, _ in common:
        if machine not in machines:
            machines.append(machine)
    if not machines:
        sys.exit("bench_diff: common cells name no machines; "
                 "malformed dumps?")

    # Broken dumps fail loudly before any averaging: a deadlocked run's
    # 0.0 IPC must never be skipped into a green exit.
    check_cells(args.old, old_cells, common)
    check_cells(args.new, new_cells, common)

    # Cells with a CI on either side are gated statistically per cell;
    # the rest go through the exact harmonic-mean threshold gate.
    old_ci, new_ci = ci_map(old_doc), ci_map(new_doc)
    ci_keys = [k for k in common if k in old_ci or k in new_ci]
    exact = [k for k in common if k not in set(ci_keys)]

    print(f"comparing {len(common)} common cells across "
          f"{len(machines)} machines "
          f"({old_doc['bench']} vs {new_doc['bench']})")
    width = max(len(m) for m in machines)
    failures = []
    for machine in machines:
        old_ipcs = [old_cells[k] for k in exact if k[0] == machine]
        new_ipcs = [new_cells[k] for k in exact if k[0] == machine]
        if not old_ipcs:
            continue  # only CI-gated cells for this machine
        old_h, new_h = hmean(old_ipcs), hmean(new_ipcs)
        delta = 100.0 * (new_h / old_h - 1.0)
        flag = ""
        if delta < -args.threshold:
            failures.append(machine)
            flag = f"  REGRESSION (> {args.threshold:g}% drop)"
        print(f"  {machine:<{width}}  hmean IPC {old_h:.4f} -> "
              f"{new_h:.4f}  ({delta:+.2f}%){flag}")

    if ci_keys:
        print(f"CI-gated cells ({len(ci_keys)}; fail when the drop "
              "exceeds the combined 95% CI half-widths):")
        for k in ci_keys:
            machine, workload = k
            allowed = old_ci.get(k, 0.0) + new_ci.get(k, 0.0)
            drop = old_cells[k] - new_cells[k]
            flag = ""
            if drop > allowed:
                failures.append(f"{machine}/{workload}")
                flag = "  REGRESSION (beyond combined CI)"
            print(f"  {machine:<{width}}  {workload:<10}  IPC "
                  f"{old_cells[k]:.4f} -> {new_cells[k]:.4f}  "
                  f"(CI +/- {allowed:.4f}){flag}")

    old_speed, new_speed = speed_map(old_doc), speed_map(new_doc)
    speed_common = [k for k in common
                    if k in old_speed and k in new_speed]
    speed_failures = []
    gating = args.speed_gate is not None
    if speed_common:
        sched = (old_doc.get("scheduler", "?"),
                 new_doc.get("scheduler", "?"))
        mode = (f"gating at {args.speed_gate:g}%" if gating
                else "informational, non-gating")
        print(f"host speed ({mode}; scheduler "
              f"{sched[0]} vs {sched[1]}):")
        for machine in machines:
            old_khz = [old_speed[k] for k in speed_common
                       if k[0] == machine]
            new_khz = [new_speed[k] for k in speed_common
                       if k[0] == machine]
            if not old_khz or not new_khz:
                continue
            old_h, new_h = hmean(old_khz), hmean(new_khz)
            delta = 100.0 * (new_h / old_h - 1.0)
            flag = ""
            if gating and delta < -args.speed_gate:
                speed_failures.append(machine)
                flag = f"  TOO SLOW (> {args.speed_gate:g}% drop)"
            print(f"  {machine:<{width}}  hmean sim speed "
                  f"{old_h:.0f} -> {new_h:.0f} kcyc/s  "
                  f"({delta:+.1f}%){flag}")
    elif gating:
        # A gate that silently skips is worse than no gate.
        sys.exit("bench_diff: --speed-gate given but no common cells "
                 "carry sim_khz in both dumps")

    if failures:
        print(f"bench_diff: FAIL — {len(failures)} machine(s) regressed: "
              + ", ".join(failures))
        return 1
    if speed_failures:
        print(f"bench_diff: FAIL — {len(speed_failures)} machine(s) "
              "simulate too slowly: " + ", ".join(speed_failures))
        return 1
    print("bench_diff: OK — no machine regressed beyond "
          f"{args.threshold:g}%"
          + (f" (speed gate {args.speed_gate:g}% passed)" if gating
             else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
