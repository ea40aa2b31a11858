#!/usr/bin/env python3
"""The repository benchmark: build rbperf, run one workload, check its
outputs and print every metric.

    python3 perfbench/run.py --workload detailed-grid --seed 2002 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --gen-refs --seed 2002   # sampled-long refs

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it list the same metrics as a table, with sample counts and
the run's provenance. Raw results and spans land in .bench_build/perfbench.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2002
WORKLOADS = ("detailed-grid", "sampled-long", "serve-jobs")

# serve-jobs request space and cache model (serve::SimService defaults).
SPEC95 = ("go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex")
MACHINES = ("Baseline", "RB-limited", "RB-full", "Ideal")
WIDTHS = (4, 8)
COMBOS = [(w, m, width) for w in SPEC95 for m in MACHINES for width in WIDTHS]
MAX_INSTS = (2000, 8000)
REPEAT_EVERY = 5  # every fifth request repeats an earlier one
BLOCK = len(COMBOS) * REPEAT_EVERY // (REPEAT_EVERY - 1)
CACHE_CAPACITY = 256

COMMITTED_REFS = HERE / "refs" / "sampled-long.json"
FIG12_BASELINE = ROOT / "BENCH_fig12_wakeup.json"


class BenchError(Exception):
    """The benchmark cannot produce a result (build, run or rule)."""


# ---------------------------------------------------------------- stats

def tail_percentile(values, pct):
    """Nearest-rank `pct` percentile, reported only when at least ten
    samples lie beyond it; returns (value, samples beyond)."""
    xs = sorted(values)
    rank = math.ceil(pct / 100.0 * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < 10:
        raise BenchError(f"p{pct:g} of {len(xs)} samples has {beyond} "
                         "beyond it; at least 10 are needed")
    return xs[rank - 1], beyond


# ------------------------------------------------------ request generator

def generate_requests(seed, blocks):
    """Seeded serve-jobs request lines, in blocks of BLOCK. A block holds
    every (program, machine, width) once, in seeded order, with a seeded
    max_insts from its own stratum of MAX_INSTS, so every seed asks for
    the same mix; every REPEAT_EVERY-th request repeats an earlier one
    that, in a closed loop, has completed and is still in the server's
    LRU result cache. Returns (line, index of the repeated request or
    None) pairs."""
    rng = random.Random(seed)
    resident = OrderedDict()  # cache key -> first index, LRU order
    seen = set()
    reqs = []
    lo, hi = MAX_INSTS
    for _ in range(blocks):
        strata = rng.sample(range(len(COMBOS)), len(COMBOS))
        for k, combo in zip(strata, rng.sample(COMBOS, len(COMBOS))):
            while True:
                key = combo + (lo + int((hi - lo) * (k + rng.random())
                                        / len(COMBOS)),)
                if key not in seen:
                    break
            seen.add(key)
            resident[key] = len(reqs)
            if len(resident) > CACHE_CAPACITY:
                resident.popitem(last=False)
            workload, machine, width, max_insts = key
            reqs.append(({"id": f"j{len(reqs)}", "workload": workload,
                          "scale": 1, "machine": machine, "width": width,
                          "max_insts": max_insts}, None))
            if len(reqs) % REPEAT_EVERY == REPEAT_EVERY - 1:
                key = rng.choice(list(resident))
                resident.move_to_end(key)
                first = resident[key]
                reqs.append((dict(reqs[first][0], id=f"j{len(reqs)}"),
                             first))
    return [(json.dumps(r, separators=(",", ":")), rep) for r, rep in reqs]


# --------------------------------------------------------------- checks

def check_grid(passes, expected=None, traced=None):
    """Failed (pass, cell) pairs of detailed-grid. Every cell must halt
    under cosim; with `expected` ((machine, workload) -> (cycles,
    retired)) every cell must match it, otherwise every pass must repeat
    the first. Traced cells must equal the first pass."""
    failed = set()
    first = passes[0]["cells"]
    for p, pas in enumerate(passes):
        for c, cell in enumerate(pas["cells"]):
            if not (cell["ok"] and cell["halted"]):
                failed.add((p, c))
            elif expected is not None:
                want = expected.get((cell["machine"], cell["workload"]))
                if want != (cell["cycles"], cell["retired"]):
                    failed.add((p, c))
            elif cell["digest"] != first[c]["digest"]:
                failed.add((p, c))
    for c, cell in enumerate(traced or []):
        if cell["digest"] != first[c]["digest"] or not cell["ok"]:
            failed.add((0, c))
    return failed


def fig12_expectations(path=FIG12_BASELINE):
    doc = json.loads(Path(path).read_text())
    return {(c["machine"], c["workload"]):
            (c["stats"]["counters"]["core.cycles"],
             c["stats"]["counters"]["core.retired"])
            for c in doc["cells"]}


REF_KEY = ("machine", "workload", "scale", "seed")


def ref_index(records):
    return {tuple(r[k] for k in REF_KEY): r for r in records}


def fresh_ref(camp, refs):
    """The reference of a campaign, or None when it is missing or stale:
    made for another program, another window count, or a sampled model
    whose IPC differs from this campaign's (the sampled run is
    deterministic, so any change to the detailed model shows here)."""
    ref = refs.get(tuple(camp[k] for k in REF_KEY))
    if (ref is None or ref["program_hash"] != camp["program_hash"]
            or ref["windows"] != camp["windows"]
            or ref["sampled_ipc"] != camp["ipc"]):
        return None
    return ref


def check_sampled(passes, refs, traced=None):
    """Failed (pass, campaign) pairs of sampled-long. A campaign fails
    when it errs or does not complete, when its reference is missing or
    stale, or when it differs from the first pass; a traced replay that
    differs fails it too."""
    failed = set()
    first = passes[0]["campaigns"]
    for p, pas in enumerate(passes):
        for c, camp in enumerate(pas["campaigns"]):
            if (not camp["ok"] or not camp["completed"]
                    or fresh_ref(camp, refs) is None
                    or camp["ipc"] != first[c]["ipc"]):
                failed.add((p, c))
    for c, rec in enumerate(traced or []):
        if not rec["same_ipc"]:
            failed.add((0, c))
    return failed


def sampled_errors(campaigns, refs):
    """Signed relative IPC error, in percent, of each campaign that has a
    fresh reference."""
    out = []
    for camp in campaigns:
        ref = fresh_ref(camp, refs)
        if ref:
            out.append((camp["ipc"] - ref["full_ipc"]) / ref["full_ipc"]
                       * 100)
    return out


def check_jobs(jobs, repeats, traced=None):
    """Failed (round, job) pairs of serve-jobs. Every response must be ok
    and the same in every round; a repeat must be a cache hit with its
    first execution's IPC and a distinct request must miss. The traced
    replay must agree with round 0."""
    failed = set()
    for i, job in enumerate(jobs):
        rounds = len(job["latency_ms"])
        rep = repeats[i]
        if (not job["ok"] or job["cache_hit"] != (rep is not None)
                or (rep is not None and job["ipc"] != jobs[rep]["ipc"])):
            failed.update((k, i) for k in range(rounds))
        failed.update((k, i) for k in job["differing_rounds"])
    for i, rec in enumerate(traced or []):
        if (not rec["ok"] or rec["cache_hit"] != jobs[i]["cache_hit"]
                or rec["ipc"] != jobs[i]["ipc"]):
            failed.add((0, i))
    return failed


# ---------------------------------------------------------------- build

def build_dir():
    return ROOT / ".bench_build" / "perfbench"


def build():
    """Configure and build rbperf; returns its path. Compiler temporaries
    stay inside the build directory too."""
    bdir = build_dir()
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(bdir), "--target", "rbperf",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir / "rbperf"


def run_rbperf(exe, args, timeout):
    proc = subprocess.Popen([str(exe)] + args, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"rbperf {args[0]} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc:
        raise BenchError(f"rbperf {' '.join(args)} exited with {rc}")


def source_digest(dirs=(ROOT / "src", HERE)):
    h = hashlib.sha256()
    for d in dirs:
        for f in sorted(d.rglob("*")):
            if f.is_file() and f.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


# ----------------------------------------------------------- references

def generate_refs(exe, seed, path):
    """Run `rbperf refs` on every core into `path` (not a timed run)."""
    tmp = path.with_suffix(".tmp")
    run_rbperf(exe, ["refs", "--seed", str(seed), "--out", str(tmp)], 900)
    tmp.replace(path)


def load_refs(exe, seed):
    """Reference records for `seed`: the committed file at the default
    seed, otherwise a set generated once per seed and digest of the
    simulator and rbperf sources into the build directory."""
    path = COMMITTED_REFS
    if seed != DEFAULT_SEED:
        digest = source_digest((ROOT / "src", HERE / "src"))
        path = build_dir() / f"refs-seed{seed}-{digest}.json"
        if not path.exists():
            print(f"generating sampled-long references for seed {seed}",
                  file=sys.stderr)
            generate_refs(exe, seed, path)
    return ref_index(json.loads(path.read_text()))


# -------------------------------------------------------------- metrics

def summarize(workload, raw, trace, refs=None, repeats=None):
    """(attempted, failed, values, notes) of one run's raw results. An
    operation is a cell of a pass, a campaign of a pass, or a request of
    a round. `values` are the end-to-end figures, or with `trace` the
    per-layer ones; the names BENCHMARK.json declares go on the result
    line and any others are printed as details."""
    notes = {}
    values = {"setup_s": statistics.median(raw["setup_s"]),
              "peak_rss_mb": raw["peak_rss_mb"]}
    layers = dict(raw.get("layers", {}))
    if trace:
        layers["trace_overhead_pct"] = (raw["traced_s"] / raw["untraced_s"]
                                        - 1) * 100

    if workload == "detailed-grid":
        passes = raw["passes"]
        expected = fig12_expectations() if raw["provenance"]["seed"] == \
            DEFAULT_SEED else None
        failed = check_grid(passes, expected, raw.get("traced_cells"))
        attempted = sum(len(p["cells"]) for p in passes)
        times = [[c["seconds"] for c in p["cells"]] for p in passes]
        ref_runs = [p["ref_s"] for p in passes]
        insts = sum(c["retired"] for c in passes[0]["cells"])
        cycles = sum(c["cycles"] for c in passes[0]["cells"])
        notes["passes"] = len(passes)
    elif workload == "sampled-long":
        passes = raw["passes"]
        failed = check_sampled(passes, refs, raw.get("traced_campaigns"))
        attempted = sum(len(p["campaigns"]) for p in passes)
        times = [[c["seconds"] for c in p["campaigns"]] for p in passes]
        ref_runs = [p["ref_s"] for p in passes]
        insts = sum(c["ff_insts"] for c in passes[0]["campaigns"])
        errs = sampled_errors(passes[0]["campaigns"], refs)
        if errs:
            values["ipc_err_pct"] = statistics.fmean(abs(e) for e in errs)
            layers["sampling.bias_pct"] = statistics.fmean(errs)
        notes["passes"] = len(passes)
    else:
        jobs = raw["jobs"]
        failed = check_jobs(jobs, repeats, raw.get("traced_jobs"))
        attempted = sum(len(j["latency_ms"]) for j in jobs)
        times = [[j["latency_ms"][k] / 1e3 for j in jobs]
                 for k in range(len(jobs[0]["latency_ms"]))]
        ref_runs = raw["ref_s"]
        # Instructions the server simulated: a cache hit runs none.
        insts = sum(j["retired"] for j in jobs if not j["cache_hit"])
        values["job_p90_ms"], notes["p90_beyond"] = tail_percentile(
            [statistics.median(j["latency_ms"]) for j in jobs], 90)
        notes["rounds"] = len(times)
        notes["cache_hits"] = sum(j["cache_hit"] for j in jobs)
        if trace:
            layers["serve.overhead_ms"] = statistics.median(
                j["latency_ms"][0] - j["host_ms"] for j in jobs
                if not j["cache_hit"])

    # Each operation's median over the passes: a burst of host noise that
    # slows one pass drops out.
    secs = [statistics.median(col) for col in zip(*times)]
    # On the result line: times in runs of the host-speed reference, the
    # run's median (kref = 1000 runs); a neighbour that slows the whole
    # run slows the reference alike (README.md, Noise). As details: the
    # same in seconds.
    ref = statistics.median(x for runs in ref_runs for x in runs)
    values["jobs_per_kref"] = len(secs) / sum(secs) * ref * 1e3
    values["job_p50_ref"] = statistics.median(secs) / ref
    values["sim_minst_per_kref"] = insts / sum(secs) * ref / 1e3
    values["jobs_per_s"] = len(secs) / sum(secs)
    values["job_p50_ms"] = statistics.median(secs) * 1e3
    values["sim_minst_per_s"] = insts / sum(secs) / 1e6
    values["ref_ms"] = ref * 1e3
    if workload == "detailed-grid":
        values["sim_kcyc_per_s"] = cycles / sum(secs) / 1e3
    notes["jobs"] = len(secs)
    return attempted, len(failed), (layers if trace else values), notes


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json puts on the result
    line in this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-refs", action="store_true",
                    help="write the committed sampled-long references")
    args = ap.parse_args(argv)
    if args.gen_refs:
        generate_refs(build(), args.seed, COMMITTED_REFS)
        print(f"wrote {COMMITTED_REFS}")
        return 0
    if not args.workload:
        ap.error("--workload is required")

    units = declared(args.trace)
    exe = build()
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / f"{tag}.json"
    cmd = ["run", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out",
           str(raw_path), "--spans", str(out_dir / f"{tag}.spans.json")]
    refs = repeats = None
    if args.workload == "sampled-long":
        refs = load_refs(exe, args.seed)
    if args.workload == "serve-jobs":
        reqs = generate_requests(
            args.seed, max(8, math.ceil(300 * args.seconds / BLOCK)))
        req_path = out_dir / f"requests-seed{args.seed}.jsonl"
        req_path.write_text("".join(line + "\n" for line, _ in reqs))
        repeats = [rep for _, rep in reqs]
        cmd += ["--requests", str(req_path), "--block", str(BLOCK)]
    if raw_path.exists():
        raw_path.unlink()
    run_rbperf(exe, cmd, 150)

    raw = json.loads(raw_path.read_text())
    prov = dict(raw["provenance"], git_commit=git_commit(),
                source_digest=source_digest())
    raw["provenance"] = prov
    attempted, failed, values, notes = summarize(
        args.workload, raw, args.trace, refs, repeats)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    details = {k: v for k, v in values.items() if k not in units}
    raw["summary"] = {"attempted": attempted, "failed": failed,
                      "metrics": {k: values[k] for k in units},
                      "details": details, "notes": notes}
    raw_path.write_text(json.dumps(raw) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in units:
        print(f"{name:40s} {values[name]:>16.6g} {units[name]}")
    for name, value in sorted(details.items()):
        print(f"detail {name:33s} {value:>16.6g}")
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0

if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so run_rbperf stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
