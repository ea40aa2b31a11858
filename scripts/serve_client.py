#!/usr/bin/env python3
"""JSON-lines client for rbsim-serve (docs/SERVING.md).

Boots a serve instance on stdio, submits a (machine, workload) grid, and writes the responses as an rbsim-bench-1 JSON dump that
scripts/bench_diff.py consumes directly. Submitting the same grid twice
over one server session exercises the result cache; --expect-cached
asserts every response of the round was a cache hit.

Usage:
  # spawn a server on stdio, run the fig12 grid, write a bench dump
  serve_client.py --serve-bin build/src/rbsim-serve \
      --grid fig12 --json fig12_serve.json

  # second round against the same session must be all cache hits
  (handled internally: --rounds 2 --expect-cached-round 2)
"""

import argparse
import json
import subprocess
import sys

FIG12_MACHINES = [
    ("base", "Baseline"),
    ("rblim", "RB-limited"),
    ("rbfull", "RB-full"),
    ("ideal", "Ideal"),
]
SPEC95 = ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex"]


class StdioServer:
    """rbsim-serve child on stdin/stdout pipes."""

    def __init__(self, serve_bin, workers):
        cmd = [serve_bin]
        if workers:
            cmd += ["--workers", str(workers)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            sys.exit("serve_client: server closed its stdout")
        return line

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def run_round(server, tag, scale, scheduler):
    """Submit the grid, wait for every response, return cells by id."""
    ids = {}
    for wl in SPEC95:
        for alias, label in FIG12_MACHINES:
            jid = f"{tag}-{alias}-{wl}"
            ids[jid] = (label, wl)
            # Oracle mode is a machine-config field, so a request asks
            # for it with a config object.
            config = {"kind": alias, "width": 4}
            if scheduler == "oracle":
                config["wakeup_oracle"] = True
            server.send(json.dumps({
                "id": jid, "workload": wl, "scale": scale, "config": config,
            }))
    cells = {}
    while len(cells) < len(ids):
        resp = json.loads(server.recv())
        jid = resp.get("id")
        if jid not in ids or jid in cells:
            sys.exit(f"serve_client: unexpected response id {jid!r}")
        if not resp.get("ok"):
            sys.exit(f"serve_client: job {jid} failed: "
                     f"{resp.get('code')}: {resp.get('error')}")
        cells[jid] = resp
    return [cells[jid] for jid in ids]  # submission order


def to_bench_json(cells, scale, scheduler):
    """Assemble responses into an rbsim-bench-1 dump for bench_diff."""
    machines = []
    for c in cells:
        if c["machine"] not in machines:
            machines.append(c["machine"])
    return {
        "schema": "rbsim-bench-1",
        "bench": "serve_client",
        "scale": scale,
        "scheduler": scheduler,
        "machines": machines,
        "cells": [{
            "machine": c["machine"],
            "workload": c["workload"],
            "ipc": c["ipc"],
            "host_ms": c["host_ms"],
            "sim_khz": c["sim_khz"],
            "stats": c["stats"],
        } for c in cells],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve-bin", required=True,
                    help="spawn this rbsim-serve on stdio")
    ap.add_argument("--grid", choices=["fig12"], default="fig12")
    ap.add_argument("--scale", type=int, default=1)
    ap.add_argument("--scheduler", default="wakeup",
                    choices=["wakeup", "oracle"])
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=2,
                    help="grid submissions over one session (default 2)")
    ap.add_argument("--expect-cached-round", type=int, default=2,
                    help="assert every cell of this round is a cache "
                         "hit (0 disables)")
    ap.add_argument("--json", help="write round 1 as an rbsim-bench-1 "
                                   "dump here")
    args = ap.parse_args()

    server = StdioServer(args.serve_bin, args.workers)

    first = None
    for rnd in range(1, args.rounds + 1):
        cells = run_round(server, f"r{rnd}", args.scale, args.scheduler)
        hits = sum(1 for c in cells if c.get("cache_hit"))
        print(f"serve_client: round {rnd}: {len(cells)} cells, "
              f"{hits} cache hits")
        if rnd == 1:
            first = cells
            if hits:
                sys.exit("serve_client: round 1 against a fresh session "
                         "must not hit the cache")
        else:
            for a, b in zip(first, cells):
                if a["ipc"] != b["ipc"]:
                    sys.exit(f"serve_client: {a['machine']}/"
                             f"{a['workload']} ipc changed across rounds")
        if rnd == args.expect_cached_round and hits != len(cells):
            sys.exit(f"serve_client: round {rnd} expected all "
                     f"{len(cells)} cells cached, got {hits}")

    server.close()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(to_bench_json(first, args.scale, args.scheduler),
                      f, indent=2)
        print(f"serve_client: wrote {args.json}")


if __name__ == "__main__":
    main()
