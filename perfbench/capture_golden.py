"""Capture the golden outputs the benchmark checks against.

    python3 perfbench/capture_golden.py

Run at the commit whose outputs are the reference.  It writes, under
``perfbench/golden/``:

* ``census16.ndjson``: ``scan --modulus 16``;
* ``shards32.ndjson``: every Z_32 shard the seed can pick, in mask order;
* ``classify_n3-8.json``: ``classify --n 3..8 --format json``;
* ``claims.json``: the registered claim ids, all of which must pass.

``verify`` evidence is not pinned byte for byte, only claim statuses.
It prints the time of each shard, which shows how evenly the strata
split the work.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def capture(argv: list[str]) -> tuple[bytes, float]:
    """One command line through the benchmark's own pass (``run.spawn``),
    so the golden bytes come from the same child and sink as the checked
    ones."""
    cpu = sorted(os.sched_getaffinity(0))[-1]
    result, sink, start, end, _ = run.spawn([argv], False, "capture", cpu, time.perf_counter() + 3600)
    if result.get("exit_codes") != [0]:
        raise SystemExit(f"holocirc {' '.join(argv)} failed: {result.get('exit_codes')}")
    return b"".join(sink.chunks), end - start


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)

    out, elapsed = capture(workloads.scan_argv(16))
    (workloads.GOLDEN / "census16.ndjson").write_bytes(out)
    print(f"census16: {len(out.splitlines())} records, {elapsed:.2f}s")

    parts = []
    for i, stratum in enumerate(workloads.shards32_pool()):
        costs = []
        for shard in stratum:
            out, elapsed = capture(workloads.scan_argv(32, shard))
            parts.append(out)
            costs.append(f"{shard}:{elapsed:.2f}s")
        print(f"shards32 stratum {i}: {' '.join(costs)}")
    (workloads.GOLDEN / "shards32.ndjson").write_bytes(b"".join(parts))

    out, elapsed = capture(workloads.CLASSIFY_ARGV)
    (workloads.GOLDEN / "classify_n3-8.json").write_bytes(out)
    print(f"classify: {len(out)} bytes, {elapsed:.2f}s")

    out, elapsed = capture(["verify", "all", "--format", "ndjson", "--jobs", "1"])
    reports = [json.loads(line) for line in out.splitlines()]
    failing = [r["claim_id"] for r in reports if r["status"] != "pass"]
    if failing:
        raise SystemExit(f"claims do not pass at this commit: {failing}")
    claim_ids = [r["claim_id"] for r in reports]
    (workloads.GOLDEN / "claims.json").write_text(json.dumps({"claim_ids": claim_ids}, indent=2) + "\n")
    print(f"claims: {len(claim_ids)} pass, {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
