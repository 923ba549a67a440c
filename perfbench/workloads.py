"""Benchmark workloads: the command lines each pass runs, and the checks
of a pass's output against the golden files captured at the seed commit.

Each workload drives a different layer hard:

* ``census16``: ``scan --modulus 16``, the full Thm 1.3 census of 256
  records.  The automorphism search is almost all of its time, and its
  256 masks fall into 88 multiplier orbits, so a census by orbits shows
  here.
* ``shards32``: ``scan --modulus 32`` over contiguous shards picked by
  the seed, one from each stratum of the mask space.  The graphs are
  large and contiguous shards share almost no orbits, so a faster
  search shows here and a census by orbits does not.
* ``claims``: ``verify all`` then ``classify --n 3..8``: the holomorph,
  permgroup and regular_classify side, where the automorphism search is
  a minority of the time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# Z_32 has 16 inverse-pair orbits, so 65,536 masks; SHARDS32_OF shards
# of four masks each.  The mask space is cut into SHARDS32_STRATA equal
# strata of SHARDS32_CANDIDATES candidate shards each, and a pass runs
# one candidate per stratum, so every seed covers the whole mask range
# and the work of a pass differs between seeds by only about 6%.
SHARDS32_OF = 16384
SHARDS32_STRATA = 8
SHARDS32_CANDIDATES = 4

CLASSIFY_ARGV = ["classify", "--n", "3..8", "--format", "json", "--jobs", "1"]


def shards32_pool() -> list[list[int]]:
    """Candidate shard indices, one list per stratum."""
    stride = SHARDS32_OF // (SHARDS32_STRATA * SHARDS32_CANDIDATES)
    return [
        [(i * SHARDS32_CANDIDATES + j) * stride + stride // 2 for j in range(SHARDS32_CANDIDATES)]
        for i in range(SHARDS32_STRATA)
    ]


def shards32_picks(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in shards32_pool()]


def scan_argv(modulus: int, shard: int | None = None) -> list[str]:
    argv = ["scan", "--modulus", str(modulus), "--jobs", "1"]
    if shard is not None:
        argv += ["--shard", f"{shard}/{SHARDS32_OF}"]
    return argv


@dataclass(frozen=True)
class Workload:
    """The command lines of one pass and the golden results they must give."""

    name: str
    argvs: list[list[str]]
    ops: int
    expected_lines: list[bytes] | None = None  # scan workloads
    claim_ids: list[str] | None = None  # claims workload
    classify_golden: bytes | None = None  # claims workload

    def failed(self, stream: bytes, exit_codes: list[int] | None) -> int:
        """Operations of one pass that failed: output differing from the
        golden record, a claim not reporting ``pass``, or a non-zero exit."""
        mismatched = (
            _scan_failures(stream, self.expected_lines)
            if self.expected_lines is not None
            else _claims_failures(stream, self.claim_ids, self.classify_golden)
        )
        codes = exit_codes if exit_codes is not None else []
        bad_exits = sum(1 for c in codes if c != 0) + len(self.argvs) - len(codes)
        return min(self.ops, max(mismatched, bad_exits))


def _scan_failures(stream: bytes, expected: list[bytes]) -> int:
    lines = stream.splitlines(keepends=True)
    failed = sum(1 for i, want in enumerate(expected) if i >= len(lines) or lines[i] != want)
    return failed + (1 if len(lines) > len(expected) else 0)


def _claims_failures(stream: bytes, claim_ids: list[str], classify_golden: bytes) -> int:
    lines = stream.splitlines(keepends=True)
    split = next((i for i, line in enumerate(lines) if line.startswith(b"[")), len(lines))
    status = {}
    for line in lines[:split]:
        try:
            report = json.loads(line)
            status[report["claim_id"]] = report["status"]
        except (ValueError, KeyError, TypeError):
            continue
    failed = sum(1 for cid in claim_ids if status.get(cid) != "pass")
    return failed + (b"".join(lines[split:]) != classify_golden)


def golden_files() -> list[Path]:
    return [GOLDEN / name for name in ("census16.ndjson", "shards32.ndjson", "classify_n3-8.json", "claims.json")]


def claim_ids() -> list[str]:
    return json.loads((GOLDEN / "claims.json").read_text())["claim_ids"]


def _read_lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def make(name: str, seed: int) -> Workload:
    if name == "census16":
        lines = _read_lines(GOLDEN / "census16.ndjson")
        return Workload(name, [scan_argv(16)], len(lines), expected_lines=lines)
    if name == "shards32":
        by_mask = {json.loads(line)["mask"]: line for line in _read_lines(GOLDEN / "shards32.ndjson")}
        picks = shards32_picks(seed)
        per_shard = 65536 // SHARDS32_OF
        lines = [by_mask[a * per_shard + k] for a in picks for k in range(per_shard)]
        return Workload(name, [scan_argv(32, a) for a in picks], len(lines), expected_lines=lines)
    if name == "claims":
        ids = claim_ids()
        return Workload(
            name,
            [["verify", "all", "--format", "ndjson", "--jobs", "1"], CLASSIFY_ARGV],
            len(ids) + 1,
            claim_ids=ids,
            classify_golden=(GOLDEN / "classify_n3-8.json").read_bytes(),
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("census16", "shards32", "claims")
