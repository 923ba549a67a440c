"""holocirc benchmark.

    python3 perfbench/run.py --workload census16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs from the root of a checkout.  Each pass is a fresh interpreter
(``perfbench/child.py``) that imports ``holocirc`` from ``src`` and drives
``holocirc.cli.main`` with ``--jobs 1``: one caller, closed loop.  The
child's stdout goes to a sink here that timestamps each chunk and hashes
the stream, and every pass is checked against the golden outputs in
``perfbench/golden``.

Every interpreter of a run is pinned to one CPU, and this process moves
to the others.  ``--trace 0`` runs whole passes for about ``--seconds``
(at least one) and reports the median pass, as measured.  Before each
pass and after the last it starts a few interpreters that only import
``holocirc.cli``; ``setup_s`` is their median start-up time.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer split of the traced one and the tracing overhead; its spans
are kept in ``.perfbench/``.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_BATCH = 5  # start-up spawns before each pass and after the last
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s


@dataclass
class Pass:
    wall_s: float
    first_record_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    sha256: str
    trace: dict | None


class Sink(threading.Thread):
    """Reads a child's stdout: timestamps each chunk as it arrives, hashes
    the stream and keeps it for the golden check."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.arrivals: list[tuple[float, int]] = []  # (time, stream offset after the chunk)
        self.chunks: list[bytes] = []
        self.hash = hashlib.sha256()

    def run(self) -> None:
        received = 0
        while chunk := self.stream.read(1 << 16):
            received += len(chunk)
            self.arrivals.append((time.perf_counter(), received))
            self.hash.update(chunk)
            self.chunks.append(chunk)

    def first_byte_after(self, offset: int) -> float | None:
        """When the byte at ``offset`` of the stream arrived."""
        return next((at for at, end in self.arrivals if end > offset), None)


class Tail(threading.Thread):
    """Keeps the last few kilobytes of a child's stderr for diagnostics."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.text = b""

    def run(self) -> None:
        while chunk := self.stream.read(1 << 12):
            self.text = (self.text + chunk)[-4096:]


def pick_cpu() -> int:
    """The CPU that the passes run on.  This process moves to the other
    CPUs, when there are any, so that the sink does not compete with them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
    return cpus[-1]


def child_env() -> dict:
    """The caller's environment without anything that changes what the
    program computes or where it is imported from."""
    return {
        k: v for k, v in os.environ.items()
        if not k.startswith("HOLOCIRC_") and k not in ("PYTHONPATH", "PYTHONHOME")
    }


def spawn(argvs: list[list[str]], trace: bool, run_id: str, cpu: int, deadline: float) -> tuple[dict, Sink, float, float, float]:
    """Run one child; returns its result, its stdout sink, the spawn and
    exit times and its peak RSS in MiB."""
    result_path = OUT_DIR / f"{run_id}.json"
    result_path.unlink(missing_ok=True)
    spec = json.dumps({"argvs": argvs, "trace": trace, "run_id": run_id, "cpu": cpu})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), spec, str(result_path)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    sink, tail = Sink(proc.stdout), Tail(proc.stderr)
    sink.start()
    tail.start()
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sink.join()
    tail.join()
    proc.stdout.close()
    proc.stderr.close()
    result: dict = {}
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
    else:
        sys.stderr.write(f"pass {run_id} exited {proc.returncode}\n{tail.text.decode(errors='replace')}\n")
    if not trace:
        result_path.unlink(missing_ok=True)
    return result, sink, start, end, usage.ru_maxrss / 1024


def first_record_latencies(result: dict, sink: Sink) -> list[float]:
    """For each command line of a pass that printed anything: from its call
    into ``cli.main`` until its first stdout byte reached the sink."""
    calls = result.get("calls", [])
    ends = [c["offset"] for c in calls[1:]] + [result.get("written", 0)]
    latencies = []
    for call, end in zip(calls, ends):
        arrived = sink.first_byte_after(call["offset"]) if end > call["offset"] else None
        if arrived is not None:
            latencies.append(arrived - call["start"])
    return latencies


def run_pass(workload: workloads.Workload, trace: bool, run_id: str, cpu: int, deadline: float) -> Pass:
    result, sink, start, end, rss = spawn(workload.argvs, trace, run_id, cpu, deadline)
    stream = b"".join(sink.chunks)
    latencies = first_record_latencies(result, sink)
    return Pass(
        wall_s=end - start,
        first_record_s=statistics.median(latencies) if latencies else end - start,
        peak_rss_mb=rss,
        attempted=workload.ops,
        failed=workload.failed(stream, result.get("exit_codes")),
        sha256=sink.hash.hexdigest(),
        trace=result.get("trace"),
    )


def measure_setup(run_id: str, cpu: int, deadline: float) -> list[float]:
    """Start-up times of a batch of fresh interpreters: from spawning one
    until it has imported ``holocirc.cli``."""
    times = []
    for i in range(SETUP_BATCH):
        result, _, start, end, _ = spawn([], False, f"{run_id}-{i}", cpu, deadline)
        times.append(result.get("ready", end) - start)
    return times


def machine_facts(workload: str, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "holocirc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads(BENCHMARK.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict[str, float]:
    """Medians over the passes and the start-up spawns, as measured."""
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "records_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "first_record_s": statistics.median(p.first_record_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(untraced: Pass, traced: Pass, claim_ids: list[str]) -> dict[str, float]:
    """The traced pass's per-layer split, with both pass times beside it.
    ``trace.overhead_s`` comes from inside the traced pass (see
    ``spans.overhead_s``): the difference of the two pass times is mostly
    the machine's drift between them."""
    out = spans.layer_metrics(traced.trace, claim_ids) if traced.trace else {}
    out["trace.untraced_wall_s"] = untraced.wall_s
    out["trace.traced_wall_s"] = traced.wall_s
    return out


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    e2e_units, layer_units = metric_specs()
    workload = workloads.make(workload_name, seed)
    print("facts " + json.dumps(machine_facts(workload_name, seed), sort_keys=True))

    run_id = f"{workload_name}-{seed}"
    cpu = pick_cpu()
    if trace:
        untraced = run_pass(workload, False, f"{run_id}-untraced", cpu, deadline)
        traced = run_pass(workload, True, f"{run_id}-spans", cpu, deadline)
        passes = [untraced, traced]
        values, units = per_layer(untraced, traced, workloads.claim_ids()), layer_units
    else:
        passes: list[Pass] = []
        setup_times = measure_setup(f"{run_id}-setup-0", cpu, deadline)
        # Another pass while it would end nearer to ``seconds`` than stopping now.
        while not passes or time.perf_counter() - started + passes[-1].wall_s / 2 <= seconds:
            passes.append(run_pass(workload, False, f"{run_id}-{len(passes)}", cpu, deadline))
            setup_times += measure_setup(f"{run_id}-setup-{len(passes)}", cpu, deadline)
        values, units = end_to_end(passes, setup_times), e2e_units

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)} cpu {cpu} sha256 {' '.join(sorted({p.sha256[:16] for p in passes}))}")
    for name, unit in units.items():
        print(f"{name} {values.get(name)} {unit}")
    print(f"ops_attempted {attempted} count")
    print(f"ops_failed {failed} count")
    missing = [name for name in units if name not in values]
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


def smoke() -> int:
    """Self-check of the benchmark: every metric prints with its name and
    unit, in both modes, and a corrupted record counts as one failure."""
    e2e_units, layer_units = metric_specs()
    problems = []
    for trace, units in ((0, e2e_units), (1, layer_units)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "census16", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"trace {trace}: not correct: {result['failed']} failed")
        for name, unit in units.items():
            got = result["metrics"].get(name)
            if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                problems.append(f"trace {trace}: metric {name} is {got}, want unit {unit}")
            if f"{name} {got and got['value']} {unit}" not in lines:
                problems.append(f"trace {trace}: no line for {name} with unit {unit}")
        extra = set(result["metrics"]) - set(units)
        if extra:
            problems.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")

    workload = workloads.make("census16", 1)
    OUT_DIR.mkdir(exist_ok=True)
    cpu = sorted(os.sched_getaffinity(0))[-1]
    result, sink, _, _, _ = spawn(workload.argvs, False, "smoke", cpu, time.perf_counter() + RUN_LIMIT_S)
    stream = b"".join(sink.chunks)
    lines = stream.splitlines(keepends=True)
    corrupted = lines[:17] + [lines[17].replace(b'"aut_order": ', b'"aut_order": 1')] + lines[18:]
    for label, data, want in (("intact", stream, 0), ("one corrupted record", b"".join(corrupted), 1)):
        got = workload.failed(data, result.get("exit_codes"))
        if got != want:
            problems.append(f"{label}: ops_failed {got}, want {want}")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    args = parser.parse_args()

    needed = [ROOT / "src" / "holocirc" / "cli.py", BENCHMARK, *workloads.golden_files()]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a holocirc checkout with its benchmark: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
