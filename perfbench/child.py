"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON RESULT_PATH

SPEC_JSON holds ``argvs`` (the ``holocirc`` command lines to run, in
order), ``trace``, ``run_id`` and ``cpu``.  The child pins itself to
``cpu``, imports ``holocirc`` from the checkout's ``src``, notes when it
is ready, runs each command line through ``holocirc.cli.main`` with
stdout going to the benchmark's sink, and writes its exit codes, timestamps and (when traced) spans to
RESULT_PATH as JSON, with the start time and stdout byte offset of each
command line.  An empty ``argvs`` only measures start-up.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class CountingStdout(io.RawIOBase):
    """File descriptor 1 as a raw stream that counts the bytes written."""

    def __init__(self):
        super().__init__()
        self.written = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        n = os.write(1, data)
        self.written += n
        return n


def main() -> int:
    spec = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, str(ROOT / "src"))
    import holocirc.cli as cli

    ready = time.perf_counter()
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder(spec["run_id"])
        spans.install(recorder)
    # Same buffering as the interpreter's own stdout on a pipe.
    counter = CountingStdout()
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(counter), encoding="utf-8")
    codes, calls = [], []
    for argv in spec["argvs"]:
        calls.append({"start": time.perf_counter(), "offset": counter.written})
        try:
            codes.append(cli.main(argv))
        except Exception:
            traceback.print_exc()
            codes.append(-1)
        sys.stdout.flush()
    result = {"ready": ready, "exit_codes": codes, "calls": calls, "written": counter.written}
    if recorder is not None:
        result["trace"] = spans.finish(recorder)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
