"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 benchmark/worker.py '<json spec>'

The spec names the workload, the input instance, the size table, the
monotonic time at which the parent spawned this process (set-up is timed
from there), whether to stop at the end of set-up, and whether to trace.
The BLAS thread variables are set by the parent before this interpreter,
and so numpy, starts.  The last stdout line is one JSON object with the
timings, the peak RSS and the outputs for the correctness gate.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SetupOnly(Exception):
    """Raised at the end of set-up in a set-up probe."""


class Clock:
    """Set-up end, stage times and operation ids of one repetition."""

    def __init__(self, t_spawn: float, setup_only: bool, tracer=None):
        self.t_spawn = t_spawn
        self.setup_only = setup_only
        self.tracer = tracer
        self.t_setup = None
        self.t_last = None
        self.stages: dict[str, float] = {}
        self._root = tracer.open("setup") if tracer else None

    def setup_done(self) -> None:
        self.t_setup = self.t_last = time.monotonic()
        if self.setup_only:
            raise SetupOnly
        if self.tracer:
            self.tracer.close(self._root)
            self._root = self.tracer.open("run")

    def finish(self) -> None:
        if self.tracer and self._root is not None:
            self.tracer.close(self._root)
            self._root = None

    @contextmanager
    def stage(self, name: str):
        idx = self.tracer.open(f"stage.{name}") if self.tracer else None
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.t_last = time.monotonic()
            self.stages[name] = self.stages.get(name, 0.0) + self.t_last - t0
            if idx is not None:
                self.tracer.close(idx)

    @contextmanager
    def op(self):
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.op += 1


def blas_version() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    clock = Clock(spec["t_spawn"], spec["setup_only"], tracer)
    out = {"error": None}
    try:
        out["result"] = workloads.WORKLOADS[spec["workload"]](
            spec["instance"], spec["size"], clock)
    except SetupOnly:
        pass
    except Exception:  # the parent counts the failure and keeps running
        out["error"] = traceback.format_exc()
    clock.finish()
    if clock.t_setup is not None:
        out["setup_s"] = clock.t_setup - clock.t_spawn
        if not spec["setup_only"]:
            out["total_s"] = clock.t_last - clock.t_setup
    out["stages"] = clock.stages
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {"numpy": np.__version__, "blas": blas_version(),
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer)
        if spec["trace_path"]:
            tracer.write(spec["trace_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
