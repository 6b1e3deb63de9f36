"""Record the correctness-gate references from the current code.

    python3 benchmark/record_references.py

Runs one repetition of every input instance (0 .. POOL-1) of every
workload at full size and stores its outputs in references.json.  The
committed references.json was recorded this way from the seed commit;
later commits are checked against it and must not re-record it.  Stops with an error if a
repetition fails.  An lf-scan model that fails is recorded as failed,
so that the gate keeps counting it against every later commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


# the outputs the gate compares against a reference
CHECKED = ("ladder", "g_eha", "g_sos", "vtsv", "error")


def checked_values(result: dict) -> dict:
    if "models" in result:
        return {"models": [checked_values(m) for m in result["models"]]}
    return {k: v for k, v in result.items() if k in CHECKED}


def record(size_name: str, workloads, out: Path, instances=None) -> None:
    refs = json.loads(out.read_text()) if out.exists() else {}
    if refs.get("size", size_name) != size_name:
        raise SystemExit(f"{out} holds {refs['size']!r} references")
    refs["size"] = size_name
    refs["git_sha"] = run.git_sha()
    for workload in workloads:
        size = run.SIZES[size_name][workload]
        refs[workload] = {}
        for instance in instances if instances is not None else range(run.POOL):
            rep = run.spawn(workload, instance, size)
            result = rep.get("result")
            if rep.get("error") or result is None:
                raise SystemExit(f"{workload} instance {instance} failed:\n"
                                 + str(rep.get("error")))
            if workload == "lf-scan":
                # a model that fails here is kept, as a failure of this
                # commit, so the gate keeps counting it
                for k, model in enumerate(result["models"]):
                    if model.get("error"):
                        last = model["error"].strip().splitlines()[-1]
                        result["models"][k] = {"error": last}
                        print(f"lf-scan instance {instance} model {k} FAILED: {last}")
            refs[workload][str(instance)] = checked_values(result)
            stages = " ".join(f"{k} {v:.2f}" for k, v in rep["stages"].items())
            print(f"{workload} instance {instance}: total_s {rep['total_s']:.2f} "
                  f"({stages}) peak_rss_mb {rep['peak_rss_mb']:.0f}", flush=True)
        out.write_text(json.dumps(refs, separators=(",", ":")) + "\n")


def main() -> int:
    record("full", run.WORKLOADS, run.HERE / "references.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
