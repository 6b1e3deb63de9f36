"""Smoke test of the benchmark itself, on shrunken instances of all four
workloads (under a minute on one core).

    python3 benchmark/smoke_test.py

Checks that
  * every end-to-end metric named in BENCHMARK.json is printed by name
    with its unit, and the gate passes on every workload;
  * a perturbed reference value makes the gate count a failure;
  * a traced run reports every per-layer metric of BENCHMARK.json, its
    self-times are non-negative, and they sum to the root span totals;
  * in a directory holding only BENCHMARK.json and the benchmark files,
    the benchmark exits non-zero without printing a result.
Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import record_references
import run

SEED = 1
SELF_TIME_TOL = 1e-9     # seconds of floating-point slack per span


class SmokeFailure(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SmokeFailure(msg)


def bench(workload: str, refs, trace: int = 0, root=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke", "--references", str(refs)],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def perturb(result: dict, workload: str) -> None:
    """Move one reference value just outside its gate tolerance."""
    if workload == "sigma-13-13":
        result["vtsv"][0][0] *= 1.0 + 1e-7
    elif workload == "lf-scan":
        result["models"][0]["g_eha"][2] += 1e-5
    else:
        result["ladder"][0][1] += 1e-6


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.OUT_DIR / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = work / "references.json"
    record_references.record("smoke", run.WORKLOADS, refs,
                             instances=[SEED % run.POOL])

    for workload in run.WORKLOADS:
        code, lines = bench(workload, refs)
        expect(code == 0, f"{workload}: exit code {code}")
        summary = json.loads(lines[-1])
        expect(summary["correct"] and summary["failed"] == 0,
               f"{workload}: gate failed on the recorded reference")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            expect(any(ln.startswith(f"{workload} {name} = ") and ln.endswith(f" {unit}")
                       for ln in lines),
                   f"{workload}: {name} not printed with unit {unit}")
            got = summary["metrics"].get(name)
            expect(got is not None and got["unit"] == unit and got["value"] > 0,
                   f"{workload}: {name} missing or zero in the JSON summary")

        bad = work / f"perturbed-{workload}.json"
        data = json.loads(refs.read_text())
        perturb(data[workload][str(SEED % run.POOL)], workload)
        bad.write_text(json.dumps(data))
        code, lines = bench(workload, bad)
        summary = json.loads(lines[-1])
        expect(code == 0 and summary["failed"] >= 1 and not summary["correct"],
               f"{workload}: perturbed reference did not fail the gate")

        code, lines = bench(workload, refs, trace=1)
        summary = json.loads(lines[-1])
        expect(code == 0 and summary["correct"], f"{workload}: traced run failed")
        for metric in spec["per_layer"]:
            got = summary["metrics"].get(metric["name"])
            expect(got is not None and got["unit"] == metric["unit"],
                   f"{workload}: per-layer {metric['name']} missing or mis-united")
        trace = json.loads((run.OUT_DIR / f"{workload}.spans.json").read_text())
        self_s = trace["self_s"]
        roots = sum(s[4] - s[3] for s in trace["spans"] if s[1] < 0)
        expect(min(self_s) >= -SELF_TIME_TOL, f"{workload}: negative self time")
        expect(abs(sum(self_s) - roots) <= SELF_TIME_TOL * len(self_s),
               f"{workload}: self times sum to {sum(self_s)}, spans to {roots}")
        expect(not trace["missing"], f"{workload}: lookup sites gone: {trace['missing']}")
        print(f"{workload}: ok", flush=True)

    bare = work / "bare"
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmark")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "casci-11-10",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "the benchmark ran without the casq sources")
    print("bare directory: ok")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"smoke test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
