"""casq benchmark: one workload, timed for a fixed budget, outputs checked.

    python3 benchmark/run.py --workload casci-11-10 --seed 0 --seconds 31 --trace 0

Workloads: casci-11-10, epr-9-9, lf-scan, sigma-13-13 (see README.md).
The loop is closed: one worker process at a time, each a fresh
interpreter running one repetition.  A run first makes a few set-up
probes (a fresh interpreter that stops right before the first solver
call), then repeats the workload until one more repetition would
overrun the time budget (at least once).  With --trace 1 the repetitions alternate untraced and traced,
which gives the per-layer metrics and the tracing overhead.

Prints every metric by name with its unit, the run record, and as the
last stdout line one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("casci-11-10", "epr-9-9", "lf-scan", "sigma-13-13")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (never more than nproc): bit-reproducible reductions, and
# the second core of a 2-core machine stays with the parent and the system.
BLAS_THREADS = 1
SETUP_PROBES = 8
# A run, and any worker in it, is cut off after this many seconds.  The
# largest --seconds leaves room in it for the last repetition, which the
# budget check lets start up to --seconds.
RUN_LIMIT_S = 175.0
MAX_SECONDS = 120

# Correctness gate tolerances.
ENERGY_TOL = 1e-8        # Hartree, against the seed-commit reference
S2_TOL = 1e-6            # |<S^2> - S(S+1)| on every component
G_TOL = 1e-6             # principal g values, EHA and SOS
SIGMA_REL_TOL = 1e-9     # V^T sigma(V) against the reference, relative
SIGMA_SYM_TOL = 1e-10    # asymmetry of V^T sigma(V), relative

# Number of distinct input instances per workload.  A seed picks one of
# them (seed mod POOL), so every seed has a reference recorded from the
# seed commit.
POOL = 16

# Full sizes, and the shrunken ones of the smoke test.
SIZES = {
    "full": {
        "casci-11-10": {"cas": [11, 10], "roots": {"2": 12, "4": 4}, "guess_dim": 300},
        "epr-9-9": {"cas": [9, 9], "roots": {"2": 12, "4": 4}, "guess_dim": 300},
        "lf-scan": {"models": 100},
        "sigma-13-13": {"cas": [13, 13], "vectors": 3, "max_memory_gb": 1.0},
    },
    "smoke": {
        "casci-11-10": {"cas": [7, 7], "roots": {"2": 3, "4": 1}, "guess_dim": 40},
        "epr-9-9": {"cas": [5, 6], "roots": {"2": 3, "4": 1}, "guess_dim": 40},
        "lf-scan": {"models": 5},
        "sigma-13-13": {"cas": [7, 8], "vectors": 3, "max_memory_gb": 0.001},
    },
}

END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
# Reported on the workloads they apply to, and in every traced run.
STAGE_METRICS = ("casci_s", "magnetic_s", "models_per_s", "sigma_det_per_s",
                 "failed_frac")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(workload, instance, size, *, setup_only=False, trace=False,
          trace_path=None, timeout=RUN_LIMIT_S) -> dict:
    """Run one worker to completion and return its JSON result.

    A crash or timeout comes back as a result with an error and no
    timings; a timeout also sets ``timed_out``.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    t_spawn = time.monotonic()
    spec = {"workload": workload, "instance": instance, "size": size,
            "t_spawn": t_spawn, "setup_only": setup_only, "trace": trace,
            "trace_path": str(trace_path) if trace_path else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s",
                "timed_out": True, "wall_s": time.monotonic() - t_spawn}
    wall = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}",
                "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def check_ladder(got: dict, ref: dict, roots: dict) -> list[str]:
    """Multiplet counts and energies against the reference."""
    errors = []
    counts = {}
    for mult, _ in got["ladder"]:
        counts[str(mult)] = counts.get(str(mult), 0) + 1
    want = {str(m): c for m, c in roots.items()}
    if counts != want:
        errors.append(f"multiplet counts {counts} != {want}")
    energies = [e for _, e in got["ladder"]]
    ref_energies = [e for _, e in ref["ladder"]]
    if [m for m, _ in got["ladder"]] != [m for m, _ in ref["ladder"]] or \
            not _close(energies, ref_energies, ENERGY_TOL):
        errors.append("multiplet energies differ from the reference by "
                      f"more than {ENERGY_TOL:g} Eh")
    return errors


def check_invariants(got: dict) -> list[str]:
    """Spin purity and, where a g-tensor was made, Kramers pairing."""
    errors = []
    if got["s2_dev"] > S2_TOL:
        errors.append(f"spin contamination {got['s2_dev']:.2e} > {S2_TOL:g}")
    if "kramers_pairs" in got and 2 * got["kramers_pairs"] != got["basis_size"]:
        errors.append(f"{got['kramers_pairs']} Kramers pairs in a "
                      f"{got['basis_size']}-state basis")
    return errors


def check_g(got: dict, ref: dict) -> list[str]:
    return [f"{key} {got[key]} differs from {ref[key]}"
            for key in ("g_eha", "g_sos") if not _close(got[key], ref[key], G_TOL)]


def check_sigma(got: dict, ref: dict) -> list[str]:
    m, r = got["vtsv"], ref["vtsv"]
    scale = max(abs(x) for row in r for x in row)
    diff = max(abs(x - y) for gr, rr in zip(m, r) for x, y in zip(gr, rr))
    asym = max(abs(m[i][j] - m[j][i]) for i in range(len(m)) for j in range(i))
    errors = []
    if diff > SIGMA_REL_TOL * scale:
        errors.append(f"V^T sigma(V) off the reference by {diff / scale:.2e} relative")
    if asym > SIGMA_SYM_TOL * scale:
        errors.append(f"V^T sigma(V) asymmetric by {asym / scale:.2e} relative")
    return errors


def check(workload: str, size: dict, got: dict, ref: dict | None) -> list[list[str]]:
    """Failure messages per operation of one repetition ([] = passed)."""
    if workload == "lf-scan":
        models = got["models"]
        refs = ref["models"] if ref else [None] * len(models)
        out = []
        for g, r in zip(models, refs):
            if g.get("error"):
                out.append([g["error"].strip().splitlines()[-1]])
            elif r is None:
                out.append(["no reference"])
            elif r.get("error"):
                # failed at the reference commit: no values to compare, so
                # only the reference-free checks apply
                out.append(check_invariants(g))
            else:
                want = {}
                for mult, _ in r["ladder"]:
                    want[mult] = want.get(mult, 0) + 1
                out.append(check_ladder(g, r, want) + check_invariants(g)
                           + check_g(g, r))
        return out
    if ref is None:
        return [["no reference"]]
    if workload == "sigma-13-13":
        return [check_sigma(got, ref)]
    errors = check_ladder(got, ref, size["roots"]) + check_invariants(got)
    if workload == "epr-9-9":
        errors += check_g(got, ref)
    return [errors]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str, references: dict) -> dict:
    size = SIZES[size_name][workload]
    instance = seed % POOL
    ref = references.get(workload, {}).get(str(instance))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload}.spans.json"

    t0 = time.monotonic()
    deadline = t0 + seconds
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(workload, instance, size, setup_only=True)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])

    reps = []           # untraced repetitions
    traced = []         # traced repetitions (trace runs only)
    failures = []       # failure messages per operation
    env = {}
    cut = False         # the run limit ended a repetition
    while not cut:
        kinds = (False, True) if trace else (False,)
        walls = []
        for kind in kinds:
            remaining = RUN_LIMIT_S - (time.monotonic() - t0)
            rep = spawn(workload, instance, size, trace=kind,
                        trace_path=trace_path if kind else None,
                        timeout=max(1.0, remaining))
            walls.append(rep["wall_s"])
            env = rep.get("env", env)
            if rep.get("timed_out") and (traced if kind else reps):
                # cut short by the run limit after a repetition of its kind
                # completed: the budget ran out, which is no wrong result
                cut = True
                break
            if rep.get("error") or "result" not in rep:
                n_ops = size.get("models", 1) if workload == "lf-scan" else 1
                msg = (rep.get("error") or "no result").strip().splitlines()[-1]
                failures.extend([[msg]] * n_ops)
                continue
            failures.extend(check(workload, size, rep["result"], ref))
            (traced if kind else reps).append(rep)
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
        # stop when one more round, timed like the last, would overrun
        if time.monotonic() + sum(walls) > deadline:
            break

    failed = sum(1 for f in failures if f)
    metrics = {
        "setup_s": _median(setups),
        "total_s": _median([r["total_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }
    # the end-to-end figures that only some workloads have
    stage = {"failed_frac": failed / len(failures)}
    for name in ("casci_s", "magnetic_s"):
        if reps and name in reps[0]["stages"]:
            stage[name] = _median([r["stages"][name] for r in reps])
    if reps and workload == "lf-scan":
        stage["models_per_s"] = size["models"] / metrics["total_s"]
    if reps and workload == "sigma-13-13":
        n_det = reps[0]["result"]["n_det"]
        stage["sigma_det_per_s"] = n_det * size["vectors"] / metrics["total_s"]

    layers = {}
    if trace:
        names = sorted({k for r in traced for k in r["layers"]})
        layers = {k: _median([r["layers"][k] for r in traced]) for k in names}
        layers.update(dict.fromkeys(STAGE_METRICS, 0.0), **stage)
        untraced_total = metrics["total_s"]
        traced_total = _median([r["total_s"] for r in traced])
        layers["trace.overhead_frac"] = (
            traced_total / untraced_total - 1.0 if untraced_total else 0.0)

    record = {
        "workload": workload, "seed": seed, "instance": instance,
        "size": size_name, "block": size, "seconds": seconds,
        "trace": trace, "git_sha": git_sha(), "nproc": nproc(),
        "blas_threads": BLAS_THREADS, "numpy": env.get("numpy"),
        "openblas": env.get("blas"), "python": sys.version.split()[0],
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "setup_samples": len(setups), "cut_by_run_limit": cut,
        "wall_s": time.monotonic() - t0,
    }
    return {"record": record, "metrics": metrics, "stage": stage,
            "layers": layers, "failures": failures}


def layer_unit(name: str) -> str:
    if name == "models_per_s":
        return "1/s"
    if name.endswith("det_per_s"):
        return "det/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    for suffix, unit in ((".gflop", "GFLOP"), ("_gb", "GB"), ("_frac", "1"),
                         ("_ratio", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print one run's metrics and record; return its JSON summary."""
    for k, msgs in enumerate(res["failures"]):
        for msg in msgs:
            print(f"FAILED {workload} op {k}: {msg}")
    for name, value in res["metrics"].items():
        print(f"{workload} {name} = {value:.6g} {END_TO_END[name]}")
    shown = res["layers"] if trace else res["stage"]
    for name, value in shown.items():
        print(f"{workload}   {name} = {value:.6g} {layer_unit(name)}")
    print("record: " + json.dumps(res["record"]))

    failed = sum(1 for f in res["failures"] if f)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in res["metrics"].items()}
    summary = {"correct": failed == 0, "attempted": len(res["failures"]),
               "failed": failed, "metrics": metrics}
    (OUT_DIR / f"{workload}.{'trace' if trace else 'run'}.json").write_text(
        json.dumps({"record": res["record"], "stage": res["stage"], **summary},
                   indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="smoke runs the shrunken instances of the smoke test")
    parser.add_argument("--references", type=Path,
                        default=HERE / "references.json")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    if not (ROOT / "src" / "casq" / "__init__.py").is_file():
        print(f"casq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(args.references.read_text())
    if references.get("size") != args.size:
        print(f"{args.references} holds {references.get('size')!r} references, "
              f"not {args.size!r}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in chosen:
        res = run(workload, args.seed, args.seconds, bool(args.trace),
                  args.size, references)
        summaries[workload] = report(workload, res, bool(args.trace))
        if len(chosen) > 1:
            print(json.dumps(summaries[workload]))
    if len(chosen) == 1:
        print(json.dumps(summaries[args.workload]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}/{k}": v for w, s in summaries.items()
                        for k, v in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
