"""Command-line front end: count / casci / gtensor / spectrum.

Exit codes: 0 success, 1 input error (command-line usage errors
included), 2 numerical non-convergence, 3 internal invariant breach.
Every run writes out/manifest.json, on failure paths included.  The
BLAS thread count is set by OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS before start-up; the manifest records their values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from casq import __version__, casci, driver
from casq.analysis import decompose, format_decomposition
from casq.davidson import DavidsonNotConverged
from casq.detspace import cas_dimension
from casq.gtensor import format_gap_report
from casq.ingest import (ParseError, finite_float, parse_property_integrals,
                         parse_run_config, read_fcidump, zero_properties)
from casq.ligandfield import build_ligand_field_model, preset_model
from casq.spectra import (SpectrumLine, broaden, energy_grid, spectrum_csv,
                          transition_table)
from casq.units import HARTREE_TO_CM, HARTREE_TO_EV

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2
EXIT_INVARIANT = 3

# --oracle dense: largest sigma residual of a reported root (Hartree), or
# 10 Davidson tol when larger: each Ritz residual is below tol, and the
# residual recomputed from the renormalized root keeps a margin above it
ORACLE_RESIDUAL_TOL = 1e-8

# determinants below this weight (percent) are left out of the state table
DECOMPOSITION_PERCENT = 1.0

# read by the BLAS libraries when numpy loads; recorded in the manifest
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(ValueError):
    """Malformed command line or environment: an input error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print and exit with code 2,
    the code reserved here for non-convergence."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


class Manifest:
    """Run record emitted on every invocation, success or failure."""

    def __init__(self, command: str | None, out: str | None, argv: list[str]):
        self.data = {
            "command": command,
            "argv": argv,
            "config": {},
            "inputs": {},
            "artifact_version": __version__,
            "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            "timings_s": {},
            "warnings": [],
            "status": "running",
            "exit_code": None,
        }
        self.out_dir = Path(out or "casq_out")

    def add_input(self, path: Path):
        self.data["inputs"][str(path)] = hashlib.sha256(
            path.read_bytes()).hexdigest()

    @contextmanager
    def stage(self, name: str):
        """Time the enclosed block, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.data["timings_s"][name] = round(time.perf_counter() - t0, 6)

    def warn(self, message: str):
        self.data["warnings"].append(message)

    def finish(self, exit_code: int | None, error: BaseException | None = None):
        self.data["status"] = "ok" if exit_code == EXIT_OK else "failed"
        self.data["exit_code"] = exit_code
        # Linux reports ru_maxrss in KiB
        self.data["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        if error is not None:
            self.data["error"] = {"type": type(error).__name__,
                                  "message": str(error)}
        if isinstance(error, DavidsonNotConverged):
            part = error.result
            self.data["error"].update(
                iterations=part.iterations, matvecs=part.n_matvec,
                energies=part.energies.tolist(),
                residual_norms=part.residual_norms.tolist())
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.out_dir / "manifest.json"
            path.write_text(json.dumps(self.data, indent=2, default=str) + "\n")
        except OSError as exc:  # manifest failure must not mask the result
            print(f"warning: could not write manifest: {exc}", file=sys.stderr)


def _read_text(path_str: str, manifest: Manifest) -> str:
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path_str!r}")
    manifest.add_input(path)
    return path.read_text()


def _report(out_dir: Path, stem: str, text: str, data):
    """Print a text report and write it as <stem>.txt, data as <stem>.json."""
    print(text, end="")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.txt").write_text(text)
    (out_dir / f"{stem}.json").write_text(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _out_dir(value: str) -> str:
    """An empty --out names no directory: a usage error, whose manifest
    goes to casq_out, as a run's without --out does."""
    if not value:
        raise argparse.ArgumentTypeError("empty: it must name a directory")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="casq",
        description="Determinant CASCI with spin-orbit QDPT, g-tensors "
                    "and absorption spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="determinant count of a CAS block")
    count.add_argument("--nelec", type=int, required=True)
    count.add_argument("--norb", type=int, required=True)
    count.add_argument("--ms2", type=int, required=True)
    count.add_argument("--out", type=_out_dir, default=None)

    cas = sub.add_parser("casci", help="CASCI states and decompositions")
    gt = sub.add_parser("gtensor", help="EHA and sum-over-states g-tensors")
    spect = sub.add_parser("spectrum", help="oscillator strengths and curve")
    for p in (cas, gt, spect):
        p.add_argument("--config", default=None, help="key=value run config")
        p.add_argument("--fcidump", default=None)
        p.add_argument("--roots-mult", action="append", default=[],
                       metavar="N=K", help="roots per multiplicity, repeatable")
        p.add_argument("--out", type=_out_dir, default=None,
                       help="output directory")
    for p in (cas, gt):
        p.add_argument("--lf", default=None, metavar="PRESET",
                       help="built-in ligand-field preset "
                            "(d1-tetragonal, d9-planar)")
    for p in (gt, spect):
        p.add_argument("--prop", default=None,
                       help="property matrices (ANGMOM/SOC/DIP sections)")
    gt.add_argument("--zeta", type=finite_float, default=None,
                    help="override the --lf preset SOC constant (cm^-1)")
    cas.add_argument("--oracle", choices=["dense"], default=None,
                     help="check the roots against dense diagonalization")
    spect.add_argument("--lines", default=None,
                       help="explicit line list file: delta_e_ev f_osc [label]")
    return parser


def _parse_roots_flags(flags: list[str]) -> dict[int, int]:
    roots = {}
    for item in flags:
        try:
            mult, count = map(int, item.split("="))
        except ValueError:
            raise ValueError(f"--roots-mult expects N=K, got {item!r}") from None
        if mult in roots:
            # the last of two counts would otherwise win silently
            raise UsageError(f"--roots-mult {mult} given twice "
                             f"({mult}={roots[mult]} and {item})")
        roots[mult] = count
    return roots


def _load_problem(args, manifest: Manifest):
    """(integrals, properties, config) from the input flags, with one run
    config parse; a line-list run has no integrals: (None, None, config)."""
    sources = [s for s in ("lf", "fcidump", "lines") if hasattr(args, s)]
    if sum(getattr(args, s) is not None for s in sources) != 1:
        raise ValueError("exactly one of "
                         + " or ".join(f"--{s}" for s in sources)
                         + " is required")
    # flags the subcommand does not define read as absent
    lf, zeta, prop_path = map(vars(args).get, ("lf", "zeta", "prop"))
    if zeta is not None and lf is None:
        raise ValueError("--zeta needs --lf")
    if prop_path is not None and args.fcidump is None:
        raise ValueError("--prop needs --fcidump")

    ints = prop = default_cas = default_ms2 = None
    if lf is not None:
        model = preset_model(lf, zeta=zeta)
        _, ints, prop, preset = build_ligand_field_model(model)
        default_cas = preset.cas
    elif args.fcidump is not None:
        data = read_fcidump(_read_text(args.fcidump, manifest))
        ints, n_orb = data.integrals, data.orbitals.n_orb
        prop = zero_properties(n_orb)
        if prop_path is not None:
            prop = parse_property_integrals(_read_text(prop_path, manifest),
                                            n_orb)
        if data.n_elec is not None:
            default_cas = (data.n_elec, n_orb)
        default_ms2 = data.ms2
    text = _read_text(args.config, manifest) if args.config is not None else ""
    config = parse_run_config(text, default_cas=default_cas,
                              default_ms2=default_ms2,
                              needs_cas=ints is not None)

    roots = _parse_roots_flags(args.roots_mult) or config.roots_per_multiplicity
    if ints is not None and not any(roots.values()):
        raise ValueError(f"no roots to solve: every root count is 0 ({roots})")
    config = replace(config, roots_per_multiplicity=roots)
    manifest.data["config"] = asdict(config)
    return ints, prop, config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args, manifest: Manifest) -> None:
    with manifest.stage("count"):
        n = cas_dimension(args.nelec, args.norb, args.ms2)
    print(n)
    manifest.data["config"] = {"nelec": args.nelec, "norb": args.norb,
                               "ms2": args.ms2, "count": n}


def _state_rows(multiplets):
    rows = []
    e0 = min(m.energy for m in multiplets)
    for m in sorted(multiplets, key=lambda m: m.energy):
        top = m.component(m.two_s)
        lines = decompose(top, threshold_percent=DECOMPOSITION_PERCENT)
        rows.append({
            "multiplicity": m.multiplicity,
            "energy_hartree": m.energy,
            "delta_e_ev": (m.energy - e0) * HARTREE_TO_EV,
            "delta_e_cm": (m.energy - e0) * HARTREE_TO_CM,
            "s2": top.s2_expect,
            "decomposition": format_decomposition(lines),
        })
    return rows


def _format_state_table(rows) -> str:
    out = ["# weights merge alpha/beta-conjugate determinant pairs",
           "state  2S+1        E (Hartree)    dE (eV)    dE (cm^-1)    <S^2>"]
    for k, r in enumerate(rows):
        out.append(f"{k:>5d}  {r['multiplicity']:>4d}  {r['energy_hartree']:>17.10f}"
                   f"  {r['delta_e_ev']:>9.4f}  {r['delta_e_cm']:>12.2f}"
                   f"  {r['s2']:>7.4f}")
        for line in r["decomposition"]:
            out.append(f"           {line}")
    return "\n".join(out) + "\n"


def cmd_casci(args, manifest: Manifest) -> None:
    ints, _, config = _load_problem(args, manifest)
    with manifest.stage("casci"):
        multiplets = driver.solve_multiplets(ints, config)

    if args.oracle == "dense":
        with manifest.stage("oracle"):
            gap = _oracle_gap(multiplets, ints, config)
            residual = _worst_residual(multiplets, ints)
        if gap > 1e-9:
            manifest.warn(f"davidson/dense mismatch {gap:.3e} Hartree")
            raise casci.InvariantBreach(
                f"Davidson energy deviates from the dense oracle by "
                f"{gap:.3e} Hartree")
        # a small block is solved densely on both sides, so the energies
        # above compare the dense solver with itself; sigma checks it
        bound = max(ORACLE_RESIDUAL_TOL, 10 * config.davidson.tol)
        if residual > bound:
            manifest.warn(f"sigma residual {residual:.3e} Hartree")
            raise casci.InvariantBreach(
                f"a top component's residual |sigma(x) - E x| is "
                f"{residual:.3e} Hartree (> {bound:.0e})")

    rows = _state_rows(multiplets)
    _report(manifest.out_dir, "casci_report", _format_state_table(rows), rows)


def _oracle_gap(multiplets, ints, config) -> float:
    """Largest |E - E_dense| of the multiplets, against one dense solve of
    the top block of each multiplicity."""
    n_elec, n_orb = config.cas
    gaps = [0.0]
    for mult, count in config.roots_per_multiplicity.items():
        if count:
            ref = casci.dense_solve(casci.enumerate_cas(n_elec, n_orb, mult - 1),
                                    ints, count)
            got = (m.energy for m in multiplets if m.multiplicity == mult)
            gaps += [abs(e - s.energy) for e, s in zip(got, ref)]
    return max(gaps)


def _worst_residual(multiplets, ints) -> float:
    """Largest |sigma(x) - E x| over the top components of the multiplets."""
    tops = (m.component(m.two_s) for m in multiplets)
    return max((float(np.linalg.norm(casci.sigma(c.space, ints, c.coeffs)
                                     - c.energy * c.coeffs)) for c in tops),
               default=0.0)


def _g_row(g, roots_desc: str) -> dict:
    """One g row of gtensor_report.json.  It holds G = g g^T, not g: g
    depends on the basis eigh picks within the degenerate ground Kramers
    pair (g -> g R for a rotation R), G and the principal values do not."""
    gx, gy, gz = g.principal
    return {"method": g.method, "roots": roots_desc,
            "g_x": round(gx, 3), "g_y": round(gy, 3), "g_z": round(gz, 3),
            "G": [list(map(float, r)) for r in g.matrix @ g.matrix.T]}


def cmd_gtensor(args, manifest: Manifest) -> None:
    ints, prop, config = _load_problem(args, manifest)
    with manifest.stage("gtensor"):
        result = driver.run_gtensor(ints, prop, config)
    for w in result.warnings:
        manifest.warn(w)

    roots_desc = ", ".join(
        f"{c} x (2S+1={m})" for m, c in
        sorted(config.roots_per_multiplicity.items()))
    rows = [_g_row(g, roots_desc) for g in (result.g_eha, result.g_sos)
            if g is not None]
    table = ["method    roots                          g_x      g_y      g_z"]
    for r in rows:
        table.append(f"{r['method']:<8s}  {r['roots']:<28s}  "
                     f"{r['g_x']:>6.3f}  {r['g_y']:>6.3f}  {r['g_z']:>6.3f}")
    gap_text = format_gap_report(result.gaps)
    text = "\n".join(table) + "\n\n" + gap_text + "\n"
    _report(manifest.out_dir, "gtensor_report", text, {
        "g": rows,
        "gaps": [dict(r) for r in result.gaps.rows],
        "quartet_below_doublet": result.gaps.quartet_below_doublet,
    })


def _parse_lines_file(text: str):
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split(None, 2)
        try:
            if len(parts) < 2:
                raise ValueError("expected 'delta_e_ev f_osc [label]'")
            lines.append(SpectrumLine(
                delta_e_ev=finite_float(parts[0]), f_osc=finite_float(parts[1]),
                from_state=0, to_state=lineno,
                label=parts[2] if len(parts) > 2 else ""))
        except ValueError as exc:
            raise ParseError(f"lines file, line {lineno}: {exc}") from None
    return lines


def cmd_spectrum(args, manifest: Manifest) -> None:
    ints, prop, config = _load_problem(args, manifest)
    if ints is None:
        lines = _parse_lines_file(_read_text(args.lines, manifest))
    else:
        if not np.any(prop.D):
            raise ValueError("no dipole matrices available: provide DIP "
                             "sections in --prop or use --lines")
        with manifest.stage("states"):
            roots = config.roots_per_multiplicity
            mult = min(m for m in roots if roots[m])
            states = driver.solve_multiplicity(ints, config, mult, roots[mult])
        lines = transition_table(states, prop)

    spec = config.spectrum
    with manifest.stage("broaden"):
        grid = energy_grid(spec.min_ev, spec.max_ev, spec.step_ev)
        curve = broaden(lines, spec.fwhm_ev, grid)

    rows = [{"from": ln.from_state, "to": ln.to_state,
             "delta_e_ev": ln.delta_e_ev, "f_osc": ln.f_osc,
             "band": ln.label, "spin_forbidden": ln.spin_forbidden}
            for ln in lines]
    table = ["from  to    dE (eV)      f_osc  band"]
    for r in rows:
        table.append(f"{r['from']:>4d}  {r['to']:>2d}  {r['delta_e_ev']:>9.4f}"
                     f"  {r['f_osc']:>9.6f}  {r['band']}")
    _report(manifest.out_dir, "lines", "\n".join(table) + "\n", rows)
    (manifest.out_dir / "spectrum.csv").write_text(spectrum_csv(grid, curve))


def _out_from_argv(argv: list[str]) -> str | None:
    """The --out value of a command line the parser rejected."""
    for k, tok in enumerate(argv):
        if tok == "--out" and k + 1 < len(argv):
            return argv[k + 1]
        if tok.startswith("--out="):
            return tok.partition("=")[2]
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # casq takes no option before the subcommand; argparse would read
        # the option's value as the subcommand and name that instead
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"unrecognized arguments: {argv[0]} "
                         f"(options follow the subcommand)")
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error (input error): {exc}", file=sys.stderr)
        Manifest(None, _out_from_argv(argv), argv).finish(EXIT_INPUT, exc)
        return EXIT_INPUT

    manifest = Manifest(args.command, args.out, argv)
    handlers = {"count": cmd_count, "casci": cmd_casci,
                "gtensor": cmd_gtensor, "spectrum": cmd_spectrum}
    code, error = EXIT_OK, None
    try:
        handlers[args.command](args, manifest)
    except Exception as exc:
        code, error = _classify_error(exc), exc
        kind = {EXIT_INPUT: "input error", EXIT_NOCONV: "non-convergence",
                EXIT_INVARIANT: "invariant breach"}[code]
        print(f"error ({kind}): {exc}", file=sys.stderr)
    except BaseException as exc:    # an interrupt: recorded, then re-raised
        code, error = None, exc
        raise
    finally:
        manifest.finish(code, error)
    return code


def _classify_error(exc: Exception) -> int:
    if isinstance(exc, DavidsonNotConverged):
        return EXIT_NOCONV
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_INPUT
    return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
