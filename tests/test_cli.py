import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casq.cli
from casq.casci import InvariantBreach
from casq.cli import UsageError, _classify_error, _g_row, main
from casq.davidson import DavidsonNotConverged, DavidsonResult
from casq.ingest import ParseError, write_fcidump
from casq.gtensor import _principal_from_g
from casq.ligandfield import build_ligand_field_model
from casq.soc import KramersPairingError, PhaseConsistencyError
from casq.spectra import SpectrumLine, broaden

from conftest import kramers_split_d5_model, make_random_integrals, spin_purity_field


def run_cli(args, tmp_path, out_name="out"):
    out = tmp_path / out_name
    code = main(args + ["--out", str(out)])
    manifest = None
    mpath = out / "manifest.json"
    if mpath.is_file():
        manifest = json.loads(mpath.read_text())
    return code, out, manifest


def test_count_table_spaces(tmp_path, capsys):
    code, _, manifest = run_cli(
        ["count", "--nelec", "13", "--norb", "14", "--ms2", "1"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "10306296"
    assert manifest["config"]["count"] == 10306296
    code, _, _ = run_cli(["count", "--nelec", "9", "--norb", "5",
                          "--ms2", "1"], tmp_path, "out2")
    assert code == 0


def test_count_parity_error(tmp_path, capsys):
    code, _, manifest = run_cli(
        ["count", "--nelec", "2", "--norb", "2", "--ms2", "1"], tmp_path)
    assert code == 1
    assert manifest["status"] == "failed"
    assert "parity" in capsys.readouterr().err


def test_casci_lf_preset_zeta_zero(tmp_path, capsys):
    code, out, manifest = run_cli(["casci", "--lf", "d1-tetragonal"], tmp_path)
    assert code == 0
    report = json.loads((out / "casci_report.json").read_text())
    assert len(report) == 5
    assert all(r["multiplicity"] == 2 for r in report)
    # casci is spin-free: single-determinant states in the diagonal field
    for r in report:
        assert len(r["decomposition"]) == 1
        assert r["decomposition"][0].endswith("(100%)")
    assert manifest["status"] == "ok" and "error" not in manifest
    assert "casci" in manifest["timings_s"]


def test_casci_oracle_mode(tmp_path):
    code, out, manifest = run_cli(
        ["casci", "--lf", "d9-planar", "--oracle", "dense"], tmp_path)
    assert code == 0
    assert "oracle" in manifest["timings_s"]


def test_oracle_mismatch_exits_three(tmp_path, monkeypatch, capsys):
    import casq.driver

    solve = casq.driver.solve_multiplets

    def shifted(ints, config):
        out = solve(ints, config)
        out[0].energy += 1e-6
        return out

    monkeypatch.setattr(casq.driver, "solve_multiplets", shifted)
    code, _, manifest = run_cli(
        ["casci", "--lf", "d1", "--oracle", "dense"], tmp_path)
    assert code == 3 and manifest["exit_code"] == 3
    assert "oracle" in manifest["timings_s"]
    assert "error (invariant breach)" in capsys.readouterr().err


def test_oracle_catches_a_dense_solve_error(tmp_path, monkeypatch, capsys):
    # both the run and the oracle solve the 5-determinant d1 block densely,
    # so only the sigma residual can see the perturbed root
    import casq.casci

    solve = casq.casci.dense_solve

    def perturbed(space, ints, n_roots):
        states = solve(space, ints, n_roots)
        v = states[0].coeffs + 1e-5 / np.sqrt(space.size)
        states[0].coeffs = v / np.linalg.norm(v)
        return states

    monkeypatch.setattr(casq.casci, "dense_solve", perturbed)
    code, _, manifest = run_cli(
        ["casci", "--lf", "d1", "--oracle", "dense"], tmp_path)
    assert code == 3 and manifest["exit_code"] == 3
    assert "residual" in manifest["error"]["message"]
    assert "error (invariant breach)" in capsys.readouterr().err


def test_oracle_solves_each_top_block_once(tmp_path, monkeypatch):
    # guess_dim 3 keeps the run's 24-determinant doublet and 4-determinant
    # quartet blocks on Davidson: every dense solve is the oracle's, one
    # per multiplicity, and the run assembles each multiplicity once
    import casq.casci
    import casq.driver

    dense, assembled = [], []
    solve, assemble = casq.casci.dense_solve, casq.driver.assemble_multiplets

    def spy_dense(space, ints, n_roots):
        dense.append((space.ms2 + 1, n_roots))
        return solve(space, ints, n_roots)

    def spy_assemble(states, ints):
        assembled.append(states[0].multiplicity)
        return assemble(states, ints)

    monkeypatch.setattr(casq.casci, "dense_solve", spy_dense)
    monkeypatch.setattr(casq.driver, "assemble_multiplets", spy_assemble)
    ints = make_random_integrals(4, 61)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    (tmp_path / "m.cfg").write_text(
        "roots_mult_2=3\nroots_mult_4=1\ndavidson_tol=1e-10\nguess_dim=3\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "m.fcidump"),
         "--config", str(tmp_path / "m.cfg"), "--oracle", "dense"], tmp_path)
    assert code == 0, manifest.get("error")
    assert sorted(dense) == [(2, 3), (4, 1)]
    assert sorted(assembled) == [2, 4]


def test_oracle_accepts_a_loose_davidson_tol(tmp_path, davidson_runs):
    # the 300-determinant doublet and 90-determinant quartet blocks are
    # solved by Davidson at tol 1e-6, so their roots carry residuals up to
    # tol (0.74 tol at worst here), far above the bound's 1e-8 floor: the
    # bound must scale with the tol the run asked for
    ints = make_random_integrals(6, 206)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 5, 1))
    (tmp_path / "m.cfg").write_text(
        "cas_nelec=5\ncas_norb=6\nroots_mult_2=5\nroots_mult_4=4\n"
        "davidson_tol=1e-6\nguess_dim=9\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "m.fcidump"),
         "--config", str(tmp_path / "m.cfg"), "--oracle", "dense"], tmp_path)
    assert code == 0, manifest.get("error")
    assert 300 in davidson_runs and 90 in davidson_runs


def test_spin_impure_roots_exit_three(tmp_path, monkeypatch, capsys):
    # quartets lie among the lowest roots of this d7 doublet block: solved
    # without the spin projector, the roots fail the <S^2> check
    import casq.casci

    monkeypatch.setattr(casq.casci, "project_spin",
                        lambda space, vecs: np.array(vecs, dtype=float))
    _, ints, _, _ = build_ligand_field_model(spin_purity_field(7))
    (tmp_path / "d7.fcidump").write_text(write_fcidump(ints, 7, 1))
    (tmp_path / "d7.cfg").write_text("cas_nelec=7\ncas_norb=5\nroots_mult_2=5\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "d7.fcidump"),
         "--config", str(tmp_path / "d7.cfg")], tmp_path)
    assert code == 3 and manifest["exit_code"] == 3
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "InvariantBreach"
    assert "<S^2>" in manifest["error"]["message"]
    assert "error (invariant breach)" in capsys.readouterr().err


def test_phase_inconsistency_exits_three(tmp_path, monkeypatch, capsys):
    # a wrong crossing sign in the raising spin flip (every sign of its
    # beta rows negated) breaks the Hermiticity of the SOC matrix built
    # from the projected roots' ladder phases
    import casq.soc

    links = casq.soc.flip_raise_links

    def flipped(space):
        *operands, (bra_rows, ket_rows, sign) = links(space)
        return (*operands, (bra_rows, ket_rows, -sign))

    monkeypatch.setattr(casq.soc, "flip_raise_links", flipped)
    code, _, manifest = run_cli(["gtensor", "--lf", "d9-planar"], tmp_path)
    assert code == 3 and manifest["exit_code"] == 3
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "PhaseConsistencyError"
    assert "Hermiticity" in manifest["error"]["message"]
    assert "error (invariant breach)" in capsys.readouterr().err


def _ci_cas56(tmp_path) -> list[str]:
    """The CAS(5,6) FCIDUMP of the CI's installed-script step, with 3
    doublets and 2 quartets at the automatic guess_dim: both top blocks
    (300 and 90 determinants) take the dense route."""
    ints = make_random_integrals(6, 11, core=0.0)
    (tmp_path / "cas56.fcidump").write_text(write_fcidump(ints, 5, 1))
    (tmp_path / "cas56.cfg").write_text("roots_mult_2=3\nroots_mult_4=2\n")
    return ["--fcidump", str(tmp_path / "cas56.fcidump"),
            "--config", str(tmp_path / "cas56.cfg")]


def test_rayleigh_drift_exits_three(tmp_path, monkeypatch, capsys):
    # a sigma off by 1e-6 x moves the Rayleigh quotient of each quartet's
    # M_S = 1/2 component away from its top component's energy; the dense
    # solves use no sigma, so the drift reaches only that check
    import casq.casci

    sigma = casq.casci.sigma

    def shifted(space, ints, vec, **kw):
        return sigma(space, ints, vec, **kw) + 1e-6 * vec

    monkeypatch.setattr(casq.casci, "sigma", shifted)
    code, _, manifest = run_cli(["casci", *_ci_cas56(tmp_path)], tmp_path)
    assert code == 3 and manifest["exit_code"] == 3
    assert manifest["error"]["type"] == "InvariantBreach"
    assert "Rayleigh quotient" in manifest["error"]["message"]
    assert "error (invariant breach)" in capsys.readouterr().err


def test_negated_s_minus_entry_exits_three(tmp_path, capsys,
                                           negated_s_minus_entry):
    code, _, manifest = run_cli(["casci", *_ci_cas56(tmp_path)], tmp_path)
    assert code == 3 and manifest["error"]["type"] == "InvariantBreach"
    assert "spin flip" in manifest["error"]["message"]
    assert "error (invariant breach)" in capsys.readouterr().err


def test_oracle_rejected_by_spectrum(tmp_path, capsys):
    (tmp_path / "lines.txt").write_text("2.0 1.0\n")
    code, _, manifest = run_cli(
        ["spectrum", "--lines", str(tmp_path / "lines.txt"),
         "--oracle", "dense"], tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert "--oracle" in capsys.readouterr().err


def test_gtensor_oracle_is_a_usage_error(tmp_path, capsys):
    code, out, manifest = run_cli(
        ["gtensor", "--lf", "d1", "--oracle", "dense"], tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert "--oracle" in capsys.readouterr().err
    assert not (out / "gtensor_report.txt").exists()


def test_zeta_needs_lf(tmp_path, capsys):
    ints = make_random_integrals(3, 207)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    code, _, manifest = run_cli(
        ["gtensor", "--fcidump", str(tmp_path / "m.fcidump"), "--zeta", "100"],
        tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert "--zeta needs --lf" in capsys.readouterr().err
    assert manifest["error"]["type"] == "ValueError"
    assert "--zeta needs --lf" in manifest["error"]["message"]


@pytest.mark.parametrize("argv, flag", [
    (["casci", "--lf", "d1", "--prop", "m.prop"], "--prop"),
    (["casci", "--lf", "d1", "--zeta", "5"], "--zeta"),
    (["spectrum", "--lf", "d1"], "--lf"),
    (["spectrum", "--lines", "lines.txt", "--zeta", "5"], "--zeta"),
], ids=["casci-prop", "casci-zeta", "spectrum-lf", "spectrum-zeta"])
def test_flag_outside_its_subcommands_is_a_usage_error(tmp_path, capsys,
                                                       argv, flag):
    # each flag goes only on the subcommands that read it
    code, _, manifest = run_cli(argv, tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert manifest["error"]["type"] == "UsageError"
    assert flag in manifest["error"]["message"]
    assert flag in capsys.readouterr().err


def _not_converged():
    return DavidsonNotConverged(DavidsonResult(
        energies=np.zeros(1), vectors=np.zeros((2, 1)), iterations=1,
        residual_norms=np.ones(1), converged=False))


@pytest.mark.parametrize("exc, code", [
    (_not_converged(), 2),
    (InvariantBreach("x"), 3),
    (KramersPairingError("x"), 3),
    (PhaseConsistencyError("x"), 3),
    (AssertionError("x"), 3),
    (KeyError("x"), 3),
    (ParseError("x"), 1),
    (UsageError("x"), 1),
    (FileNotFoundError("x"), 1),
    (ValueError("x"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_follows_the_exception_type(exc, code):
    assert _classify_error(exc) == code


def test_interrupted_run_records_failure(tmp_path, monkeypatch):
    import casq.driver

    def interrupted(ints, config):
        raise KeyboardInterrupt

    monkeypatch.setattr(casq.driver, "solve_multiplets", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["casci", "--lf", "d1", "--out", str(tmp_path / "out")])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["exit_code"] is None
    assert manifest["error"]["type"] == "KeyboardInterrupt"
    assert "casci" in manifest["timings_s"]


def test_casci_fcidump_roundtrip(tmp_path):
    ints = make_random_integrals(4, 201)
    (tmp_path / "model.fcidump").write_text(write_fcidump(ints, 4, 0))
    (tmp_path / "run.cfg").write_text(
        "cas_nelec=4\ncas_norb=4\nroots_mult_1=3\nroots_mult_3=2\n")
    code, out, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "model.fcidump"),
         "--config", str(tmp_path / "run.cfg")], tmp_path)
    assert code == 0
    report = json.loads((out / "casci_report.json").read_text())
    mults = sorted(r["multiplicity"] for r in report)
    assert mults == [1, 1, 1, 3, 3]
    assert len(manifest["inputs"]) == 2


def test_casci_missing_fcidump(tmp_path):
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "absent.fcidump")], tmp_path)
    assert code == 1
    assert manifest["status"] == "failed"


def test_casci_on_a_header_only_fcidump(tmp_path):
    # every integral is zero, so every spin is degenerate with every other:
    # the dense route takes the doublets by projection (it exited 3)
    (tmp_path / "zero.fcidump").write_text("&FCI NORB=4,NELEC=3,MS2=1,/\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "zero.fcidump")], tmp_path)
    assert code == 0 and manifest["exit_code"] == 0


def test_norb_beyond_physical_memory_is_an_input_error(tmp_path):
    # refused before its integral arrays (74.5 GiB of g2) are allocated
    (tmp_path / "huge.fcidump").write_text("&FCI NORB=100000,NELEC=2,MS2=0,/\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "huge.fcidump")], tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert manifest["error"]["type"] == "ParseError"
    assert "NORB=100000" in manifest["error"]["message"]
    assert "bytes" in manifest["error"]["message"]


def test_casci_requires_one_source(tmp_path, capsys):
    code, _, _ = run_cli(["casci"], tmp_path)
    assert code == 1
    assert "exactly one of" in capsys.readouterr().err


def test_gtensor_d1_zeta_zero(tmp_path, capsys):
    code, out, _ = run_cli(["gtensor", "--lf", "d1", "--zeta", "0"], tmp_path)
    assert code == 0
    data = json.loads((out / "gtensor_report.json").read_text())
    eha = next(r for r in data["g"] if r["method"] == "EHA")
    assert (eha["g_x"], eha["g_y"], eha["g_z"]) == (2.002, 2.002, 2.002)
    assert "2.002" in capsys.readouterr().out


def test_gtensor_d1_ordering(tmp_path):
    code, out, _ = run_cli(["gtensor", "--lf", "d1"], tmp_path)
    assert code == 0
    data = json.loads((out / "gtensor_report.json").read_text())
    for row in data["g"]:
        assert row["g_z"] < row["g_x"] <= 2.0024
        assert row["g_x"] == row["g_y"]


def test_gtensor_d9_ordering(tmp_path):
    code, out, _ = run_cli(["gtensor", "--lf", "d9"], tmp_path)
    assert code == 0
    data = json.loads((out / "gtensor_report.json").read_text())
    for row in data["g"]:
        assert row["g_z"] > row["g_x"] >= 2.003
        # the report holds G = g g^T, whose eigenvalues are the squared
        # principal values, and not the basis-dependent g
        assert "matrix" not in row
        principal = np.sqrt(np.linalg.eigvalsh(row["G"]))
        assert np.allclose(principal, sorted((row["g_x"], row["g_y"], row["g_z"])),
                           atol=1e-3)


def test_g_report_row_is_invariant_under_the_kramers_basis():
    # eigh may return any basis of the degenerate ground Kramers pair,
    # which turns g into g R for a rotation R: the report row must not move
    rng = np.random.default_rng(31)
    g = 2.0 * np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    R *= np.sign(np.linalg.det(R))
    rows = [json.loads(json.dumps(_g_row(_principal_from_g(m, "EHA"), "r")))
            for m in (g, g @ R)]
    assert not np.allclose(g, g @ R, atol=1e-3)
    assert np.max(np.abs(np.subtract(rows[0]["G"], rows[1]["G"]))) < 1e-12
    for axis in ("g_x", "g_y", "g_z"):
        assert rows[0][axis] == rows[1][axis]
    assert np.max(np.abs(np.subtract(_principal_from_g(g, "EHA").principal,
                                     _principal_from_g(g @ R, "EHA").principal))) < 1e-12


def test_gtensor_even_electron_refused(tmp_path, capsys):
    ints = make_random_integrals(3, 202)
    (tmp_path / "even.fcidump").write_text(write_fcidump(ints, 2, 0))
    code, _, _ = run_cli(
        ["gtensor", "--fcidump", str(tmp_path / "even.fcidump")], tmp_path)
    assert code == 1
    assert "odd electron" in capsys.readouterr().err


def test_spectrum_from_lines(tmp_path):
    (tmp_path / "lines.txt").write_text(
        "2.0 1.0 Q\n# comment\n3.1 0.5\n")
    (tmp_path / "spec.cfg").write_text(
        "cas_nelec=1\ncas_norb=1\nspectrum_min_ev=0\nspectrum_max_ev=5\n"
        "spectrum_step_ev=0.01\nspectrum_fwhm_ev=0.1\n")
    code, out, _ = run_cli(
        ["spectrum", "--lines", str(tmp_path / "lines.txt"),
         "--config", str(tmp_path / "spec.cfg")], tmp_path)
    assert code == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "energy_eV,intensity"
    data = np.array([r.split(",") for r in rows[1:]], dtype=float)
    peak = data[np.argmax(data[:, 1]), 0]
    assert abs(peak - 2.0) <= 0.01
    lines = json.loads((out / "lines.json").read_text())
    assert lines[0]["band"] == "Q"


def test_spectrum_lines_errors_name_their_line(tmp_path, capsys):
    for name, second in (("word", "abc 0.5"), ("negative", "3.1 -0.5")):
        (tmp_path / f"{name}.txt").write_text(f"2.0 1.0\n{second}\n")
        code, _, manifest = run_cli(
            ["spectrum", "--lines", str(tmp_path / f"{name}.txt")],
            tmp_path, name)
        assert code == 1 and manifest["exit_code"] == 1
        assert "lines file, line 2" in capsys.readouterr().err
        assert manifest["error"]["type"] == "ParseError"
        assert "line 2" in manifest["error"]["message"]


_FCIDUMP = write_fcidump(make_random_integrals(3, 209), 3, 1)
_DIP = "DIP_X\n0 1 0\n1 0 0\n0 0 0\n"


@pytest.mark.parametrize("files, argv, where", [
    ({"m.fcidump": _FCIDUMP + "nan 1 1 0 0\n"},
     ["casci", "--fcidump", "m.fcidump"],
     f"line {len(_FCIDUMP.splitlines()) + 1}"),
    ({"m.fcidump": _FCIDUMP, "m.prop": _DIP.replace("1 0 0", "inf 0 0")},
     ["spectrum", "--fcidump", "m.fcidump", "--prop", "m.prop"], "line 3"),
    ({"l.txt": "2.0 1.0\n1.0 nan\n"}, ["spectrum", "--lines", "l.txt"],
     "line 2"),
    ({"l.txt": "2.0 1.0\n", "c.cfg": "spectrum_max_ev=inf\n"},
     ["spectrum", "--lines", "l.txt", "--config", "c.cfg"], "spectrum_max_ev"),
    ({"l.txt": "2.0 1.0\n", "c.cfg": "spectrum_fwhm_ev=nan\n"},
     ["spectrum", "--lines", "l.txt", "--config", "c.cfg"], "spectrum_fwhm_ev"),
    ({"c.cfg": "davidson_tol=NaN\n"},
     ["casci", "--lf", "d1", "--config", "c.cfg"], "davidson_tol"),
    ({}, ["gtensor", "--lf", "d1", "--zeta", "inf"], "--zeta"),
], ids=["fcidump", "property", "lines", "max_ev", "fwhm_ev", "davidson_tol",
        "zeta"])
def test_non_finite_inputs_are_input_errors(files, argv, where, tmp_path):
    # NaN and infinities are refused where they are read, naming their line,
    # key or flag, not carried into a NaN spectrum or a failed solve
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, _, manifest = run_cli(argv, tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    kind = "UsageError" if where.startswith("--") else "ParseError"
    assert manifest["error"]["type"] == kind
    assert where in manifest["error"]["message"]


def test_spectrum_from_lines_ignores_root_keys(tmp_path):
    # root counts belong to a CASCI run; a line list has no CAS to check
    # them against
    (tmp_path / "lines.txt").write_text("2.0 1.0\n")
    (tmp_path / "c.cfg").write_text("roots_mult_4=1\nspectrum_fwhm_ev=0.2\n")
    code, out, manifest = run_cli(
        ["spectrum", "--lines", str(tmp_path / "lines.txt"),
         "--config", str(tmp_path / "c.cfg")], tmp_path)
    assert code == 0
    assert manifest["config"]["spectrum"]["fwhm_ev"] == 0.2
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    grid, curve = np.array([r.split(",") for r in rows], dtype=float).T
    assert np.allclose(curve, broaden([SpectrumLine(2.0, 1.0, 0, 1)], 0.2,
                                      grid), rtol=1e-7)


def test_spectrum_bad_fwhm_fails_before_states(tmp_path, capsys):
    ints = make_random_integrals(3, 208)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    (tmp_path / "m.prop").write_text(
        "DIP_X\n" + "\n".join(" ".join(["0.1"] * 3) for _ in range(3)))
    (tmp_path / "c.cfg").write_text("spectrum_fwhm_ev=0\n")
    code, _, manifest = run_cli(
        ["spectrum", "--fcidump", str(tmp_path / "m.fcidump"),
         "--prop", str(tmp_path / "m.prop"),
         "--config", str(tmp_path / "c.cfg")], tmp_path)
    assert code == 1
    assert "states" not in manifest["timings_s"]
    assert "fwhm" in capsys.readouterr().err


def test_spectrum_zero_lines_flat(tmp_path):
    (tmp_path / "lines.txt").write_text("")
    code, out, _ = run_cli(
        ["spectrum", "--lines", str(tmp_path / "lines.txt")], tmp_path)
    assert code == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_spectrum_two_degenerate_lines_double(tmp_path):
    (tmp_path / "one.txt").write_text("2.0 0.5\n")
    (tmp_path / "two.txt").write_text("2.0 0.5\n2.0 0.5\n")
    _, out1, _ = run_cli(["spectrum", "--lines", str(tmp_path / "one.txt")],
                         tmp_path, "o1")
    _, out2, _ = run_cli(["spectrum", "--lines", str(tmp_path / "two.txt")],
                         tmp_path, "o2")
    a = np.array([r.split(",")[1] for r in
                  (out1 / "spectrum.csv").read_text().strip().splitlines()[1:]],
                 dtype=float)
    b = np.array([r.split(",")[1] for r in
                  (out2 / "spectrum.csv").read_text().strip().splitlines()[1:]],
                 dtype=float)
    assert np.allclose(b, 2 * a, atol=1e-12)


def test_spectrum_missing_dipoles(tmp_path, capsys):
    ints = make_random_integrals(3, 203)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    code, _, _ = run_cli(
        ["spectrum", "--fcidump", str(tmp_path / "m.fcidump")], tmp_path)
    assert code == 1
    assert "dipole" in capsys.readouterr().err


def test_spectrum_with_dipoles_from_prop(tmp_path):
    ints = make_random_integrals(3, 204)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    rng = np.random.default_rng(0)
    d = rng.standard_normal((3, 3))
    d = (d + d.T) / 2.0
    prop_text = "DIP_X\n" + "\n".join(" ".join(map(str, row)) for row in d)
    (tmp_path / "m.prop").write_text(prop_text)
    code, out, _ = run_cli(
        ["spectrum", "--fcidump", str(tmp_path / "m.fcidump"),
         "--prop", str(tmp_path / "m.prop"), "--roots-mult", "2=3"], tmp_path)
    assert code == 0
    lines = json.loads((out / "lines.json").read_text())
    assert len(lines) == 2
    assert all(ln["f_osc"] >= 0 for ln in lines)


def test_dense_route_runs_do_not_import_scipy(tmp_path):
    # README: no run pays the scipy.sparse import; the spin ladders of the
    # dense route load only scipy's compiled sparsetools extension.  Here
    # SOC, Zeeman, SOS and the line table all run the density kernel:
    # gtensor on d9-planar (doublets only, no Rayleigh sigma), and a
    # spectrum on the 300-determinant doublet block of a CAS(5,6) FCIDUMP,
    # which takes the dense route
    ints = make_random_integrals(6, 11, core=0.0)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 5, 1))
    d = np.random.default_rng(12).standard_normal((6, 6))
    (tmp_path / "m.prop").write_text("DIP_X\n" + "\n".join(
        " ".join(repr(float(x)) for x in row) for row in d + d.T))
    runs = [["gtensor", "--lf", "d9-planar", "--out", str(tmp_path / "gt")],
            ["spectrum", "--fcidump", str(tmp_path / "m.fcidump"),
             "--prop", str(tmp_path / "m.prop"), "--roots-mult", "2=3",
             "--out", str(tmp_path / "sp")]]
    code = f"""
import sys
sys.path.insert(0, {str(Path(casq.cli.__file__).parents[1])!r})
from casq.cli import main
for argv in {runs!r}:
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
assert loaded == ['scipy.sparse._sparsetools'], loaded
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    lines = json.loads((tmp_path / "sp" / "lines.json").read_text())
    assert len(lines) == 2 and any(ln["f_osc"] > 0 for ln in lines)


def test_spectrum_takes_the_lowest_multiplicity_with_roots(tmp_path):
    # with no doublets asked for, the line table is that of the quartets
    ints = make_random_integrals(4, 207)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 3, 1))
    d = np.random.default_rng(1).standard_normal((4, 4))
    (tmp_path / "m.prop").write_text(
        "DIP_Z\n" + "\n".join(" ".join(map(str, row)) for row in d + d.T))
    common = ["spectrum", "--fcidump", str(tmp_path / "m.fcidump"),
              "--prop", str(tmp_path / "m.prop")]
    code, out, _ = run_cli(
        common + ["--roots-mult", "2=0", "--roots-mult", "4=3"], tmp_path)
    ref_code, ref, _ = run_cli(common + ["--roots-mult", "4=3"], tmp_path, "ref")
    assert code == ref_code == 0
    assert len(json.loads((out / "lines.json").read_text())) == 2
    assert (out / "lines.txt").read_text() == (ref / "lines.txt").read_text()


def test_all_zero_root_counts_are_an_input_error(tmp_path, monkeypatch, capsys):
    import casq.driver

    solves = []
    monkeypatch.setattr(casq.driver, "solve_davidson",
                        lambda *args, **kw: solves.append(args))
    (tmp_path / "zero.cfg").write_text("roots_mult_2=0\n")
    for args, name in [(["casci", "--lf", "d1", "--roots-mult", "2=0"], "c"),
                       (["gtensor", "--lf", "d1", "--config",
                         str(tmp_path / "zero.cfg")], "g")]:
        code, _, manifest = run_cli(args, tmp_path, name)
        assert code == 1 and manifest["error"]["type"] == "ValueError"
        assert "root count" in manifest["error"]["message"]
    assert solves == []
    assert "every root count is 0" in capsys.readouterr().err


def test_empty_input_paths_are_missing_files(tmp_path):
    # an empty --prop or --config value names no file, as a missing path
    # does: the run fails instead of going on without the file
    (tmp_path / "m.fcidump").write_text(
        write_fcidump(make_random_integrals(3, 208), 3, 1))
    for args, name in [(["gtensor", "--fcidump", str(tmp_path / "m.fcidump"),
                         "--prop", ""], "p"),
                       (["casci", "--lf", "d1", "--config", ""], "c")]:
        code, _, manifest = run_cli(args, tmp_path, name)
        assert code == 1 and manifest["exit_code"] == 1
        assert manifest["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv", [
    ["casci", "--lf", "d1", "--out", ""],
    ["count", "--nelec", "1", "--norb", "5", "--ms2", "1", "--out="],
])
def test_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # an empty --out names no directory: the run fails before any work,
    # and its manifest goes where a run without --out writes, ./casq_out
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["casq_out"]
    assert [p.name for p in (tmp_path / "casq_out").iterdir()] == ["manifest.json"]
    manifest = json.loads((tmp_path / "casq_out" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert manifest["error"]["type"] == "UsageError"
    assert manifest["argv"] == argv


def test_manifest_written_on_every_run(tmp_path):
    for args, name in [
        (["count", "--nelec", "1", "--norb", "5", "--ms2", "1"], "a"),
        (["casci", "--lf", "d1"], "b"),
        (["casci", "--fcidump", "/nonexistent"], "c"),
    ]:
        _, out, manifest = run_cli(args, tmp_path, name)
        assert manifest is not None
        assert manifest["artifact_version"]
        assert manifest["exit_code"] is not None
        assert manifest["peak_rss_mb"] > 0


def test_reproducible_reports(tmp_path):
    _, out1, _ = run_cli(["casci", "--lf", "d9-planar"], tmp_path, "r1")
    _, out2, _ = run_cli(["casci", "--lf", "d9-planar"], tmp_path, "r2")
    assert (out1 / "casci_report.txt").read_text() == \
        (out2 / "casci_report.txt").read_text()


def test_roots_mult_flag_parsing(tmp_path, capsys):
    code, _, _ = run_cli(
        ["casci", "--lf", "d1", "--roots-mult", "banana"], tmp_path)
    assert code == 1
    assert "N=K" in capsys.readouterr().err


def test_repeated_roots_mult_is_a_usage_error(tmp_path, capsys):
    code, _, manifest = run_cli(
        ["casci", "--lf", "d1", "--roots-mult", "2=1", "--roots-mult", "2=3"],
        tmp_path)
    assert code == 1 and manifest["exit_code"] == 1
    assert manifest["error"]["type"] == "UsageError"
    message = "--roots-mult 2 given twice (2=1 and 2=3)"
    assert message in manifest["error"]["message"]
    assert message in capsys.readouterr().err


def test_casci_nonconvergence_exit_code(tmp_path, capsys, davidson_runs):
    ints = make_random_integrals(6, 205)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 6, 0))
    (tmp_path / "hard.cfg").write_text(
        "cas_nelec=6\ncas_norb=6\nroots_mult_1=4\n"
        "davidson_tol=1e-15\ndavidson_max_iter=1\nguess_dim=8\n")
    code, _, manifest = run_cli(
        ["casci", "--fcidump", str(tmp_path / "m.fcidump"),
         "--config", str(tmp_path / "hard.cfg")], tmp_path)
    assert code == 2
    assert davidson_runs == [400]     # the CAS(6,6) singlet block
    assert manifest["status"] == "failed"
    assert "casci" in manifest["timings_s"]
    assert "non-convergence" in capsys.readouterr().err
    assert manifest["error"]["type"] == "DavidsonNotConverged"
    assert "did not converge" in manifest["error"]["message"]
    # the partial result of the one iteration, one residual per root
    error = manifest["error"]
    assert error["iterations"] == 1
    assert error["matvecs"] > 0
    assert len(error["energies"]) == 4
    assert len(error["residual_norms"]) == 4
    assert max(error["residual_norms"]) > 1e-15     # the tol it missed


def test_casci_norb_mismatch(tmp_path, capsys):
    ints = make_random_integrals(4, 206)
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 4, 0))
    (tmp_path / "bad.cfg").write_text("cas_nelec=4\ncas_norb=6\nroots_mult_1=1\n")
    code, _, _ = run_cli(
        ["casci", "--fcidump", str(tmp_path / "m.fcidump"),
         "--config", str(tmp_path / "bad.cfg")], tmp_path)
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_gtensor_fcidump_default_tol_pairs_kramers_states(tmp_path,
                                                         davidson_runs):
    # without davidson_tol the FCIDUMP route must solve to the tolerance
    # qdpt checks Kramers pairs against (at 1e-8 this model exits 3);
    # guess_dim 32 keeps the 100-determinant doublet block on Davidson
    _, ints, prop, _ = build_ligand_field_model(kramers_split_d5_model())
    (tmp_path / "m.fcidump").write_text(write_fcidump(ints, 5, 1))
    sections = []
    for name, mats in (("ANGMOM", prop.L), ("SOC", prop.Z)):
        for axis, mat in zip("XYZ", mats):
            sections.append(f"{name}_{axis}")
            sections.extend(" ".join(repr(float(x)) for x in row)
                            for row in mat)
    (tmp_path / "m.prop").write_text("\n".join(sections) + "\n")
    (tmp_path / "m.cfg").write_text("guess_dim=32\n")
    code, _, manifest = run_cli(
        ["gtensor", "--fcidump", str(tmp_path / "m.fcidump"),
         "--prop", str(tmp_path / "m.prop"),
         "--config", str(tmp_path / "m.cfg")], tmp_path)
    assert code == 0
    assert manifest["config"]["davidson"]["tol"] == 1e-10
    assert 100 in davidson_runs


def test_usage_error_exits_one_with_manifest(tmp_path, capsys):
    # a removed flag is an input error, not exit 2 (non-convergence)
    code, _, manifest = run_cli(["casci", "--lf", "d1", "--ms2", "1"],
                                tmp_path)
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert "--ms2" in capsys.readouterr().err
    assert manifest["error"]["type"] == "UsageError"
    assert "--ms2" in manifest["error"]["message"]
    assert manifest["peak_rss_mb"] > 0
    # so is an option before the subcommand, whose value argparse would
    # otherwise report as an invalid subcommand
    code, _, manifest = run_cli(["--threads", "2", "count", "--nelec", "1",
                                 "--norb", "5", "--ms2", "1"], tmp_path, "t")
    assert code == 1
    assert manifest["status"] == "failed" and manifest["exit_code"] == 1
    assert "--threads" in capsys.readouterr().err
    assert manifest["error"]["type"] == "UsageError"
    assert "--threads" in manifest["error"]["message"]


def test_manifest_records_blas_thread_variables(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, _, manifest = run_cli(["count", "--nelec", "1", "--norb", "5",
                              "--ms2", "1"], tmp_path)
    assert manifest["blas_threads"]["OMP_NUM_THREADS"] == "3"
    assert manifest["blas_threads"]["MKL_NUM_THREADS"] is None
    # the usage-error path records them too
    _, _, manifest = run_cli(["count", "--bogus"], tmp_path, "bad")
    assert manifest["exit_code"] == 1
    assert manifest["blas_threads"]["OMP_NUM_THREADS"] == "3"
