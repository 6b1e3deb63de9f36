from dataclasses import fields

import numpy as np
import pytest

from casq.ingest import (
    DavidsonOptions,
    IntegralSet,
    ParseError,
    PropertyIntegrals,
    RunConfig,
    SpectrumOptions,
    parse_property_integrals,
    parse_run_config,
    read_fcidump,
    set_chem,
    symmetrize_8fold,
    write_fcidump,
    zero_properties,
)

from conftest import make_random_integrals


def test_parse_fcidump_basic():
    text = """&FCI NORB=2,NELEC=2,MS2=0,/
0.5 1 1 1 1
-1.25 1 1 0 0
0.75 0 0 0 0
"""
    data = read_fcidump(text)
    orbs, ints = data.orbitals, data.integrals
    assert orbs.n_orb == 2
    assert ints.g2[0, 0, 0, 0] == 0.5
    assert ints.h[0, 0] == -1.25
    assert ints.core_energy == 0.75


def test_parse_fcidump_symmetry_images():
    text = "&FCI NORB=3,NELEC=2,MS2=0/\n0.7 2 1 3 1\n0.0 0 0 0 0\n"
    ints = read_fcidump(text).integrals
    val = 0.7
    for idx in ((1, 0, 2, 0), (0, 1, 2, 0), (1, 0, 0, 2), (0, 1, 0, 2),
                (2, 0, 1, 0), (0, 2, 1, 0), (2, 0, 0, 1), (0, 2, 0, 1)):
        assert ints.g2[idx] == val


def test_fcidump_equal_repeats_of_an_integral_are_accepted():
    # writers that emit both (ij) and (ji), or several images of (ij|kl)
    text = ("&FCI NORB=3/\n0.7 2 1 3 1\n0.7 1 2 1 3\n0.7 3 1 2 1\n"
            "-0.5 1 2 0 0\n−0.5 2 1 0 0\n0.25 0 0 0 0\n0.25 0 0 0 0\n")
    ints = read_fcidump(text).integrals
    assert ints.g2[1, 0, 2, 0] == 0.7 and ints.h[0, 1] == ints.h[1, 0] == -0.5
    assert ints.core_energy == 0.25


@pytest.mark.parametrize("first, second", [
    ("0.5 1 1 0 0", "0.7 1 1 0 0"),
    ("0.5 1 2 0 0", "0.7 2 1 0 0"),
    ("0.5 2 1 3 1", "0.7 1 3 2 1"),
    ("0.5 0 0 0 0", "0.7 0 0 0 0")])
def test_fcidump_conflicting_lines_name_both(first, second):
    # the last of two values would otherwise win silently
    text = f"&FCI NORB=3/\n{first}\n0.1 2 2 0 0\n{second}\n"
    with pytest.raises(ParseError, match=f"line 4: '{second}' sets the "
                                         f"integral of line 2, '{first}'"):
        read_fcidump(text)


def test_parse_fcidump_unicode_minus():
    text = "&FCI NORB=1,NELEC=1,MS2=1/\n−1.25 1 1 0 0\n0.0 0 0 0 0\n"
    ints = read_fcidump(text).integrals
    assert ints.h[0, 0] == -1.25


def test_parse_fcidump_header_defaults():
    data = read_fcidump("&FCI NORB=2,NELEC=2,MS2=0/\n0.0 0 0 0 0\n")
    assert data.n_elec == 2 and data.ms2 == 0
    data = read_fcidump("&FCI NORB=2/\n0.0 0 0 0 0\n")
    assert data.n_elec is None and data.ms2 is None


def test_parse_fcidump_errors():
    with pytest.raises(ParseError, match="header"):
        read_fcidump("1.0 1 1 0 0\n")
    with pytest.raises(ParseError, match="NORB"):
        read_fcidump("&FCI NELEC=2/\n")
    with pytest.raises(ParseError, match="line 2.*index 6"):
        read_fcidump("&FCI NORB=5/\n0.7 6 1 1 1\n")
    with pytest.raises(ParseError, match="line 3"):
        read_fcidump("&FCI NORB=2/\n0.5 1 1 1 1\nnot a line\n")
    with pytest.raises(ParseError, match="line 2"):
        read_fcidump("&FCI NORB=2/\n0.5 1 0 1 1\n")


def test_fcidump_roundtrip_bit_exact():
    ints = make_random_integrals(4, 77, core=0.123456789012345678)
    text = write_fcidump(ints, n_elec=4, ms2=0)
    back = read_fcidump(text).integrals
    assert np.array_equal(back.h, ints.h)
    assert np.array_equal(back.g2, ints.g2)
    assert back.core_energy == ints.core_energy
    # a second round trip is byte-identical
    assert write_fcidump(back, n_elec=4, ms2=0) == text


def test_integralset_validation():
    h = np.zeros((2, 2))
    g = np.zeros((2, 2, 2, 2))
    bad_h = h.copy()
    bad_h[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        IntegralSet(h=bad_h, g2=g)
    bad_g = g.copy()
    bad_g[0, 1, 0, 0] = 0.2
    with pytest.raises(ValueError, match="permutational"):
        IntegralSet(h=h, g2=bad_g)


def test_property_parse_empty_is_zero():
    prop = parse_property_integrals("", 3)
    assert np.all(prop.L == 0) and np.all(prop.Z == 0) and np.all(prop.D == 0)
    assert prop.n_orb == 3


def test_property_parse_angmom_z():
    # 5-orbital block with A[4,3] = -A[3,4] = 2 (d_xy vs d_x2-y2 rows)
    mat = np.zeros((5, 5))
    mat[4, 3] = 2.0
    mat[3, 4] = -2.0
    text = "ANGMOM_Z\n" + "\n".join(
        " ".join(str(x) for x in row) for row in mat)
    prop = parse_property_integrals(text, 5)
    assert prop.L[2][4, 3] == 2.0
    assert prop.L[2][3, 4] == -2.0
    assert np.all(prop.L[0] == 0) and np.all(prop.Z == 0)


def test_property_parse_comments_and_multiline():
    text = """# dipole along x
DIP_X
1.0 0.5   # trailing comment
0.5 2.0
SOC_Y
0 1
-1 0
"""
    prop = parse_property_integrals(text, 2)
    assert prop.D[0][0, 1] == 0.5
    assert prop.Z[1][0, 1] == 1.0


def test_property_parse_symmetry_violation():
    text = "DIP_X\n0.0 1.0\n1.001 0.0\n"  # off by 1e-3
    with pytest.raises(ParseError, match="symmetry violation"):
        parse_property_integrals(text, 2)
    # small violations are repaired silently
    text_ok = "DIP_X\n0.0 1.0\n1.000000001 0.0\n"
    prop = parse_property_integrals(text_ok, 2)
    assert prop.D[0][0, 1] == pytest.approx(1.0000000005)


def test_property_parse_count_error():
    with pytest.raises(ParseError, match="expected 4 elements"):
        parse_property_integrals("DIP_X\n1.0 2.0 3.0\n", 2)
    with pytest.raises(ParseError, match="unknown section"):
        parse_property_integrals("DIPOLE_X\n1 0 0 1\n", 2)


def test_repeated_sections_and_keys_name_the_repeat():
    # the last of two values would otherwise win silently
    with pytest.raises(ParseError, match="line 3: section DIP_X given twice"):
        parse_property_integrals("DIP_X\n1 0 0 1\ndip_x\n2 0 0 2\n", 2)
    # (text, repeating line, first line, key); roots_mult_02 repeats the
    # multiplicity of roots_mult_2, as --roots-mult 02=3 would
    for text, line, first, key in (
            ("davidson_tol=1e-9\ncas_nelec=2\ndavidson_tol=1e-8\n", 3, 1,
             "davidson_tol"),
            ("cas_nelec=3\nroots_mult_2=1\ncas_norb=3\nRoots_Mult_2 = 2\n", 4,
             2, "roots_mult_2"),
            ("cas_nelec=3\ncas_norb=3\nroots_mult_2=1\nroots_mult_02=3\n", 4,
             3, "roots_mult_2")):
        with pytest.raises(ParseError, match=f"line {line}: {key} given "
                                             rf"twice \(first on line {first}\)"):
            parse_run_config(text)


def test_antisymmetrization_enforced():
    with pytest.raises(ValueError, match="antisymmetric"):
        PropertyIntegrals(L=np.full((3, 2, 2), 0.1),
                          Z=np.zeros((3, 2, 2)), D=np.zeros((3, 2, 2)))
    zero_properties(2)  # smoke


def test_run_config_parse():
    text = """# sample configuration
cas_nelec = 9
cas_norb = 5
roots_mult_2 = 5
roots_mult_4 = 2
davidson_tol = 1e-9
guess_dim = 40
spectrum_fwhm_ev = 0.2
"""
    cfg = parse_run_config(text)
    assert cfg.cas == (9, 5)
    assert cfg.roots_per_multiplicity == {2: 5, 4: 2}
    assert cfg.davidson.tol == 1e-9
    assert cfg.davidson.guess_dim == 40
    assert cfg.spectrum.fwhm_ev == 0.2


def test_run_config_defaults_and_errors():
    cfg = parse_run_config("", default_cas=(3, 4), default_ms2=1)
    assert cfg.cas == (3, 4)
    assert cfg.roots_per_multiplicity == {2: 5}
    with pytest.raises(ParseError, match="unknown key"):
        parse_run_config("cas_nelec=2\ncas_norb=2\nbogus=1\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_run_config("cas_nelec=2\ncas_norb=2\ndavidson_max_subspace=10\n")
    with pytest.raises(ParseError, match="cas_nelec"):
        parse_run_config("roots_mult_2=1\n")
    with pytest.raises(ParseError, match="together"):
        parse_run_config("cas_nelec=5\n", default_cas=(3, 4))
    with pytest.raises(ParseError, match="line 2: davidson_tol must be float"):
        parse_run_config("cas_nelec=2\ndavidson_tol=abc\n")
    with pytest.raises(ParseError, match="line 1: guess_dim must be int"):
        parse_run_config("guess_dim=1.5\n", default_cas=(2, 2))
    with pytest.raises(ValueError, match="guess_dim"):
        RunConfig(cas=(3, 4), roots_per_multiplicity={2: 8},
                  davidson=DavidsonOptions(guess_dim=4))
    # each multiplicity is solved on its own: guess_dim bounds the largest
    # count, not the total
    RunConfig(cas=(3, 4), roots_per_multiplicity={2: 8, 4: 1},
              davidson=DavidsonOptions(guess_dim=8))
    with pytest.raises(ValueError, match="multiplicity"):
        RunConfig(cas=(3, 4), roots_per_multiplicity={2: -1})
    with pytest.raises(ValueError, match="multiplicity"):
        RunConfig(cas=(3, 4), roots_per_multiplicity={3: 1})  # parity


# every Davidson and spectrum key with a value that differs from its default
OPTION_KEYS = {
    "davidson_tol": ("davidson", "tol", 1e-7),
    "davidson_max_iter": ("davidson", "max_iter", 17),
    "guess_dim": ("davidson", "guess_dim", 40),
    "spectrum_fwhm_ev": ("spectrum", "fwhm_ev", 0.25),
    "spectrum_min_ev": ("spectrum", "min_ev", 0.5),
    "spectrum_max_ev": ("spectrum", "max_ev", 4.0),
    "spectrum_step_ev": ("spectrum", "step_ev", 0.02),
}


def test_run_config_option_keys_round_trip():
    covered = {(section, name) for section, name, _ in OPTION_KEYS.values()}
    assert covered == (
        {("davidson", f.name) for f in fields(DavidsonOptions)}
        | {("spectrum", f.name) for f in fields(SpectrumOptions)})
    default = parse_run_config("", default_cas=(3, 4))
    for key, (section, name, value) in OPTION_KEYS.items():
        assert getattr(getattr(default, section), name) != value
        cfg = parse_run_config(f"{key}={value}\n", default_cas=(3, 4))
        got = getattr(getattr(cfg, section), name)
        assert got == value and type(got) is type(value), key


@pytest.mark.parametrize("kwargs", [{"fwhm_ev": 0.0}, {"step_ev": -0.01},
                                    {"min_ev": 2.0, "max_ev": 2.0}])
def test_spectrum_options_rejected(kwargs):
    with pytest.raises(ValueError, match="spectrum"):
        SpectrumOptions(**kwargs)


def test_set_chem_images():
    g = np.zeros((3, 3, 3, 3))
    set_chem(g, 0, 1, 2, 1, 0.9)
    assert g[1, 0, 1, 2] == 0.9 and g[2, 1, 0, 1] == 0.9


def test_symmetrize_8fold_images():
    g = np.random.default_rng(8).standard_normal((9,) * 4)
    images = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
              (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    sym = symmetrize_8fold(g)
    for perm in images:
        assert np.array_equal(sym, sym.transpose(perm))
    mean = sum(g.transpose(perm) for perm in images) / 8.0
    assert np.max(np.abs(sym - mean)) < 1e-15
