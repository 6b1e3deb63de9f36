"""Integral containers, file parsers and run configuration.

File formats
------------
FCIDUMP: header ``&FCI NORB=...,NELEC=...,MS2=.../`` followed by lines
``value i j k l`` with 1-based indices; ``i j 0 0`` is a one-electron
element, ``0 0 0 0`` the core energy, anything else the chemist-notation
two-electron integral (ij|kl).

Property file: sections ``ANGMOM_X/Y/Z``, ``SOC_X/Y/Z``, ``DIP_X/Y/Z``,
each followed by n_orb^2 whitespace-separated reals in row-major order.
``#`` starts a comment.  Missing sections default to zero matrices.
The SOC matrices couple to Pauli matrices: H_SO = sum_i z(i) . sigma(i).

Run configuration: flat ``key=value`` lines, ``#`` comments.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np


class ParseError(ValueError):
    """Malformed input file; message carries a line number where known."""


def finite_float(token: str) -> float:
    """A number token of an input file, U+2212 read as '-'; NaN and
    infinities are refused."""
    value = float(token.replace("−", "-"))
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


@dataclass(frozen=True)
class OrbitalSpace:
    """The active spatial orbitals."""

    n_orb: int

    def __post_init__(self):
        if self.n_orb < 1:
            raise ValueError(f"n_orb must be >= 1, got {self.n_orb}")


@dataclass(frozen=True, eq=False)
class IntegralSet:
    """One- and two-electron integrals over the active orbitals (Hartree).

    h is symmetric; g2 holds (pq|rs) in chemist notation with all eight
    permutational copies populated.
    """

    h: np.ndarray
    g2: np.ndarray
    core_energy: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g2 = np.asarray(self.g2, dtype=float)
        n = h.shape[0]
        if h.shape != (n, n):
            raise ValueError(f"h must be square, got {h.shape}")
        if g2.shape != (n, n, n, n):
            raise ValueError(f"g2 must be {n}^4, got {g2.shape}")
        if np.max(np.abs(h - h.T), initial=0.0) > 1e-12:
            raise ValueError("h is not symmetric to 1e-12")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(g2 - g2.transpose(perm)), initial=0.0) > 1e-12:
                raise ValueError(f"g2 violates permutational symmetry {perm}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g2", g2)

    @property
    def n_orb(self) -> int:
        return self.h.shape[0]


def set_chem(g2: np.ndarray, i: int, j: int, k: int, l: int, value: float) -> None:
    """Assign (ij|kl) = value together with its 8 permutational images."""
    for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                       (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)):
        g2[a, b, c, d] = value


def symmetrize_8fold(g: np.ndarray) -> np.ndarray:
    """Average onto the 8-fold symmetric part: over i <-> j, then k <-> l,
    then the pair swap.  Each average keeps the symmetries of the earlier
    ones exactly, so the result is bitwise symmetric."""
    g = 0.5 * (g + g.transpose(1, 0, 2, 3))
    g = 0.5 * (g + g.transpose(0, 1, 3, 2))
    return 0.5 * (g + g.transpose(2, 3, 0, 1))


@dataclass(frozen=True)
class PropertyIntegrals:
    """One-electron property matrices over the active orbitals.

    L and Z are real antisymmetric and store the imaginary parts of the
    angular-momentum and effective SOC operators: <p|l_K|q> = i L[K,p,q]
    and <p|z_K|q> = i Z[K,p,q].  D holds the real symmetric dipole
    matrices.  Axis order is (x, y, z).
    """

    L: np.ndarray
    Z: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        D = np.asarray(self.D, dtype=float)
        n = L.shape[-1]
        for name, arr in (("L", L), ("Z", Z), ("D", D)):
            if arr.shape != (3, n, n):
                raise ValueError(f"{name} must have shape (3, n, n), got {arr.shape}")
        for name, arr in (("L", L), ("Z", Z)):
            resid = np.max(np.abs(arr + arr.transpose(0, 2, 1)))
            if resid > 1e-12:
                raise ValueError(f"{name} not antisymmetric (residual {resid:.2e})")
        resid = np.max(np.abs(D - D.transpose(0, 2, 1)))
        if resid > 1e-12:
            raise ValueError(f"D not symmetric (residual {resid:.2e})")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "D", D)

    @property
    def n_orb(self) -> int:
        return self.L.shape[-1]


def zero_properties(n_orb: int) -> PropertyIntegrals:
    z = np.zeros((3, n_orb, n_orb))
    return PropertyIntegrals(L=z.copy(), Z=z.copy(), D=z.copy())


@dataclass(frozen=True)
class DavidsonOptions:
    """Iterative-solver controls."""

    # residual norm threshold, Hartree; the SOC matrix inherits the roots'
    # residual, so this stays at or below soc.KRAMERS_SPLIT_TOL
    tol: float = 1e-10
    max_iter: int = 200
    guess_dim: int = 0             # 0 = auto

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("davidson tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("davidson max_iter must be >= 1")


@dataclass(frozen=True)
class SpectrumOptions:
    """Broadening width and energy grid of a spectrum curve (eV)."""

    fwhm_ev: float = 0.1
    min_ev: float = 0.0
    max_ev: float = 5.0
    step_ev: float = 0.01

    def __post_init__(self):
        if self.fwhm_ev <= 0 or self.step_ev <= 0 or self.max_ev <= self.min_ev:
            raise ValueError("spectrum settings need fwhm_ev > 0, step_ev > 0 "
                             "and max_ev > min_ev")


@dataclass(frozen=True)
class RunConfig:
    """Complete run controls for the CASCI -> SOC -> spectra pipeline
    (cas is None for a spectrum from a line list, which solves no CAS)."""

    cas: tuple[int, int] | None
    roots_per_multiplicity: Mapping[int, int] = field(default_factory=dict)
    davidson: DavidsonOptions = field(default_factory=DavidsonOptions)
    spectrum: SpectrumOptions = field(default_factory=SpectrumOptions)

    def __post_init__(self):
        if self.cas is None and self.roots_per_multiplicity:
            raise ValueError("root counts need a CAS")
        for mult, count in self.roots_per_multiplicity.items():
            n_elec = self.cas[0]
            if count < 0:
                raise ValueError(f"root count for multiplicity {mult} is negative")
            if mult < 1 or (mult - 1) > n_elec or (n_elec - (mult - 1)) % 2:
                raise ValueError(
                    f"multiplicity {mult} impossible for {n_elec} electrons")
        # each multiplicity is solved on its own
        most = max(self.roots_per_multiplicity.values(), default=0)
        if self.davidson.guess_dim and self.davidson.guess_dim < most:
            raise ValueError(f"guess_dim={self.davidson.guess_dim} < {most} "
                             f"roots of one multiplicity")


# ---------------------------------------------------------------------------
# FCIDUMP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FcidumpData:
    """Parsed FCIDUMP: integral payload plus the header electron counts."""

    orbitals: OrbitalSpace
    integrals: IntegralSet
    n_elec: int | None
    ms2: int | None


_HEADER_INT = re.compile(r"(NORB|NELEC|MS2)\s*=\s*(-?\d+)", re.IGNORECASE)


def read_fcidump(text: str) -> FcidumpData:
    """Parse FCIDUMP text, keeping NELEC/MS2 as run-config defaults."""
    lines = text.splitlines()
    header_end = None
    header = []
    for lineno, line in enumerate(lines):
        header.append(line)
        if "/" in line or "&END" in line.upper():
            header_end = lineno
            break
    header_text = " ".join(header)
    if header_end is None or "&FCI" not in header_text.upper():
        raise ParseError("missing FCIDUMP header (&FCI ... /)")
    header_ints: dict[str, int] = {}
    for key, value in _HEADER_INT.findall(header_text):   # first one counts
        header_ints.setdefault(key.upper(), int(value))
    if "NORB" not in header_ints:
        raise ParseError("FCIDUMP header does not define NORB")
    n_orb = header_ints["NORB"]
    if n_orb < 1:
        raise ParseError(f"NORB={n_orb} invalid")
    need = 8 * (n_orb ** 4 + n_orb ** 2)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ParseError(f"NORB={n_orb} needs {need} bytes of integrals, "
                         f"more than the {memory} bytes of physical memory")

    h = np.zeros((n_orb, n_orb))
    g2 = np.zeros((n_orb, n_orb, n_orb, n_orb))
    core = 0.0
    seen = {}          # integral, up to its index symmetries -> first line
    for lineno in range(header_end + 1, len(lines)):
        raw = lines[lineno]
        stripped = raw.strip()
        if not stripped:
            continue
        tokens = stripped.replace("−", "-").split()
        if len(tokens) != 5:
            raise ParseError(
                f"line {lineno + 1}: expected 'value i j k l', got {raw!r}")
        try:
            value = finite_float(tokens[0])
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(
                f"line {lineno + 1}: cannot parse {raw!r}") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise ParseError(
                    f"line {lineno + 1}: orbital index {idx} outside [0, {n_orb}]")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0 and i > 0 and j > 0:
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        elif min(i, j, k, l) > 0:
            set_chem(g2, i - 1, j - 1, k - 1, l - 1, value)
        else:
            raise ParseError(
                f"line {lineno + 1}: unsupported index pattern {i} {j} {k} {l}")
        # an integral set twice, or through one of its images, must agree;
        # otherwise the later line would win silently
        pq, rs = (max(i, j), min(i, j)), (max(k, l), min(k, l))
        first, first_value, text = seen.setdefault(
            (max(pq, rs), min(pq, rs)), (lineno, value, stripped))
        if first_value != value:
            raise ParseError(f"line {lineno + 1}: {stripped!r} sets the "
                             f"integral of line {first + 1}, {text!r}, to "
                             f"another value")
    return FcidumpData(OrbitalSpace(n_orb), IntegralSet(h, g2, core),
                       header_ints.get("NELEC"), header_ints.get("MS2"))


def write_fcidump(integrals: IntegralSet, n_elec: int = 0, ms2: int = 0) -> str:
    """Serialize at full precision; unique integrals only."""
    n = integrals.n_orb
    out = [f"&FCI NORB={n},NELEC={n_elec},MS2={ms2},/"]
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    val = float(integrals.g2[i, j, k, l])
                    if val != 0.0:
                        out.append(f"{val!r} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(n):
        for j in range(i + 1):
            val = float(integrals.h[i, j])
            if val != 0.0:
                out.append(f"{val!r} {i + 1} {j + 1} 0 0")
    out.append(f"{float(integrals.core_energy)!r} 0 0 0 0")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Property matrices
# ---------------------------------------------------------------------------

_SECTIONS = ("ANGMOM_X", "ANGMOM_Y", "ANGMOM_Z",
             "SOC_X", "SOC_Y", "SOC_Z",
             "DIP_X", "DIP_Y", "DIP_Z")

SYMMETRY_TOL = 1e-8


def parse_property_integrals(text: str, n_orb: int) -> PropertyIntegrals:
    """Parse the sectioned property file; absent sections stay zero."""
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        tokens.extend((tok, lineno) for tok in body.split())

    mats = np.zeros((len(_SECTIONS), n_orb, n_orb))
    given: set[str] = set()
    pos = 0
    n2 = n_orb * n_orb
    while pos < len(tokens):
        name, lineno = tokens[pos]
        key = name.upper()
        if key not in _SECTIONS:
            raise ParseError(f"line {lineno}: unknown section {name!r}")
        if key in given:
            raise ParseError(f"line {lineno}: section {key} given twice")
        given.add(key)
        vals = []
        pos += 1
        while pos < len(tokens) and len(vals) < n2:
            tok, tok_line = tokens[pos]
            try:
                vals.append(finite_float(tok))
            except ValueError:
                raise ParseError(
                    f"line {tok_line}: expected a finite number in section "
                    f"{name}, got {tok!r}") from None
            pos += 1
        if len(vals) != n2:
            raise ParseError(
                f"section {name}: expected {n2} elements, got {len(vals)}")
        mat = np.array(vals).reshape(n_orb, n_orb)
        sign = 1.0 if key.startswith("DIP") else -1.0    # L and Z antisymmetric
        resid = np.max(np.abs(mat - sign * mat.T)) / 2.0
        if resid > SYMMETRY_TOL:
            kind = "symmetry" if sign > 0 else "antisymmetry"
            raise ParseError(
                f"section {key}: {kind} violation {resid:.3e} exceeds "
                f"{SYMMETRY_TOL:.0e}")
        mats[_SECTIONS.index(key)] = (mat + sign * mat.T) / 2.0
    return PropertyIntegrals(L=mats[:3], Z=mats[3:6], D=mats[6:])


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# config key -> (RunConfig field, option field); an option's value type and
# default are those of its dataclass field
_OPTION_KEYS = {
    ("guess_dim" if f.name == "guess_dim" else f"{section}_{f.name}"): (section, f)
    for section, cls in (("davidson", DavidsonOptions),
                         ("spectrum", SpectrumOptions))
    for f in fields(cls)
}


def parse_run_config(text: str, *, default_cas: tuple[int, int] | None = None,
                     default_ms2: int | None = None,
                     needs_cas: bool = True) -> RunConfig:
    """Parse the flat key=value run configuration; needs_cas=False (a
    line-list run) checks the CAS and root keys, then drops them."""
    cas_keys: dict[str, int] = {}
    roots: dict[int, int] = {}
    options: dict[str, dict] = {"davidson": {}, "spectrum": {}}
    given: dict[str, int] = {}      # key, roots by multiplicity -> line
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"line {lineno}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip().lower()
        value = value.strip()
        m = re.fullmatch(r"roots_mult_(\d+)", key)
        name = f"roots_mult_{int(m.group(1))}" if m else key
        if name in given:
            raise ParseError(f"line {lineno}: {name} given twice "
                             f"(first on line {given[name]})")
        given[name] = lineno
        if m:
            roots[int(m.group(1))] = _parse_value(int, value, key, lineno)
        elif key in ("cas_nelec", "cas_norb"):
            cas_keys[key] = _parse_value(int, value, key, lineno)
        elif key in _OPTION_KEYS:
            section, f = _OPTION_KEYS[key]
            options[section][f.name] = _parse_value(
                type(f.default), value, key, lineno)
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    davidson = DavidsonOptions(**options["davidson"])
    spectrum = SpectrumOptions(**options["spectrum"])
    if not needs_cas:
        return RunConfig(cas=None, davidson=davidson, spectrum=spectrum)

    if len(cas_keys) == 1:
        raise ParseError("cas_nelec and cas_norb must be given together")
    if cas_keys:
        cas = (cas_keys["cas_nelec"], cas_keys["cas_norb"])
    elif default_cas is not None:
        cas = default_cas
    else:
        raise ParseError("cas_nelec/cas_norb missing and no defaults available")

    if not roots:
        # default: ground multiplicity block, enough roots to see low states
        ms2 = default_ms2 if default_ms2 is not None else cas[0] % 2
        roots = {abs(ms2) + 1: 5}
    return RunConfig(cas=cas, roots_per_multiplicity=roots,
                     davidson=davidson, spectrum=spectrum)


def _parse_value(kind: type, value: str, key: str, lineno: int):
    try:
        parsed = kind(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {key} must be {kind.__name__}, "
                         f"got {value!r}") from None
    if kind is float and not math.isfinite(parsed):
        raise ParseError(f"line {lineno}: {key} must be finite, got {value!r}")
    return parsed
