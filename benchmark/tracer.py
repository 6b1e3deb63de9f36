"""Outside-in tracer: spans and counters recorded around casq's public calls.

Each public function is wrapped at the module attribute where its caller
looks it up (``casci.sigma`` for the calls made inside casci,
``driver.solve_davidson`` for the calls made by the driver, and so on),
so no casq source changes.  Spans live in memory as
``[name, parent, op, t0, t1, note]`` and are written out at the end; a
function called too often for a span gets a counter only.  The wrappers
are installed only in traced repetitions and removed by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _space_note(args, kwargs, result):
    space = _arg(args, kwargs, 0, "space")
    vec = _arg(args, kwargs, 2, "vec")
    return {"space": repr(space), "n_det": space.size, "n_orb": space.n_orb,
            "vectors": vec.size // space.size}


def _block_note(args, kwargs, result):
    return {"vectors": _arg(args, kwargs, 2, "block").shape[1]}


def _davidson_note(args, kwargs, result):
    return {"iterations": result.iterations, "matvecs": result.n_matvec,
            "roots": _arg(args, kwargs, 2, "n_roots")}


def _roots_note(args, kwargs, result):
    return {"roots": _arg(args, kwargs, 2, "n_roots")}


def _found_note(args, kwargs, result):
    return {"found": len(result)}


def _basis_note(args, kwargs, result):
    return {"basis_size": _arg(args, kwargs, 0, "basis").size}


# (module, attribute, note) of every wrapped lookup site.  The span name is
# the function's home module and name, so calls reaching one function from
# several sites share one span name.  enumerate_cas is wrapped only where
# the benchmark's own set-up looks it up: the cold enumerations of other
# M_S spaces inside the solve are part of casci_s, not set-up.
SPAN_SITES = (
    ("casci", "sigma", _space_note),
    ("casci", "sigma_block", _block_note),
    ("casci", "davidson_lowest", _davidson_note),
    ("casci", "apply_s_minus", None),
    ("casci", "s_squared", None),
    ("casci", "s_squared_matrix", None),
    ("driver", "solve_multiplicity", _found_note),
    ("driver", "solve_davidson", _roots_note),
    ("driver", "assemble_multiplets", None),
    ("driver", "soc_matrix", _basis_note),
    ("driver", "qdpt", None),
    ("driver", "g_tensor_eha", None),
    ("driver", "g_tensor_sos", None),
    ("soc", "spin_transition_densities", None),
    ("soc", "flip_lower_links", None),
    ("gtensor", "spin_transition_densities", None),
    ("gtensor", "zeeman_basis_matrices", None),
    ("analysis", "spin_transition_densities", None),
    ("analysis", "one_rdm", None),
    ("analysis", "decompose", None),
    ("spectra", "transition_table", None),
    ("spectra", "broaden", None),
    ("detspace", "enumerate_cas", None),
    ("ingest", "read_fcidump", None),
    ("ingest", "parse_property_integrals", None),
    ("ligandfield", "build_ligand_field_model", None),
)

# Called about 1e4-1e5 times per solve (the Slater-Condon guess block):
# counted, not spanned.
COUNT_SITES = (
    ("casci", "hamiltonian_element"),
)


def _home(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory spans with parent links and operation ids, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self.op = 0
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.current, self.op, perf_counter(), 0.0, None])
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[4] = perf_counter()
        self.current = span[1]

    def _span_wrapper(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx][5] = note(args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, note in SPAN_SITES:
            self._patch(mod_name, attr,
                        lambda fn, n=note: self._span_wrapper(fn, _home(fn), n))
        for mod_name, attr in COUNT_SITES:
            self._patch(mod_name, attr,
                        lambda fn: self._count_wrapper(fn, _home(fn) + ".calls"))

    def _patch(self, mod_name, attr, make):
        module = importlib.import_module(f"casq.{mod_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            # a lookup site that no longer exists is reported, not fatal
            self.missing.append(f"{mod_name}.{attr}")
            return
        self._installed.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_times(),
                       "counts": dict(self.counts), "missing": self.missing},
                      fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    self_s = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for s, st in zip(spans, self_s):
        calls[s[0]] += 1
        total[s[0]] += s[4] - s[3]
        own[s[0]] += st
        if s[5] is not None:
            notes[s[0]].append(s[5])

    m: dict[str, float] = {}

    def add_calls_s(name):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]

    # casci: sigma and the computed size of its GEMM and intermediate
    sig = notes["casci.sigma"]
    firsts: dict[str, float] = {}
    for s in spans:
        if s[0] == "casci.sigma" and s[5] is not None:
            firsts.setdefault(s[5]["space"], s[4] - s[3])
    add_calls_s("casci.sigma")
    m["casci.sigma.first_s"] = sum(firsts.values())
    det_vec = sum(n["n_det"] * n["vectors"] for n in sig)
    m["casci.sigma.det_per_s"] = det_vec / total["casci.sigma"] if sig else 0.0
    m["casci.sigma.gflop"] = sum(2.0 * n["n_orb"] ** 4 * n["n_det"] * n["vectors"]
                                 for n in sig) * 1e-9
    m["casci.sigma.intermediate_gb"] = max(
        (8.0 * n["n_orb"] ** 2 * n["n_det"] * 1e-9 for n in sig), default=0.0)
    blocks = notes["casci.sigma_block"]
    m["casci.sigma_block.vectors_per_call"] = (
        sum(n["vectors"] for n in blocks) / len(blocks) if blocks else 0.0)
    m["casci.solve_davidson.self_s"] = own["casci.solve_davidson"]
    m["casci.hamiltonian_element.calls"] = tracer.counts["casci.hamiltonian_element.calls"]
    m["casci.assemble_multiplets.self_s"] = own["casci.assemble_multiplets"]

    # davidson
    dav = notes["davidson.davidson_lowest"]
    matvecs = sum(n["matvecs"] for n in dav)
    roots = sum(n["roots"] for n in dav)
    m["davidson.iterations"] = sum(n["iterations"] for n in dav)
    m["davidson.matvecs"] = matvecs
    m["davidson.matvecs_per_root"] = matvecs / roots if roots else 0.0
    m["davidson.self_s"] = own["davidson.davidson_lowest"]

    # driver: roots solved against roots of the target multiplicity kept
    solved = sum(n["roots"] for n in notes["casci.solve_davidson"])
    kept = sum(n["found"] for n in notes["driver.solve_multiplicity"])
    m["driver.solves"] = calls["casci.solve_davidson"]
    m["driver.roots_solved"] = solved
    m["driver.roots_useful_ratio"] = kept / solved if solved else 0.0

    # spin
    add_calls_s("spin.apply_s_minus")
    add_calls_s("spin.s_squared")
    m["spin.s_squared_matrix.s"] = total["spin.s_squared_matrix"]
    add_calls_s("spin.flip_lower_links")

    # soc: densities evaluated directly inside soc_matrix
    soc_idx = {i for i, s in enumerate(spans) if s[0] == "soc.soc_matrix"}
    m["soc.soc_matrix.self_s"] = own["soc.soc_matrix"]
    m["soc.basis_size"] = max((n["basis_size"] for n in notes["soc.soc_matrix"]),
                              default=0)
    m["soc.tdm_calls"] = sum(1 for s in spans if s[1] in soc_idx)
    m["soc.qdpt.s"] = total["soc.qdpt"]

    # gtensor
    m["gtensor.zeeman_basis_matrices.s"] = total["gtensor.zeeman_basis_matrices"]
    m["gtensor.g_tensor_eha.self_s"] = own["gtensor.g_tensor_eha"]
    m["gtensor.g_tensor_sos.s"] = total["gtensor.g_tensor_sos"]

    # analysis and spectra
    add_calls_s("analysis.spin_transition_densities")
    m["analysis.one_rdm.s"] = total["analysis.one_rdm"]
    m["analysis.decompose.s"] = total["analysis.decompose"]
    m["spectra.transition_table.s"] = total["spectra.transition_table"]
    m["spectra.broaden.s"] = total["spectra.broaden"]

    # set-up layers
    m["detspace.enumerate_cas.s"] = total["detspace.enumerate_cas"]
    m["ingest.read_fcidump.s"] = total["ingest.read_fcidump"]
    m["ingest.parse_property_integrals.s"] = total["ingest.parse_property_integrals"]
    m["ligandfield.build_ligand_field_model.s"] = \
        total["ligandfield.build_ligand_field_model"]
    return m
