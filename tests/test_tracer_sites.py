import importlib
import importlib.util
from pathlib import Path

from casq import driver

from conftest import cas56_magnetic_problem

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("casq_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_exists():
    # the benchmark tracer wraps these module attributes; a site deleted
    # from casq would leave a per-layer metric silently empty
    tracer = _tracer()
    sites = [site[:2] for site in tracer.SPAN_SITES + tracer.COUNT_SITES]
    assert sites
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not callable(getattr(importlib.import_module(f"casq.{mod}"),
                                       attr, None))]
    assert missing == []


def test_traced_magnetic_run_fills_its_layers():
    # the tracer's notes read its sites' arguments by position, so a
    # signature change must show here, not first in a traced benchmark run
    module = _tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        result = driver.run_gtensor(*cas56_magnetic_problem())
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = module.layer_metrics(tracer)
    assert metrics["soc.basis_size"] == result.basis.size > 0
