"""The names and arguments that the benchmark's span tracer reads from the library.

``perfbench/tracing.py`` wraps library functions by name and reads span
attributes from their arguments; a rename or a reordered signature would
leave its per-layer metrics empty without an error.  It is imported here
from its file, as the benchmark runs it.
"""

import importlib.util
from pathlib import Path

from mjpbounds import bounds
from mjpbounds.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _tracing()
    before = bounds.evaluate_family
    with tracing.patched(tracing.Tracer()) as missing:
        assert missing == []
        assert bounds.evaluate_family is not before
    assert bounds.evaluate_family is before


def test_traced_bounds_run_names_each_family(model_file, tmp_path):
    # the tracer reads the family as the fourth positional argument
    tracing = _tracing()
    tracer = tracing.Tracer()
    families = ["general", "perturbation", "poincare", "bernstein_general"]
    with tracing.patched(tracer):
        assert main(
            ["bounds", "--model", model_file(), "--t", "5", "--u-grid", "0.1:0.3:3",
             "--families", ",".join(families), "--out", str(tmp_path / "b.csv")]
        ) == 0
    spans = [s for s in tracer.spans if s[2] == "bounds.evaluate_family"]
    assert [s[5] for s in spans] == families
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["bounds.evaluate_family_calls"] == (len(families), "count")
    assert all(metrics[f"bounds.evaluate_family_s.{fam}"][0] > 0.0 for fam in families)
