"""The benchmark's tracer wraps program functions by module attribute name
(``perfbench/spans.py``); every name it lists must exist, so that a rename
or an alias cannot silently break a traced run."""
import importlib.util
from pathlib import Path

import benchstat

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_a_callable_module_attribute():
    spans = _spans()
    names = [(module, function) for module, functions in spans.LAYER_FUNCTIONS.items() for function in functions]
    names += [tuple(name.split(".")) for name in spans.COUNTS]
    missing = [f"{m}.{f}" for m, f in names if not callable(getattr(getattr(benchstat, m, None), f, None))]
    assert not missing, missing
    assert set(spans.COUNTS) <= {f"{m}.{f}" for m, functions in spans.LAYER_FUNCTIONS.items() for f in functions}
