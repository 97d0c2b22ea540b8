"""The benchmark's trace targets name functions the package still has.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``TARGETS``
to time a layer. A target renamed or moved in ``src/`` would stop its span
from firing, and its per-layer metrics would read zero without an error, so
each target must resolve to a callable of a module under ``src/``.
"""

import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "bench" / "tracing.py"


def _trace_targets() -> list[tuple[str, str]]:
    """``TARGETS`` of the benchmark's tracer, read from its source (nothing
    under ``bench/`` is imported, so no bytecode is written there)."""
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [(module, attr) for module, attr, _, _ in namespace["TARGETS"]]


@pytest.mark.parametrize("module_name,attr", _trace_targets())
def test_trace_target_resolves_under_src(module_name, attr):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(REPO / "src"), module.__file__
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
