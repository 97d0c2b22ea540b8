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


def test_every_trace_target_fires(tmp_path, fixture_dir, monkeypatch):
    """The fixture's stages from ingest to rank, for one variant, call every
    target: a refactor that stops calling one is caught here, not by a
    per-layer metric that reads zero."""
    from test_cli import ALL_STAGES, write_config

    from threatshare import cli

    calls = dict.fromkeys(_trace_targets(), 0)
    for target in calls:
        module = importlib.import_module(target[0])

        def counted(*args, _fn=getattr(module, target[1]), _target=target, **kwargs):
            calls[_target] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, target[1], counted)
    config = write_config(tmp_path, fixture_dir, {"training": {"epochs": 1}})
    for stage in ALL_STAGES:
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
    assert [target for target, n in calls.items() if n == 0] == []
