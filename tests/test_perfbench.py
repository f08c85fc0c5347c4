"""The benchmark's tracer wraps entry points by name; each must exist."""
from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_entry_point_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    for metric, owner, attribute, _ in child.trace_targets():
        assert callable(getattr(owner, attribute, None)), (metric, attribute)
