"""The public names the benchmark's tracer replays.

bench/tracing.py times each layer by calling a public name of qbandit; a
name that goes missing silently drops that layer's metrics.  This test reads
the tracer's name table without importing it, so a deletion fails here.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import qbandit
from qbandit.qbai import QbaiOperators

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_calls() -> dict[str, str]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_CALLS literal in {TRACER}")


def test_tracer_names_exist():
    calls = _layer_calls()
    assert calls
    missing = sorted(name for name in calls.values() if not hasattr(qbandit, name))
    assert not missing, missing
    assert isinstance(qbandit.FAMILIES, dict)
    assert "psi0_state" in {f.name for f in dataclasses.fields(QbaiOperators)}
    assert {"instance_id", "sim_cap"} <= set(inspect.signature(qbandit.compare).parameters)
    assert "sim_cap" in inspect.signature(qbandit.scaling_experiment).parameters
