"""The library's public surface: how its value types compare, and the names
the benchmark harness (``perfbench/``) reads from the package."""

import importlib
import re
from pathlib import Path

import pytest

import mslcp
from mslcp import (GridLcpSpec, InnerSchedule, LcpProblem, Partition,
                   SolverConfig, WeightingScheme, build_block_splitting,
                   classify, make_grid_lcp, reference_solve, solve_sync)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# an attribute chain read from the package, as perfbench's run.py binds it
# (``lib``) or its tests import it (``mslcp``)
CHAIN = re.compile(r"\b(?:lib|mslcp)((?:\.[A-Za-z_]\w*)+)")


def _values():
    """One instance of each value type that holds arrays, built twice."""
    prob = make_grid_lcp(GridLcpSpec(3))
    part = Partition.contiguous(prob.n, 2)
    ms = build_block_splitting(prob.A, part)
    events = []
    solve_sync(prob, ms, SolverConfig(schedule=InnerSchedule.fixed(1),
                                      max_outer=1),
               on_step=events.append)
    return {"Partition": part,
            "WeightingScheme": WeightingScheme.indicator(part),
            "MultisplittingSet": ms,
            "LcpProblem": LcpProblem(prob.A, prob.f),
            "LcpSolution": reference_solve(prob),
            "MatrixClass": classify(prob.A),
            "StepEvent": events[0]}


@pytest.mark.parametrize("name", ["Partition", "WeightingScheme",
                                  "MultisplittingSet", "LcpProblem",
                                  "LcpSolution", "MatrixClass", "StepEvent"])
def test_value_types_holding_arrays_compare_by_identity(name):
    first, second = _values()[name], _values()[name]
    assert type(first).__name__ == name
    assert first == first and not first != first
    assert first != second and not first == second


def _chains():
    return sorted({(path.name, match.group(1)[1:])
                   for path in PERFBENCH.glob("*.py")
                   for match in CHAIN.finditer(path.read_text())})


def _resolve(chain: str):
    obj = mslcp
    for part in chain.split("."):
        if not hasattr(obj, part):
            # a submodule that the package's __init__ does not import
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def test_the_benchmark_reads_some_names():
    assert ("run.py", "sync.solve_sync") in _chains()


@pytest.mark.parametrize("source, chain", _chains())
def test_every_name_the_benchmark_reads_exists(source, chain):
    _resolve(chain)
