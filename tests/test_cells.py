"""The paper drivers' cell runner (:mod:`repro.bench.cells`).

A pooled map must assemble exactly the rows an in-process map does, name
the failing cell, fail at once when a worker dies, and stay in-process
under a profiler.
"""

import cProfile
import multiprocessing
import os
import time

import pytest

from repro.bench import cells, fig7, table1
from repro.bench.cells import CellError, run_cells


def _pid(_index):
    return os.getpid()


def _exit(code):
    os._exit(code)


@pytest.fixture
def pooled(monkeypatch):
    monkeypatch.setattr(cells, "runs_inline", lambda count: False)


def _scenario(driver, params, monkeypatch, inline):
    monkeypatch.setattr(cells, "runs_inline", lambda count: inline)
    result = driver.scenario(params)
    return result.rows, result.extras


@pytest.mark.parametrize(
    "driver, params",
    [(fig7, {"sizes": [64, 8192]}), (table1, None)],
    ids=["fig7", "table1"],
)
def test_pooled_and_inline_rows_are_identical(driver, params, monkeypatch):
    pooled = _scenario(driver, params, monkeypatch, inline=False)
    inline = _scenario(driver, params, monkeypatch, inline=True)
    assert pooled == inline


def test_results_come_back_in_input_order(pooled):
    assert run_cells(abs, [(-value,) for value in range(7)]) == list(range(7))


def test_a_failing_cell_names_the_driver_and_its_arguments(pooled):
    with pytest.raises(CellError, match=r"fig7 cell throughput_cell\('bogus', 64, 2\)") as info:
        run_cells(fig7.throughput_cell, [("rmp", 64, 2), ("bogus", 64, 2)])
    assert "KeyError" in str(info.value)


def test_a_failing_inline_cell_is_named_the_same_way(monkeypatch):
    monkeypatch.setattr(cells, "runs_inline", lambda count: True)
    with pytest.raises(CellError, match=r"fig7 cell throughput_cell\('bogus', 64, 2\)"):
        run_cells(fig7.throughput_cell, [("bogus", 64, 2)])


def test_a_dead_worker_fails_the_map_at_once(pooled):
    start = time.monotonic()
    with pytest.raises(CellError, match=r"worker process died; test_cells cell _exit\(3,\)"):
        run_cells(_exit, [(3,), (3,)])
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_an_unpicklable_cell_function_fails_instead_of_hanging(pooled):
    with pytest.raises(CellError, match=r"cell <lambda>\(1,\) raised .*pickle"):
        run_cells(lambda value: value, [(1,), (2,)])
    assert multiprocessing.active_children() == []


def test_pooled_cells_run_in_worker_processes(pooled):
    assert os.getpid() not in run_cells(_pid, [(index,) for index in range(4)])


def test_cells_run_in_process_under_a_profiler():
    profile = cProfile.Profile()
    pids = profile.runcall(run_cells, _pid, [(index,) for index in range(4)])
    assert pids == [os.getpid()] * 4


def test_fewer_than_two_cells_run_in_process():
    assert cells.runs_inline(1)
    assert run_cells(_pid, [(0,)]) == [os.getpid()]
