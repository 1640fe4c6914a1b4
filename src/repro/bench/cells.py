"""One runner for the independent measurement cells of the paper drivers.

A *cell* is one measurement point of a table or figure: a module-level
function that builds its own system from its arguments, runs it, and
returns plain picklable values (floats, tuples, dicts).  Nothing a cell
computes depends on what ran before it in the same interpreter — no
class- or module-level state changes during a run, which nectarlint's
ND006 guards — so the cells of a sweep may run in any process, in any
order, and the driver assembles the same rows from them.

:func:`run_cells` maps a cell function over its argument tuples on a
fork-context process pool with one worker per usable CPU and returns the
results in input order.  It runs the cells in this process instead when
:func:`runs_inline` says a pool cannot help: one usable CPU, fewer than
two cells, no ``fork`` (or a daemonic process, which may not have
children), or a profiler attached — a profile hook sees only its own
process, so profiling a driver needs no flag.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Callable, List, Sequence

__all__ = ["CellError", "run_cells", "runs_inline"]


class CellError(RuntimeError):
    """A cell raised, or the worker process running it died."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _profiled() -> bool:
    if sys.getprofile() is not None:
        return True
    # From Python 3.12 on, cProfile attaches through sys.monitoring.
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID) is not None


def runs_inline(count: int) -> bool:
    """Whether :func:`run_cells` runs ``count`` cells in this process."""
    return (
        count < 2
        or _usable_cpus() < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or _profiled()
    )


def run_cells(fn: Callable, cells: Sequence[tuple]) -> List:
    """``[fn(*args) for args in cells]``, one worker process per usable CPU.

    ``fn`` must be a module-level function (the pool pickles it by name)
    and every result picklable.  A cell that raises is re-raised as
    :class:`CellError` naming the driver and the cell's arguments; a
    worker that dies fails the whole map with a :class:`CellError` at
    once rather than leaving it waiting.
    """
    cells = list(cells)
    if runs_inline(len(cells)):
        return [_outcome(fn, args, lambda: fn(*args)) for args in cells]
    # Imported here: every importer of a driver would otherwise pay the pool
    # machinery's import time and resident pages, pooled or not.
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    workers = min(_usable_cpus(), len(cells))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(fn, *args) for args in cells]
        try:
            return [_outcome(fn, args, future.result) for args, future in zip(cells, futures)]
        except CellError:
            for future in futures:
                future.cancel()
            raise


def _outcome(fn: Callable, args: tuple, result: Callable):
    """``result()``, with a failure named after the driver and the cell."""
    try:
        return result()
    except Exception as exc:
        from concurrent.futures import BrokenExecutor

        label = f"{fn.__module__.rpartition('.')[2]} cell {fn.__name__}{tuple(args)!r}"
        if isinstance(exc, BrokenExecutor):
            raise CellError(f"a worker process died; {label} did not finish") from exc
        raise CellError(f"{label} raised {exc!r}") from exc
