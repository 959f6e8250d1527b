"""Process fan-out over independent units (:func:`run_chunked`).

Store, bench and consensus runs are always single-process: a store's keys
share one virtual clock, and splitting them across processes never paid for
its synchronisation (DESIGN.md §10).  What *does* fan out is work whose units
share nothing at all — chaos-sweep cells and explored schedule cases, each a
complete seeded run.  This module maps such units over a
:class:`concurrent.futures.ProcessPoolExecutor` with the ``spawn`` start
method, so every worker re-imports :mod:`repro` from scratch: no inherited
simulator state, no shared RNG streams.  Task functions must therefore be
module-level and their items and results picklable.

Nothing here is imported by ``import repro``; callers import it lazily, and
``workers=1`` never touches :mod:`multiprocessing` at all.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence


class WorkerFailure(RuntimeError):
    """A pool worker raised or died; the fan-out cannot produce a result.

    ``traceback_text`` carries the worker's formatted traceback when the
    task raised (empty when the process died without one).  The message
    embeds it so the root cause surfaces even through bare ``str(exc)``.
    """

    def __init__(self, message: str, traceback_text: str = "") -> None:
        if traceback_text:
            message = f"{message}\n--- worker traceback ---\n{traceback_text.rstrip()}"
        super().__init__(message)
        self.traceback_text = traceback_text


def run_chunked(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> List[Any]:
    """Apply ``fn`` to every item across ``workers`` spawned processes.

    Results come back in input order, exactly as ``[fn(item) for item in
    items]`` would produce them.  With ``workers <= 1`` (or at most one
    item) everything runs in-process — no spawn cost, the serial map itself.

    Raises :class:`WorkerFailure` when a task raises (with the remote
    traceback attached) or a worker process dies; tasks that have not
    started yet are cancelled.
    """
    items = list(items)
    workers = max(1, min(int(workers), len(items)))
    if workers <= 1:
        return [fn(item) for item in items]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        return list(pool.map(fn, items))
    except BrokenProcessPool as exc:
        raise WorkerFailure(f"a pool worker died: {exc}") from exc
    except Exception as exc:
        # The executor chains the worker's formatted traceback as __cause__.
        remote = exc.__cause__
        raise WorkerFailure(
            f"a pool worker raised {type(exc).__name__}: {exc}",
            traceback_text=str(remote) if remote is not None else "",
        ) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
