"""The process fan-out: input order, in-process fallback, and fail-fast errors.

Task functions live at module level so spawned workers can unpickle them by
qualified name.  A task that raises must surface its remote traceback; a
worker that dies outright must break the pool promptly — either way the
caller gets a :class:`WorkerFailure`, never a hang.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.parallel import WorkerFailure, run_chunked


def _square(value):
    return value * value


def _raise_on_three(value):
    if value == 3:
        raise ValueError(f"task rejected item {value}")
    return value


def _exit_abruptly(value):
    os._exit(3)


def _pid(_value):
    return os.getpid()


class TestRunChunked:
    def test_results_come_back_in_input_order(self):
        assert run_chunked(_square, list(range(7)), 3) == [v * v for v in range(7)]

    def test_single_worker_maps_in_process(self):
        # Closures do not pickle: this only works because workers=1 never spawns.
        offset = 10
        assert run_chunked(lambda v: v + offset, [1, 2, 3], 1) == [11, 12, 13]
        assert run_chunked(_pid, [0, 1], 1) == [os.getpid()] * 2

    def test_pool_runs_in_other_processes(self):
        assert os.getpid() not in run_chunked(_pid, [0, 1, 2, 3], 2)

    def test_raising_task_surfaces_its_traceback(self):
        started = time.monotonic()
        with pytest.raises(WorkerFailure) as excinfo:
            run_chunked(_raise_on_three, list(range(6)), 2)
        assert time.monotonic() - started < 60.0
        assert "task rejected item 3" in str(excinfo.value)
        assert "_raise_on_three" in excinfo.value.traceback_text
        assert "worker traceback" in str(excinfo.value)

    def test_dead_worker_fails_fast(self):
        started = time.monotonic()
        with pytest.raises(WorkerFailure, match="died"):
            run_chunked(_exit_abruptly, list(range(4)), 2)
        assert time.monotonic() - started < 60.0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_input_returns_empty_list(self, workers):
        assert run_chunked(_square, [], workers) == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_worker_counts_map_in_process(self, workers):
        assert run_chunked(_pid, [0, 1, 2], workers) == [os.getpid()] * 3

    def test_single_item_never_spawns(self):
        assert run_chunked(_pid, [0], 4) == [os.getpid()]

    def test_uneven_split_matches_the_serial_map(self):
        items = list(range(11))
        assert run_chunked(_square, items, 3) == run_chunked(_square, items, 1)


class TestWorkerFailure:
    def test_message_without_traceback_is_left_as_is(self):
        failure = WorkerFailure("a pool worker died: boom")
        assert str(failure) == "a pool worker died: boom"
        assert failure.traceback_text == ""

    def test_traceback_is_appended_to_the_message(self):
        failure = WorkerFailure("a pool worker raised", traceback_text="Traceback ...\n")
        assert str(failure) == "a pool worker raised\n--- worker traceback ---\nTraceback ..."


def test_importing_repro_loads_no_pool_machinery():
    # The fan-out is imported lazily: plain store runs pay for no pool.
    probe = (
        "import sys, repro\n"
        "loaded = [name for name in sys.modules\n"
        "          if name == 'repro.parallel' or name.split('.')[0] in\n"
        "          ('multiprocessing', 'concurrent')]\n"
        "print(','.join(sorted(loaded)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == ""
