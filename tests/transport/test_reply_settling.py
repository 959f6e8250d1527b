"""Live reply settling: each operation is stamped the moment its reply lands.

:func:`settle_on_reply` hangs the settle step on the reply future's
done-callback, :func:`settle_unanswered` waits out a deadline and fails what
never answered, and :func:`record_reply` writes the outcome into the OpLog
and the metrics.  These units drive them on a bare event loop — no sockets,
no replicas — so the stamping order is exact rather than timing-dependent.
"""

import asyncio

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.transport.live import _PendingOp, record_reply, settle_on_reply, settle_unanswered


def make_pending(loop, oplog, kind=OperationKind.READ, key="k", value=None, invoked_at=0.0):
    row = oplog.note_created(kind, key, value)
    oplog.note_submitted(row, invoked_at)
    record = OperationRecord(op_id=row, pid=0, kind=kind, value=value, invoked_at=invoked_at)
    oplog.note_issued(row, record)
    return _PendingOp(row, record, loop.create_future())


def run(coro_fn):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro_fn(loop))
    finally:
        loop.close()


class TestSettleOnReply:
    def test_reply_is_settled_before_the_driving_loop_looks(self):
        async def scenario(loop):
            oplog = OpLog()
            first, second = make_pending(loop, oplog), make_pending(loop, oplog)
            settled = []
            for pending in (first, second):
                settle_on_reply(pending, lambda p, frame: settled.append((p.row, frame)))
            first.future.set_result({"ok": True, "value": "v1"})
            await asyncio.sleep(0)  # one loop turn: callbacks run, nobody awaited
            after_first = list(settled)
            second.future.set_result({"ok": True, "value": "v2"})
            await asyncio.sleep(0)
            return after_first, settled

        after_first, settled = run(scenario)
        assert after_first == [(0, {"ok": True, "value": "v1"})]
        assert settled == [(0, {"ok": True, "value": "v1"}), (1, {"ok": True, "value": "v2"})]

    def test_cancelled_future_is_not_settled_by_the_callback(self):
        async def scenario(loop):
            pending = make_pending(loop, OpLog())
            settled = []
            settle_on_reply(pending, lambda p, frame: settled.append(frame))
            pending.future.cancel()
            await asyncio.sleep(0)
            return settled

        assert run(scenario) == []


class TestSettleUnanswered:
    def test_unanswered_ops_settle_once_as_missing_and_answered_ones_once(self):
        async def scenario(loop):
            oplog = OpLog()
            answered, silent = make_pending(loop, oplog), make_pending(loop, oplog)
            settled = []

            def settle(pending, frame):
                settled.append((pending.row, frame))

            for pending in (answered, silent):
                settle_on_reply(pending, settle)
            answered.future.set_result({"ok": True, "value": "v"})
            await settle_unanswered([answered, silent], settle, timeout=0.01)
            await asyncio.sleep(0)  # the cancelled future's callback must stay silent
            return settled, silent.future.cancelled()

        settled, silent_cancelled = run(scenario)
        assert sorted(settled, key=lambda item: item[0]) == [
            (0, {"ok": True, "value": "v"}),
            (1, None),
        ]
        assert silent_cancelled

    def test_empty_batch_returns_immediately(self):
        async def scenario(loop):
            settled = []
            await settle_unanswered([], lambda p, frame: settled.append(frame), timeout=60.0)
            return settled

        assert run(scenario) == []


class TestRecordReply:
    def test_ok_frame_completes_the_op_at_the_arrival_time(self):
        async def scenario(loop):
            oplog, metrics = OpLog(), MetricsCollector(wall_clock=True)
            pending = make_pending(loop, oplog, invoked_at=1.0)
            metrics.note_issued(1.0)
            reason = record_reply(pending, {"ok": True, "value": "v7"}, 1.25, oplog, metrics)
            return reason, pending.record, oplog, metrics

        reason, record, oplog, metrics = run(scenario)
        assert reason is None
        assert record.completed and record.result == "v7"
        assert record.responded_at == 1.25
        (history,) = oplog.per_key_histories().values()
        (operation,) = history.to_history().operations
        assert (operation.invoked_at, operation.responded_at) == (1.0, 1.25)
        assert metrics.completed == 1

    def test_error_and_missing_frames_fail_the_op_with_a_reason(self):
        async def scenario(loop):
            oplog, metrics = OpLog(), MetricsCollector(wall_clock=True)
            refused = make_pending(loop, oplog)
            silent = make_pending(loop, oplog)
            reasons = (
                record_reply(refused, {"ok": False, "error": "replica down"}, 2.0, oplog, metrics),
                record_reply(silent, None, 2.0, oplog, metrics),
            )
            return reasons, oplog, refused, silent

        reasons, oplog, refused, silent = run(scenario)
        assert reasons == ("replica down", "no response before deadline")
        assert oplog.reasons == {refused.row: "replica down", silent.row: reasons[1]}
        assert not refused.record.completed and not silent.record.completed
