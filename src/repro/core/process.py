"""Executable implementation of Figure 1 (the two-bit algorithm).

Every code block below is annotated with the pseudocode line numbers it
implements, so the implementation can be audited against the paper line by
line.  Recap of the structure of Figure 1:

* ``write(v)``            — lines 1–4, executed by the writer ``p_w`` only;
* ``read()``              — lines 5–10, executed by any process;
* ``WRITE(b, v)`` handler — lines 11–18, executed by any process;
* ``READ()`` handler      — lines 19–21;
* ``PROCEED()`` handler   — line 22.

The pseudocode's blocking ``wait`` statements map onto the guard mechanism of
:class:`repro.transport.runtime.ProcessBase`:

=========  =====================================================  ==========================
line       awaited predicate                                      where implemented
=========  =====================================================  ==========================
line 3     ``#{j : w_sync_w[j] = wsn} >= n - t``                  :meth:`_start_write`
line 7     ``#{j : r_sync_i[j] = rsn} >= n - t``                  :meth:`_start_read`
line 9     ``#{j : w_sync_i[j] >= sn} >= n - t``                  :meth:`_start_read`
line 11    ``b = (w_sync_i[j] + 1) mod 2``                        :meth:`_handle_write`
line 20    ``w_sync_i[j] >= sn``                                  :meth:`_handle_read`
=========  =====================================================  ==========================

The per-pair *alternating-bit* discipline is a consequence of the sending
predicates (lines 2, 15, 16) together with the line-11 wait; nothing extra is
needed here beyond implementing those lines faithfully.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.messages import ProceedMessage, ReadMessage, WriteMessage
from repro.core.state import TwoBitState
from repro.registers.base import OperationRecord, RegisterProcess
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TwoBitRegisterProcess(RegisterProcess):
    """A process running the two-bit SWMR atomic-register algorithm.

    Parameters
    ----------
    pid, simulator, network, writer_pid, t, initial_value:
        See :class:`repro.registers.base.RegisterProcess`.
    writer_fast_read:
        The paper notes (comment on line 5) that the writer "can directly
        return ``history_i[w_sync_i[i]]``".  When this flag is true the
        writer's reads take that shortcut; by default the writer runs the
        general read path (also correct, and what the latency benchmarks
        measure for non-writer readers anyway).
    """

    def __init__(
        self,
        pid: int,
        simulator: Simulator,
        network: Network,
        writer_pid: int,
        t: Optional[int] = None,
        initial_value: Any = None,
        writer_fast_read: bool = False,
    ) -> None:
        super().__init__(pid, simulator, network, writer_pid, t, initial_value)
        self.writer_fast_read = writer_fast_read
        self.state: Optional[TwoBitState] = None
        # Messages whose line-11 predicate is not yet satisfied, per sender.
        self._reordered_writes = 0

    # ---------------------------------------------------------------- set-up

    def finish_setup(self) -> None:
        """Allocate the local data structures once the full membership is known."""
        super().finish_setup()
        self.state = TwoBitState(n=self.n, pid=self.pid, initial_value=self.initial_value)

    def _require_state(self) -> TwoBitState:
        if self.state is None:
            raise RuntimeError(
                "finish_setup() was not called; build processes through the "
                "RegisterAlgorithm factory or call finish_setup() explicitly"
            )
        return self.state

    # ------------------------------------------------------------- operations

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        """``operation write(v)`` — lines 1–4 (writer only)."""
        st = self._require_state()
        value = record.value

        # line 1: wsn <- w_sync_w[w] + 1; w_sync_w[w] <- wsn;
        #         history_w[wsn] <- v; b <- wsn mod 2
        wsn = st.w_sync[self.pid] + 1
        st.w_sync[self.pid] = wsn
        st.record_value(wsn, value)
        message = WriteMessage(bit=wsn % 2, value=value)

        # line 2: send WRITE(b, v) to every p_j with w_sync_w[j] = wsn - 1
        for j in self.other_process_ids():
            if st.w_sync[j] == wsn - 1:
                self.send(j, message)

        # line 3: wait until at least (n - t) processes p_j have w_sync_w[j] = wsn
        # (the writer itself counts: w_sync_w[w] = wsn already).
        def write_quorum_reached() -> bool:
            return self.quorum.quorum_of(st.w_sync, lambda entry: entry == wsn)

        # line 4: return()
        self.add_guard(write_quorum_reached, done, label=f"write#{wsn} line 3 quorum")

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """``operation read()`` — lines 5–10 (any process)."""
        st = self._require_state()

        # Optional shortcut noted in the paper: the writer may return the last
        # value of its own history immediately.
        if self.writer_fast_read and self.is_writer:
            done(st.history[st.w_sync[self.pid]])
            return

        # line 5: rsn <- r_sync_i[i] + 1; r_sync_i[i] <- rsn
        rsn = st.r_sync[self.pid] + 1
        st.r_sync[self.pid] = rsn

        # line 6: send READ() to every other process
        for j in self.other_process_ids():
            self.send(j, ReadMessage())

        # line 7: wait until at least (n - t) processes p_j have r_sync_i[j] = rsn
        def read_quorum_reached() -> bool:
            return self.quorum.quorum_of(st.r_sync, lambda entry: entry == rsn)

        def after_proceed_quorum() -> None:
            # line 8: sn <- w_sync_i[i]
            sn = st.w_sync[self.pid]

            # line 9: wait until at least (n - t) processes p_j have w_sync_i[j] >= sn
            def value_known_by_quorum() -> bool:
                return self.quorum.quorum_of(st.w_sync, lambda entry: entry >= sn)

            # line 10: return(history_i[sn])
            self.add_guard(
                value_known_by_quorum,
                lambda: done(st.history[sn]),
                label=f"read#{rsn} line 9 quorum (sn={sn})",
            )

        self.add_guard(read_quorum_reached, after_proceed_quorum, label=f"read#{rsn} line 7 quorum")

    # --------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        """Dispatch on the four message types."""
        if isinstance(message, WriteMessage):
            self._handle_write(src, message)
        elif isinstance(message, ReadMessage):
            self._handle_read(src)
        elif isinstance(message, ProceedMessage):
            self._handle_proceed(src)
        else:
            raise TypeError(f"p{self.pid} received unknown message {message!r} from p{src}")

    # -- WRITE(b, v) -----------------------------------------------------------

    def _handle_write(self, src: int, message: WriteMessage) -> None:
        """``when WRITE(b, v) is received from p_j`` — lines 11–18."""
        st = self._require_state()

        # line 11: wait (b = (w_sync_i[j] + 1) mod 2).
        # With non-FIFO channels a WRITE can overtake its predecessor; the
        # alternating parity bit detects this, and the wait simply defers the
        # overtaking message until the predecessor has been processed.
        def in_order() -> bool:
            return message.bit == (st.w_sync[src] + 1) % 2

        if in_order():
            self._process_write(src, message)
        else:
            self._reordered_writes += 1
            self.add_guard(
                in_order,
                lambda: self._process_write(src, message),
                label=f"line 11 reorder buffer (from p{src}, bit={message.bit})",
            )

    def _process_write(self, src: int, message: WriteMessage) -> None:
        """Lines 12–18 — the body executed once the line-11 predicate holds."""
        st = self._require_state()

        # line 12: wsn <- w_sync_i[j] + 1    (the locally reconstructed
        # sequence number of the value carried by this message)
        wsn = st.w_sync[src] + 1

        # line 13: if (wsn = w_sync_i[i] + 1)
        if wsn == st.w_sync[self.pid] + 1:
            # line 14: w_sync_i[i] <- wsn; history_i[wsn] <- v; b <- wsn mod 2
            st.w_sync[self.pid] = wsn
            st.record_value(wsn, message.value)
            forward = WriteMessage(bit=wsn % 2, value=message.value)
            # line 15: forward WRITE(b, v) to every p_l with w_sync_i[l] = wsn - 1
            # (rule R1; note that p_j itself still has w_sync_i[j] = wsn - 1 at
            # this point, so the forward doubles as the alternating-bit
            # acknowledgement towards p_j).
            for target in self.network.process_ids:
                if target != self.pid and st.w_sync[target] == wsn - 1:
                    self.send(target, forward)
        # line 16: else if (wsn < w_sync_i[i]) send WRITE((wsn+1) mod 2, history_i[wsn+1]) to p_j
        elif wsn < st.w_sync[self.pid]:
            catch_up = WriteMessage(bit=(wsn + 1) % 2, value=st.history[wsn + 1])
            self.send(src, catch_up)
        # (implicit third case wsn = w_sync_i[i]: nothing to send — p_j is
        #  exactly as up to date as p_i.)

        # line 18: w_sync_i[j] <- wsn
        if wsn != st.w_sync[src] + 1:  # pragma: no cover - line 12 guarantees this
            raise AssertionError("Lemma 1 violated: w_sync must increase by steps of 1")
        st.w_sync[src] = wsn

    # -- READ() ---------------------------------------------------------------

    def _handle_read(self, src: int) -> None:
        """``when READ() is received from p_j`` — lines 19–21."""
        st = self._require_state()

        # line 19: sn <- w_sync_i[i]   (freshness point fixed at reception time)
        sn = st.w_sync[self.pid]

        # line 20: wait (w_sync_i[j] >= sn)
        def requester_is_fresh() -> bool:
            return st.w_sync[src] >= sn

        # line 21: send PROCEED() to p_j
        self.add_guard(
            requester_is_fresh,
            lambda: self.send(src, ProceedMessage()),
            label=f"line 20 freshness wait (reader p{src}, sn={sn})",
        )

    # -- PROCEED() --------------------------------------------------------------

    def _handle_proceed(self, src: int) -> None:
        """``when PROCEED() is received from p_j`` — line 22."""
        st = self._require_state()
        # line 22: r_sync_i[j] <- r_sync_i[j] + 1
        st.r_sync[src] += 1

    # ------------------------------------------------------------- inspection

    @property
    def reordered_write_count(self) -> int:
        """How many WRITE messages arrived out of order and were deferred by line 11."""
        return self._reordered_writes

    def known_history(self) -> list[Any]:
        """The prefix of written values this process currently knows."""
        return self._require_state().known_prefix()

    def local_memory_words(self) -> int:
        """Local-memory footprint in words (Table 1, line 4)."""
        if self.state is None:
            return 0
        return self.state.local_memory_words()
