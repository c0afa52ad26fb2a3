"""Ground-truth loss accounting for fault-injected runs.

The chaos tests need an *independent* answer to "what should pairing
report?" — one maintained by the injection layer itself, not derived
from the analysis code under test.  :class:`FaultLedger` is that
answer: the capture tap feeds it exactly the packets the trace
collector records (post mirror loss, post capture drop, including
capture duplicates), and it applies the pairing *contract* — not the
pairing implementation — to predict the :class:`PairingStats` any
correct pairer must produce:

* a call whose key is already outstanding is a retransmission; the
  earlier call will never be answered (``unanswered_calls``);
* a reply within ``reply_timeout`` of its key's outstanding call pairs
  it; a later reply charges that call as unanswered and is then judged
  as if no call were outstanding;
* a reply with no outstanding call is a capture duplicate when the
  same key paired within ``reply_timeout``, otherwise an orphan
  (its call was lost);
* calls still outstanding at end of stream are unanswered.

:class:`~repro.analysis.pairing.StreamPairer` applies the same timeout
rule, so the two agree by contract, not by tuning.  The fault caps keep
every real answer inside the timeout anyway: injected delays stop at
:data:`~repro.faults.spec.MAX_FAULT_DELAY` (1 s) and client
retransmission backoff at ~4 s, both far under the 8 s reply timeout.
"""

from __future__ import annotations

from repro.nfs.messages import NfsCall, NfsReply, NfsStatus

#: Mirrors repro.analysis.pairing.DEFAULT_REPLY_TIMEOUT.  Kept as a
#: literal here because importing repro.analysis at module scope would
#: cycle back through repro.workloads into this package; a unit test
#: asserts the two stay equal.
DEFAULT_REPLY_TIMEOUT = 8.0


class FaultLedger:
    """Predicts pairing stats from the captured packet stream."""

    __slots__ = (
        "reply_timeout", "calls", "replies", "paired", "orphan_replies",
        "unanswered_calls", "duplicate_replies", "errors",
        "_outstanding", "_recent",
    )

    def __init__(self, *, reply_timeout: float = DEFAULT_REPLY_TIMEOUT) -> None:
        self.reply_timeout = reply_timeout
        self.calls = 0
        self.replies = 0
        self.paired = 0
        self.orphan_replies = 0
        self.unanswered_calls = 0
        self.duplicate_replies = 0
        self.errors = 0
        self._outstanding: dict[tuple[str, int], float] = {}
        self._recent: dict[tuple[str, int], float] = {}

    def on_call(self, call: NfsCall) -> None:
        """Account one captured call packet."""
        self.calls += 1
        key = (call.client, call.xid)
        if key in self._outstanding:
            # retransmission (or duplicated call packet): the earlier
            # call can never be answered under its key any more
            self.unanswered_calls += 1
        self._outstanding[key] = call.time

    def on_reply(self, reply: NfsReply) -> None:
        """Account one captured reply packet."""
        self.replies += 1
        key = (reply.client, reply.xid)
        sent = self._outstanding.pop(key, None)
        if sent is not None:
            if reply.time - sent <= self.reply_timeout:
                self.paired += 1
                if reply.status is not NfsStatus.OK:
                    self.errors += 1
                self._recent[key] = reply.time
                return
            # too late to answer it: that call's reply was lost
            self.unanswered_calls += 1
        seen = self._recent.get(key)
        if seen is not None and reply.time - seen <= self.reply_timeout:
            self.duplicate_replies += 1
            self._recent[key] = reply.time
        else:
            self.orphan_replies += 1

    def expected_stats(self) -> PairingStats:
        """The stats a correct pairer must report for this capture.

        Non-destructive: calls still outstanding are *counted* as
        unanswered without being dropped, so this can be read mid-run.
        """
        # deferred import: repro.analysis pulls in repro.workloads,
        # which imports this package (see DEFAULT_REPLY_TIMEOUT above)
        from repro.analysis.pairing import PairingStats

        return PairingStats(
            calls=self.calls,
            replies=self.replies,
            paired=self.paired,
            orphan_replies=self.orphan_replies,
            unanswered_calls=self.unanswered_calls + len(self._outstanding),
            errors=self.errors,
            duplicate_replies=self.duplicate_replies,
        )


def aggregate_stats(parts):
    """Field-wise sum of per-world :class:`PairingStats` predictions.

    Sharded simulations run one ledger per client group.  Pairing keys
    ``(client, xid)`` are disjoint across groups (host names are
    group-tagged), so each ledger's per-world exactness makes the sum
    exact for the merged trace: no cross-group retransmission,
    duplicate, or orphan interaction is possible.
    """
    # deferred import: see expected_stats
    from repro.analysis.pairing import PairingStats

    return sum(parts, PairingStats())
