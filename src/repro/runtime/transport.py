"""Message transport: wire times and reliable delivery (S20).

The message plane between simulated processes.  On reliable-delivery
runs (a :class:`~repro.runtime.faults.RecoveryConfig` is armed) every
remote stream is stamped with a unique ``(src program, seq)`` id,
acknowledged on arrival, and retransmitted with exponential backoff
until acked; receivers discard already-seen ids, so drops, duplicates
and retries are invisible to programs.  Without a recovery config the
transport degenerates to plain wire time (latency + size/bandwidth) on
a lossless network.

The fault-injection hook lives on this layer's send path: each
(re)transmission first checks the directed link for an active
partition (black-holed silently - only the ack timer recovers, once
the partition heals), then asks the
:class:`~repro.runtime.faults.FaultInjector` for the message's fate
(deliver / drop / duplicate / corrupt), and each arrival ack may
itself be dropped or black-holed.

Reliable sends carry an end-to-end CRC32 over header and payload;
a receiver that recomputes a mismatching checksum NACKs the message
instead of acking it, and the sender retransmits immediately (fast
retransmit, not burning the retry budget - corruption is transient,
unlike an unreachable peer).

The transport also owns the liveness watchdog's diagnosis: its pending
set *is* the run's wait-for state, so :meth:`Transport.stall_snapshot`
renders it as a :class:`~repro.runtime.simulator.StallReport` naming
every blocked dependency, the lost ones, and any wait-for cycle.

Adaptive extensions (opt-in via :class:`~repro.runtime.faults.
AdaptiveConfig`, all rng-neutral when off):

* **per-link RTT estimation** - every clean ack (never a retransmitted
  or failover-re-armed send: Karn's rule) feeds a Jacobson SRTT/RTTVAR
  estimator for its ``(src proc, dst proc)`` link, and new sends arm
  ``clamp(SRTT + RTO_K*RTTVAR, MIN_RTO, MAX_RTO)`` instead of the fixed
  ``ACK_TIMEOUT``.

Forwarding is always on: an in-flight message that arrives at a
process which no longer owns the destination program (demotion or a
membership suspicion moved it while the message was on the wire) is
forwarded to the current owner instead of being mis-delivered; the ack
travels only from the final arrival.

Whether fixed or adaptive, a retransmit timeout never escalates past
``MAX_RTO``: unbounded exponential backoff would let a
long partition push a single timer past the watchdog horizon.

Sits above :mod:`repro.runtime.simulator` (events, timers) and
:mod:`repro.runtime.router` (current owner of source and destination
programs; crashed-process checks).  It knows nothing about scheduling
or checkpoint policy - failover hands it the checkpointed un-acked
sends to re-arm, as data.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

from .._util import ReproError
from ..core.stream import ProgramId, Stream
from .cluster import Layout, Machine
from .faults import (
    ACK_TIMEOUT, BACKOFF, MAX_RETRIES, MAX_RTO, MIN_RTO, RTO_K, RTTVAR_GAIN,
    SRTT_GAIN, FaultInjector, RecoveryConfig,
)
from .metrics import RunReport
from .router import Router
from .simulator import KindRow, Simulator, StallReport, WaitEdge

__all__ = ["PendingSend", "RttEstimator", "Transport", "stream_checksum"]


def stream_checksum(s: Stream) -> int:
    """End-to-end CRC32 of one stream: header fields plus payload bytes.

    ndarray payloads hash their raw bytes (so an in-flight bit flip is
    always caught); opaque payloads hash their repr, which is stable
    within a run.
    """
    crc = zlib.crc32(
        repr((s.src, s.dst, s.seq, s.epoch, s.items, s.nbytes)).encode()
    )
    p = s.payload
    if isinstance(p, np.ndarray):
        crc = zlib.crc32(np.ascontiguousarray(p).tobytes(), crc)
    elif isinstance(p, (bytes, bytearray)):
        crc = zlib.crc32(bytes(p), crc)
    elif p is not None:
        crc = zlib.crc32(repr(p).encode(), crc)
    return crc


class RttEstimator:
    """Jacobson SRTT/RTTVAR estimator for one directed proc link (or,
    in the membership plane, one probed process).

    RFC 6298 shape: the first sample seeds ``SRTT = R, RTTVAR = R/2``;
    subsequent samples blend with gains ``SRTT_GAIN`` (alpha) and
    ``RTTVAR_GAIN`` (beta).  Karn's rule is enforced by the *caller*:
    only acks of sends transmitted exactly once may be sampled, since an
    ack of an ambiguous send cannot be matched to a transmission.
    """

    __slots__ = ("srtt", "rttvar", "samples")

    def __init__(self):
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.samples = 0

    def sample(self, r: float) -> None:
        if r < 0:
            raise ReproError("negative RTT sample")
        if self.srtt is None:
            self.srtt = r
            self.rttvar = r / 2.0
        else:
            self.rttvar = (
                (1.0 - RTTVAR_GAIN) * self.rttvar
                + RTTVAR_GAIN * abs(self.srtt - r)
            )
            self.srtt = (1.0 - SRTT_GAIN) * self.srtt + SRTT_GAIN * r
        self.samples += 1

    def rto(self, lo: float, hi: float) -> float:
        """``clamp(SRTT + RTO_K * RTTVAR, lo, hi)``."""
        if self.srtt is None:
            raise ReproError("RTO requested before any RTT sample")
        return min(max(self.srtt + RTO_K * self.rttvar, lo), hi)

    def state(self) -> tuple:
        """Codec-ready snapshot form: ``(srtt, rttvar, samples)``."""
        return (self.srtt, self.rttvar, self.samples)

    @classmethod
    def from_state(cls, state) -> RttEstimator:
        """Rebuild an estimator from :meth:`state`'s tuple."""
        est = cls()
        est.srtt, est.rttvar, est.samples = state
        return est


class PendingSend:
    """Ack/retransmit bookkeeping of one un-acked remote stream."""

    __slots__ = (
        "stream", "src_pid", "retries", "timeout", "attempt",
        "sent_at", "link",
    )

    def __init__(self, stream: Stream, src_pid: ProgramId, timeout: float):
        self.stream = stream
        self.src_pid = src_pid
        self.retries = 0
        self.timeout = timeout
        self.attempt = 0  # bumped on every (re)arm; lazily cancels timers
        self.sent_at: float | None = None  # first-copy launch time (RTT)
        self.link: tuple[int, int] | None = None  # (src proc, dst proc)


class Transport:
    """Inter-process message plane, optionally with reliable delivery."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        machine: Machine,
        layout: Layout,
        report: RunReport,
        injector: FaultInjector | None = None,
        rcfg: RecoveryConfig | None = None,
    ) -> None:
        self.sim = sim
        self.router = router
        self.machine = machine
        self.layout = layout
        self.report = report
        self.inj = injector
        self.rcfg = rcfg
        #: Per-link RTT estimation arms new sends (AdaptiveConfig).
        self.adaptive_rto = (
            rcfg is not None and rcfg.adaptive is not None
            and rcfg.adaptive.adaptive_rto
        )
        # Elastic membership (DESIGN.md §14): when armed, every
        # reliable send is tagged (sender proc, incarnation) and
        # receivers fence traffic from a previous life.
        self.membership = rcfg is not None and rcfg.membership
        # Next seq per sending program, keyed by the router's interned
        # program index (minted at route-table build) - a flat array
        # instead of a ProgramId-keyed dict on the reliable send path.
        self.out_seq: list[int] = [0] * len(router.pids)
        # Per-copy wire ids for the happens-before trace.  Deliberately
        # NOT the simulator's tie-break sequence: allocating sim seqs
        # here would shift event ordering and break golden fingerprints.
        self._wire_seq = 0
        # Hot-path tables: node id per process (so clean-path wire time
        # is two list reads + one divide, no method dispatch) and the
        # interned event-kind ids this layer pushes.
        self._node = [machine.node_of(p, layout) for p in range(layout.nprocs)]
        self._lat_intra = machine.latency_intra
        self._lat_inter = machine.latency_inter
        self._bandwidth = machine.bandwidth
        self._k_msg_arrive = sim.kind_id("msg_arrive")
        self._k_ack = sim.kind_id("ack")
        self._k_nack = sim.kind_id("nack")
        self._k_timer = sim.kind_id("timer")
        self.pending: dict[tuple, PendingSend] = {}  # uid -> un-acked send
        self.seen: set[tuple] = set()  # uids already delivered (dup discard)
        self.rtt: dict[tuple[int, int], RttEstimator] = {}  # per link

    @property
    def reliable(self) -> bool:
        return self.rcfg is not None

    def kinds(self) -> list[KindRow]:
        """The reliable-delivery control plane's rows of the kind table
        (``msg_arrive`` is pushed here but owned by the scheduler)."""
        return [
            KindRow("ack", self.on_ack, control=True),
            KindRow("nack", self.on_nack, control=True),
            KindRow("timer", self.on_timer, control=True),
        ]

    def _initial_rto(self, src_proc: int, dst_proc: int) -> float:
        """First-arm timeout of a fresh send: the link's estimated RTO
        when adaptive and warmed up, the fixed ``ACK_TIMEOUT`` otherwise
        (``MAX_RTO`` caps both; ``ACK_TIMEOUT <= MAX_RTO``)."""
        if self.adaptive_rto:
            est = self.rtt.get((src_proc, dst_proc))
            if est is not None and est.srtt is not None:
                return est.rto(MIN_RTO, MAX_RTO)
        return ACK_TIMEOUT

    # -- send path ----------------------------------------------------------------

    def _wire_push(self, now: float, arrive: float, src_proc: int,
                   dst_proc: int, s: Stream) -> None:
        """Schedule one physical ``msg_arrive`` copy.

        Every copy that goes on the wire - first transmission,
        retransmit, duplicate, corrupt clone, forward hop -
        passes through here, gets a transport-local wire id, and (when
        tracing) emits the ``hb_send`` record that lets the
        happens-before checker pair it with its arrival.
        """
        self._wire_seq += 1
        if self.sim.note_hook is not None:
            self.sim.note(now, "hb_send", (
                self._wire_seq, src_proc, dst_proc,
                str(s.uid) if s.uid is not None else None,
            ))
        self.sim.push_id(arrive, self._k_msg_arrive, (dst_proc, s, self._wire_seq))

    def send(self, s: Stream, src_pid: ProgramId, ep: int, now: float,
             src_proc: int, dst_proc: int) -> None:
        """Put one remote stream on the wire (tracked until acked when
        reliable delivery is armed)."""
        self.report.messages += 1
        self.report.message_bytes += s.nbytes
        if self.rcfg is None:
            # Inlined Machine.message_time over the precomputed node
            # table: same latency pick, same division, bitwise-equal.
            node = self._node
            lat = (
                self._lat_intra
                if node[src_proc] == node[dst_proc]
                else self._lat_inter
            )
            wire = lat + s.nbytes / self._bandwidth
            self._wire_push(now, now + wire, src_proc, dst_proc, s)
            return
        # Stamp a unique message id and the end-to-end checksum, and
        # track the send until the receiver acknowledges it.
        idx = self.router.index_of[s.src]
        s.seq = self.out_seq[idx]
        self.out_seq[idx] = s.seq + 1
        s.epoch = ep
        if self.membership:
            s.inc = (src_proc, self.router.inc[src_proc])
        s.checksum = stream_checksum(s)
        ps = PendingSend(s, src_pid, self._initial_rto(src_proc, dst_proc))
        ps.link = (src_proc, dst_proc)
        ps.sent_at = now
        self.pending[s.uid] = ps
        self.transmit(ps, now)
        self.sim.push_id(now + ps.timeout, self._k_timer, (s.uid, ps.attempt))

    def transmit(self, ps: PendingSend, now: float) -> None:
        """Put one (re)transmission of an un-acked stream on the wire."""
        s = ps.stream
        src_p = self.router.proc_of[s.src]
        dst_p = self.router.proc_of[s.dst]
        if self.inj is not None and self.inj.link_cut(src_p, dst_p, now):
            # Partitioned link: silent black hole, no fate draw.  The
            # sender learns nothing; its ack timer retransmits until
            # the partition heals (or the watchdog names the cut).
            self.report.partition_drops += 1
            return
        wire = self.machine.message_time(src_p, dst_p, s.nbytes, self.layout)
        fate = self.inj.message_fate() if self.inj is not None else "deliver"
        if fate == "drop":
            self.report.drops += 1
            return
        if fate == "corrupt":
            self.report.corruptions += 1
            self._wire_push(
                now, now + wire, src_p, dst_p, self._corrupt_clone(s)
            )
            return
        self._wire_push(now, now + wire, src_p, dst_p, s)
        if fate == "duplicate":
            self.report.duplicates += 1
            self._wire_push(now, now + 2 * wire, src_p, dst_p, s)

    def _corrupt_clone(self, s: Stream) -> Stream:
        """A copy of ``s`` with one seeded in-flight bit flipped.

        The clone carries the *original* checksum, so the receiver's
        recomputation genuinely mismatches.  ndarray payloads get the
        flip in their byte image; opaque payloads model the flip as
        hitting the checksum word itself (same observable: mismatch).
        The tracked :class:`PendingSend` keeps the pristine stream, so
        retransmissions are clean.
        """
        byte, bit = self.inj.corrupt_position(
            s.payload.nbytes if isinstance(s.payload, np.ndarray) else 4
        )
        p = s.payload
        if isinstance(p, np.ndarray) and p.nbytes > 0:
            buf = bytearray(np.ascontiguousarray(p).tobytes())
            buf[byte] ^= 1 << bit
            bad = np.frombuffer(bytes(buf), dtype=p.dtype).reshape(p.shape)
            return dataclasses.replace(s, payload=bad)
        return dataclasses.replace(
            s, checksum=s.checksum ^ (1 << ((byte * 8 + bit) % 32))
        )

    # -- control-plane events ------------------------------------------------------

    def on_ack(self, uid: tuple, now: float) -> None:
        ps = self.pending.pop(uid, None)
        if ps is None:
            return
        if (
            self.adaptive_rto
            and ps.retries == 0
            and ps.sent_at is not None
            and ps.link is not None
        ):
            # Karn's rule: only a message that was transmitted exactly
            # once yields an unambiguous RTT sample.  A retransmitted
            # send has two copies in flight and a failover-re-armed one
            # lost its launch time - the ack cannot be matched to a
            # transmission, so neither feeds the estimator.
            est = self.rtt.get(ps.link)
            if est is None:
                est = self.rtt[ps.link] = RttEstimator()
            est.sample(now - ps.sent_at)
            self.report.rtt_samples += 1

    def on_hedge(self, data: tuple, now: float) -> None:
        """No-op: no event kind routes here.

        The extra-copy retransmit this handled was removed; the name
        stays only because the performance ledger's span tracer
        (``benchmarks/ledger/tracing.py``) wraps it as a transport
        entry point.
        """

    def on_timer(self, data: tuple, now: float) -> None:
        """Ack-timeout expiry: retransmit with backoff, or hold/skip."""
        uid, attempt = data
        ps = self.pending.get(uid)
        if ps is None or ps.attempt != attempt:
            return  # acked or superseded: lazily cancelled
        self.report.timeouts += 1
        s = ps.stream
        if self.router.proc_of[s.src] in self.router.dead:
            return  # sender's owner crashed; failover re-arms
        if self.router.proc_of[s.dst] in self.router.dead:
            # Destination is down: hold the message (without burning
            # retries) until failover re-routes it.
            ps.attempt += 1
            self.sim.push_id(now + ps.timeout, self._k_timer, (uid, ps.attempt))
            return
        if ps.retries >= MAX_RETRIES:
            raise ReproError(
                f"message {uid!r} undeliverable after {MAX_RETRIES} retries"
            )
        ps.retries += 1
        ps.attempt += 1
        self.report.retries += 1
        self.transmit(ps, now)
        # Exponential backoff, capped: an uncapped doubling under a
        # long partition would arm a timer beyond the watchdog horizon
        # and the run would be declared stalled instead of recovering.
        ps.timeout = min(ps.timeout * BACKOFF, MAX_RTO)
        self.sim.push_id(now + ps.timeout, self._k_timer, (uid, ps.attempt))

    def on_nack(self, uid: tuple, now: float) -> None:
        """Checksum-mismatch report from the receiver: retransmit
        immediately (fast retransmit).

        Corruption is a transient wire fault, not an unreachable peer,
        so a NACKed retransmission does not burn the retry budget; the
        ack timer stays armed as the backstop for a lost NACK.
        """
        ps = self.pending.get(uid)
        if ps is None:
            return  # a clean copy got through and was acked meanwhile
        s = ps.stream
        if self.router.proc_of[s.src] in self.router.dead:
            return  # sender's owner crashed; failover re-arms
        ps.attempt += 1
        self.transmit(ps, now)
        self.sim.push_id(now + ps.timeout, self._k_timer, (uid, ps.attempt))

    # -- receive path --------------------------------------------------------------

    def _note_recv(self, now: float, wid: int | None, proc: int,
                   delivered: bool, s: Stream) -> None:
        """Emit the ``hb_recv`` record for one processed arrival.

        ``delivered`` marks app-level delivery (the exactly-once axis);
        the checker draws the causal edge from any paired send, since
        even a discarded copy was physically read by ``proc``.  The
        trailing destination index and sender incarnation let the
        online checker hold a delivery to its owner and life.
        """
        if self.sim.note_hook is not None and wid is not None:
            uid = s.uid
            self.sim.note(now, "hb_recv", (
                wid, proc, delivered,
                str(uid) if uid is not None else None,
                s.dsti, *(s.inc or (None, None)),
            ))

    def receive(
        self, s: Stream, proc: int, now: float, wid: int | None = None
    ) -> bool:
        """Verify, ack and dedup an arriving stream; False when it must
        not be delivered (corrupted copy or duplicate).

        A checksum mismatch NACKs the sender instead of acking (the
        corrupted copy is never marked seen, so the clean retransmit is
        delivered normally); otherwise acks on arrival (a cheap control
        message to the sender's current owner), then discards
        duplicates: retransmissions and injected copies re-ack but are
        invisible to the program.  ``wid`` is the arriving copy's wire
        id (from the ``msg_arrive`` event), echoed on the ``hb_recv``
        trace record.
        """
        uid = s.uid
        if uid is None:
            self._note_recv(now, wid, proc, True, s)
            return True
        src_proc = self.router.proc_of[s.src]
        if s.checksum is not None and stream_checksum(s) != s.checksum:
            self.report.nacks += 1
            self._note_recv(now, wid, proc, False, s)
            if self.inj is not None and self.inj.link_cut(proc, src_proc, now):
                self.report.partition_drops += 1  # NACK black-holed too
            else:
                t = self.machine.control_time(proc, src_proc, self.layout)
                self.sim.push_id(now + t, self._k_nack, uid)
            return False
        # Incarnation fence: traffic stamped by a previous life of the
        # sending process is stale - its send was either dropped at
        # failover or re-armed under the live incarnation, so this copy
        # is rejected silently (no ack, never marked seen).
        if self.membership and s.inc is not None \
                and s.inc[1] < self.router.inc[s.inc[0]]:
            self.report.fenced_messages += 1
            self._note_recv(now, wid, proc, False, s)
            return False
        owner = self.router.proc_of[s.dst]
        if owner != proc and uid not in self.seen:
            # Ownership moved while the message was in flight (a
            # demotion or suspicion raced the wire): forward to the
            # current owner and stay silent - the ack travels only from
            # the final arrival, so the sender keeps retrying until the
            # stream truly lands.
            self._note_recv(now, wid, proc, False, s)
            if owner not in self.router.dead:
                self.report.forwards += 1
                wire = self.machine.message_time(
                    proc, owner, s.nbytes, self.layout
                )
                self._wire_push(now, now + wire, proc, owner, s)
            return False
        if self.inj is not None and self.inj.link_cut(proc, src_proc, now):
            self.report.partition_drops += 1  # ack black-holed by the cut
        elif self.inj is None or not self.inj.ack_dropped():
            ack_t = self.machine.control_time(proc, src_proc, self.layout)
            self.sim.push_id(now + ack_t, self._k_ack, uid)
        if uid in self.seen:
            self._note_recv(now, wid, proc, False, s)
            return False
        self.seen.add(uid)
        self._note_recv(now, wid, proc, True, s)
        return True

    # -- checkpoint/failover support -----------------------------------------------

    def pending_of(self, pid: ProgramId) -> dict[tuple, Stream]:
        """This program's un-acked sends (snapshotted into checkpoints)."""
        return {
            uid: ps.stream
            for uid, ps in self.pending.items()
            if ps.src_pid == pid
        }

    def rearm_after_failover(self, moved: set, ckpt: dict, now: float) -> None:
        """Re-arm the migrated programs' un-acked sends.

        Snapshot-time sends are retransmitted verbatim (same uid, so a
        late original copy is discarded by the receiver); sends made
        after the snapshot are dropped - the replayed execution
        regenerates them under fresh uids, and receivers dedupe their
        content at edge granularity.
        """
        for uid in list(self.pending):
            ps = self.pending[uid]
            if ps.src_pid not in moved:
                continue
            ck = ckpt[ps.src_pid]
            if ck is None or uid not in ck.pending:
                del self.pending[uid]
            else:
                s = ps.stream
                ps.retries = 0
                ps.timeout = self._initial_rto(
                    self.router.proc_of[s.src], self.router.proc_of[s.dst]
                )
                ps.attempt += 1
                ps.sent_at = None  # Karn: a re-armed send is ambiguous
                if self.membership:
                    # Restamp under the new owner's live incarnation:
                    # left stale, every retransmit would be fenced at
                    # the receiver and the retry budget would burn out.
                    sp = self.router.proc_of[s.src]
                    s.inc = (sp, self.router.inc[sp])
                self.transmit(ps, now)
                self.sim.push_id(now + ps.timeout, self._k_timer, (uid, ps.attempt))

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready reliable-delivery state.

        ``pending`` keeps its insertion order (``rearm_after_failover``
        iterates it); ``seen`` is
        membership-only and serialized sorted.  :class:`PendingSend`
        and :class:`RttEstimator` flatten to plain dicts/tuples and are
        reconstructed on load.
        """
        return {
            "out_seq": list(self.out_seq),
            "wire_seq": self._wire_seq,
            "pending": {
                uid: {
                    "stream": ps.stream,
                    "src_pid": ps.src_pid,
                    "retries": ps.retries,
                    "timeout": ps.timeout,
                    "attempt": ps.attempt,
                    "sent_at": ps.sent_at,
                    "link": ps.link,
                }
                for uid, ps in self.pending.items()
            },
            "seen": sorted(self.seen),
            "rtt": {link: est.state() for link, est in self.rtt.items()},
        }

    def load_state_dict(self, d: dict) -> None:
        self.out_seq = [int(x) for x in d["out_seq"]]
        self._wire_seq = d["wire_seq"]
        pending: dict[tuple, PendingSend] = {}
        for uid, pd in d["pending"].items():
            ps = PendingSend(pd["stream"], pd["src_pid"], pd["timeout"])
            ps.retries = pd["retries"]
            ps.attempt = pd["attempt"]
            ps.sent_at = pd["sent_at"]
            ps.link = pd["link"]
            pending[uid] = ps
        self.pending = pending
        self.seen = set(d["seen"])
        self.rtt = {
            link: RttEstimator.from_state(s) for link, s in d["rtt"].items()
        }

    # -- liveness diagnosis -------------------------------------------------------

    def stall_snapshot(self, t: float) -> StallReport | None:
        """Wait-for snapshot for the liveness watchdog.

        Called when retransmit timers keep circulating with no progress
        event processed for a full horizon.  Returns ``None`` when no
        sends are outstanding (stale timers; the heap will drain), else
        a :class:`StallReport` naming every blocked dependency - who is
        starved, who owes the stream, and why it cannot arrive
        (partitioned link, dead peer, or plain ack starvation) - plus
        any wait-for cycle among the blocked programs.
        """
        if not self.pending:
            return None
        router, inj = self.router, self.inj
        waiting: list[WaitEdge] = []
        lost: list[WaitEdge] = []
        holders: dict[str, set[str]] = {}  # waiter -> stream owers
        for ps in self.pending.values():
            s = ps.stream
            src_p = router.proc_of[s.src]
            dst_p = router.proc_of[s.dst]
            cut = (
                inj.cut_window(src_p, dst_p, t) if inj is not None else None
            )
            if cut is not None:
                reason = f"link {src_p}->{dst_p} partitioned" + (
                    f" until t={cut.end:.6f}s" if cut.heals
                    else " (never heals)"
                )
            elif dst_p in router.dead:
                reason = f"receiver proc {dst_p} is dead"
            elif src_p in router.dead:
                reason = f"sender's owner proc {src_p} is dead"
            else:
                reason = "awaiting ack"
            edge = WaitEdge(
                waiter=str(s.dst), holder=str(s.src),
                src_proc=src_p, dst_proc=dst_p,
                retries=ps.retries, reason=reason,
            )
            waiting.append(edge)
            if cut is not None and not cut.heals:
                lost.append(edge)
            holders.setdefault(edge.waiter, set()).add(edge.holder)
        return StallReport(
            now=t,
            last_progress=self.sim.last_progress,
            horizon=self.rcfg.watchdog_horizon,
            pending_events=len(self.sim),
            waiting=tuple(waiting),
            lost=tuple(lost),
            cycle=_find_cycle(holders),
        )


def _find_cycle(edges: dict[str, set[str]]) -> tuple[str, ...]:
    """First directed cycle in a waiter->holders graph, or ()."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges}
    stack: list[str] = []

    def dfs(v: str) -> tuple[str, ...]:
        color[v] = GRAY
        stack.append(v)
        for w in sorted(edges.get(v, ())):
            c = color.get(w, WHITE)
            if c == GRAY:
                return tuple(stack[stack.index(w):]) + (w,)
            if c == WHITE and w in edges:
                found = dfs(w)
                if found:
                    return found
        stack.pop()
        color[v] = BLACK
        return ()

    for v in sorted(edges):
        if color[v] == WHITE:
            found = dfs(v)
            if found:
                return found
    return ()
