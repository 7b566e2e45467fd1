"""The three benchmark workloads, their inputs and their output oracle.

Every workload is a closed loop over *exchanges* (one AP transmission,
one tag reflection, one reader decode).  Inputs are a pure function of
the workload seed and the exchange index, so a run can be replayed
exactly -- the traced pass replays the untraced pass's operations and
must reproduce its output digest.

Oracle: for every CRC-validated decode the payload must equal what the
tag actually framed, ``plan.frame_bits[24:24 + plan.info_bits_sent]``.
The tag drains a persistent queue and truncates to the packet's
capacity, so the queued ``payload_bits`` are *not* the reference.  A
payload mismatch, an exception, an HTTP error or a timeout is a failed
operation; a CRC reject is not (it only lowers ``decode_ok_fraction``).
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import repro.link
from calibration import SEGMENT_S, Calibration
from repro.channel.environment import Scene
from repro.link.frames import HEADER_BITS
from repro.reader.reader import BackFiReader
from repro.scenario import resolve_scenario
from repro.tag.config import TagConfig
from repro.tag.tag import BackFiTag
from repro.wifi.frames import random_payload

CHUNK_SAMPLES = 512
"""Samples per pushed chunk on ``stream``; the unit ``chunk_ack_ms``
is normalised to on the in-process workloads."""

CELL_EXCHANGES = 32
"""Exchanges per sweep cell (``batch``) and per ``cell_ms`` group."""

EXCHANGE_PRESETS = ("paper-1m", "paper-5m", "sensor-2m", "fig8-3m",
                    "mobility-2m", "robust-p0.6-noarq")
"""Near and far links, 4000-byte packets, phase tracking and the
fault/recovery ladder (``robust-p0.6-noarq`` fails most decodes and
escalates in about one exchange of four)."""

BATCH_CONFIGS = (TagConfig("qpsk", "1/2", 1e6),
                 TagConfig("bpsk", "1/2", 2e6),
                 TagConfig("16psk", "2/3", 500e3))
BATCH_BANDS_M = ((0.5, 1.5), (1.5, 3.0), (3.0, 5.0))
BATCH_PSDU_BYTES = 1500

STREAM_SCENARIO = "streaming-50"
STREAM_CONNECTIONS = 2
SESSION_EXCHANGES = CELL_EXCHANGES
"""Exchanges per ``stream`` session; a session is one ``cell_ms``."""


# -- oracle -----------------------------------------------------------------

def framed_payload(plan) -> np.ndarray:
    """The payload bits the tag put in its frame this exchange."""
    if plan.frame_bits is None:
        return np.empty(0, dtype=np.uint8)
    return plan.frame_bits[HEADER_BITS:HEADER_BITS + plan.info_bits_sent]


def packed(bits: np.ndarray) -> bytes:
    """Payload bits packed MSB-first, as the service's ``payload_hex``."""
    return np.packbits(bits).tobytes() if bits.size else b""


@dataclass
class Outcome:
    """One exchange's checked output."""

    key: tuple[int, ...]
    ok: bool = False
    """CRC-validated decode."""
    payload: bytes = b""
    error: str | None = None
    """Why the operation failed (payload mismatch, exception, HTTP)."""


def check_decode(key: tuple[int, ...], result, plan) -> Outcome:
    """Oracle for an in-process decode (``ReaderResult`` + tag plan)."""
    if not result.ok:
        return Outcome(key)
    got = result.payload_bits
    out = Outcome(key, True, packed(got))
    if not np.array_equal(got, framed_payload(plan)):
        out.error = "decoded payload differs from the tag's frame"
    return out


def output_digest(outcomes: list[Outcome]) -> str:
    """Order-stable sha256 over every exchange's ok flag and payload."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.key):
        state = "ERR" if o.error else ("OK" if o.ok else "NOK")
        h.update(f"{o.key}|{state}|{o.payload.hex()}\n".encode())
    return h.hexdigest()


# -- measurement record -------------------------------------------------------

Sample = tuple[float, float, int]
"""(raw value, weight, calibration position): the position is how many
calibration rounds had run when the sample was taken."""


@dataclass
class Measurement:
    """What one pass of a workload observed, in raw host time.

    :meth:`reference` scales each sample by the calibration bursts taken
    either side of its segment (see :mod:`calibration`).
    """

    outcomes: list[Outcome] = field(default_factory=list)
    window: list[tuple[float, int, int]] = field(default_factory=list)
    """(seconds, position, exchanges completed) of each segment of the
    timed window, in order."""
    exchange_ms: list[Sample] = field(default_factory=list)
    chunk_ms: list[Sample] = field(default_factory=list)
    result_ms: list[Sample] = field(default_factory=list)
    cell_ms: list[Sample] = field(default_factory=list)
    """``batch`` only; elsewhere cells are groups of ``callers``."""
    callers: list[list[Sample]] = field(default_factory=list)
    """Each caller's exchange latencies, in order."""
    op_ms: list[float] = field(default_factory=list)
    """Wall time of each operation (exchange, cell or stream exchange),
    the denominator of trace coverage and overhead."""
    ops_per_caller: list[int] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    """Service ``GET /stats`` readings of a ``stream`` pass."""
    equivalence_errors: list[str] = field(default_factory=list)
    cal: Calibration = field(default_factory=Calibration)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error)

    @property
    def window_s(self) -> float:
        return sum(s for s, _, _ in self.window)

    def scale(self, value: float, pos: int) -> float:
        return value * self.cal.factor_at(pos)

    def tally(self, seconds: float, done: int) -> None:
        """Add an operation's time and completed exchanges to the open
        segment."""
        s, pos, n = self.window[-1]
        self.window[-1] = (s + seconds, pos, n + done)

    def reference(self, samples: list[Sample]) -> list[tuple[float, float]]:
        """(value at reference-host speed, weight) pairs."""
        return [(self.scale(v, p), w) for v, w, p in samples]

    def rates(self) -> list[float]:
        """Exchanges per reference-speed second of each segment."""
        return [done / self.scale(seconds, pos)
                for seconds, pos, done in self.window if seconds > 0]

    def reference_cells(self) -> list[float]:
        """Cell times at reference speed: each ``batch`` cell, else every
        run of :data:`CELL_EXCHANGES` consecutive exchanges of one
        caller."""
        if self.cell_ms:
            return [v for v, _ in self.reference(self.cell_ms)]
        cells = []
        for lat in self.callers:
            ref = [v for v, _ in self.reference(lat)]
            for k in range(0, len(ref) // CELL_EXCHANGES * CELL_EXCHANGES,
                           CELL_EXCHANGES):
                cells.append(sum(ref[k:k + CELL_EXCHANGES]))
        return cells


def _chunks(n_samples: int) -> int:
    return -(-n_samples // CHUNK_SAMPLES)


def _more(m: Measurement, done: int, seconds: float,
          max_ops: int | None) -> bool:
    if max_ops is not None:
        return done < max_ops
    return m.window_s < seconds


def segments(m: Measurement, seconds: float, max_ops: int | None
             ) -> Iterator[tuple[int, int]]:
    """Operation indices of one caller's closed loop, with the
    calibration position of the segment each runs in.

    Cuts the window into segments of about :data:`SEGMENT_S` timed
    seconds with a calibration burst before, between and after them;
    the caller :meth:`~Measurement.tally`-s each operation's time.
    Runs ``max_ops`` operations if given, else until the window holds
    ``seconds``.
    """
    k = 0
    pos = m.cal.burst()
    while _more(m, k, seconds, max_ops):
        m.window.append((0.0, pos, 0))
        while _more(m, k, seconds, max_ops) \
                and m.window[-1][0] < SEGMENT_S:
            yield k, pos
            k += 1
        pos = m.cal.burst()
    m.ops_per_caller = [k]


def _ms(t0: float, t1: float) -> float:
    return (t1 - t0) * 1e3


# -- exchange -----------------------------------------------------------------

def exchange_op(seed: int, i: int):
    """Exchange ``i``: the unit every trial, ``repro link`` and ARQ run."""
    preset = EXCHANGE_PRESETS[i % len(EXCHANGE_PRESETS)]
    r = np.random.default_rng([seed, i])
    return resolve_scenario(preset).build(rng=r).run(rng=r)


def run_exchange(seed: int, seconds: float, max_ops: int | None,
                 tracer, decode_ms: Callable[[int], float]) -> Measurement:
    """Single caller, round-robin over :data:`EXCHANGE_PRESETS`.

    ``decode_ms(i)`` reads back how long operation ``i`` spent in
    ``BackFiReader.decode`` -- the in-process counterpart of the
    service's result ack.  The timed window sums the exchanges only.
    """
    m = Measurement()
    m.callers.append(m.exchange_ms)
    for i, pos in segments(m, seconds, max_ops):
        with tracer.operation(i):
            t0 = time.perf_counter()
            try:
                res = exchange_op(seed, i)
            except Exception as exc:  # a crash is a failed operation
                res = None
                m.outcomes.append(Outcome((i,), error=repr(exc)))
            t1 = time.perf_counter()
        ms = _ms(t0, t1)
        if res is not None:
            m.outcomes.append(check_decode((i,), res.reader, res.plan))
            n_chunks = _chunks(res.timeline.n_samples)
            m.chunk_ms.append((ms / n_chunks, n_chunks, pos))
            m.result_ms.append((decode_ms(i), 1.0, pos))
        m.exchange_ms.append((ms, 1.0, pos))
        m.op_ms.append(ms)
        m.tally(t1 - t0, int(res is not None))
    return m


# -- batch --------------------------------------------------------------------

@dataclass
class CellInputs:
    scenes: list
    tags: list
    rngs: list
    reader: BackFiReader
    psdu: bytes


def cell_inputs(seed: int, c: int) -> CellInputs:
    """Sweep cell ``c``: one PSDU, one tag config, one distance band."""
    cfg = BATCH_CONFIGS[c % len(BATCH_CONFIGS)]
    lo, hi = BATCH_BANDS_M[(c // len(BATCH_CONFIGS)) % len(BATCH_BANDS_M)]
    g = np.random.default_rng([seed, c])
    psdu = random_payload(BATCH_PSDU_BYTES, g)
    dists = g.uniform(lo, hi, CELL_EXCHANGES)
    scenes = [Scene.build(tag_distance_m=float(d),
                          rng=np.random.default_rng([seed, c, b, 0]))
              for b, d in enumerate(dists)]
    return CellInputs(
        scenes=scenes,
        tags=[BackFiTag(cfg) for _ in range(CELL_EXCHANGES)],
        rngs=[np.random.default_rng([seed, c, b, 1])
              for b in range(CELL_EXCHANGES)],
        reader=BackFiReader(cfg),
        psdu=psdu,
    )


def batch_cell(inputs: CellInputs, *, batched: bool | None = None):
    # Looked up on the package at call time so the tracer's wrapper of
    # ``repro.link.run_exchange_batch`` sees the call.
    return repro.link.run_exchange_batch(
        inputs.scenes, inputs.tags, inputs.reader,
        psdu=inputs.psdu, rngs=inputs.rngs, batched=batched)


def check_cell(c: int, results) -> list[Outcome]:
    return [check_decode((c, b), r.reader, r.plan)
            for b, r in enumerate(results)]


def run_batch(seed: int, seconds: float, max_ops: int | None, tracer,
              decode_ms: Callable[[int], float]) -> Measurement:
    """Single caller running sweep cells through ``run_exchange_batch``.

    A cell's inputs (scene realisations, tags, generators) are built
    between cells and excluded from the timed window, which sums the
    ``run_exchange_batch`` calls.  ``max_ops`` counts cells.
    """
    m = Measurement()
    for c, pos in segments(m, seconds, max_ops):
        inputs = cell_inputs(seed, c)
        with tracer.operation(c):
            t0 = time.perf_counter()
            try:
                results = batch_cell(inputs)
                error = None
            except Exception as exc:  # a crash fails the whole cell
                results, error = None, repr(exc)
            t1 = time.perf_counter()
        cell = _ms(t0, t1)
        m.tally(t1 - t0, 0 if results is None else CELL_EXCHANGES)
        m.op_ms.append(cell)
        m.cell_ms.append((cell, 1.0, pos))
        if results is None:
            m.outcomes += [Outcome((c, b), error=error)
                           for b in range(CELL_EXCHANGES)]
        else:
            m.outcomes += check_cell(c, results)
            n_chunks = _chunks(results[0].timeline.n_samples)
            # Every element's result arrives when the cell returns.
            m.exchange_ms.append((cell, CELL_EXCHANGES, pos))
            m.chunk_ms.append((cell / (CELL_EXCHANGES * n_chunks),
                               CELL_EXCHANGES * n_chunks, pos))
            m.result_ms.append((decode_ms(c), CELL_EXCHANGES, pos))
    return m


def batched_equals_scalar(seed: int, outcomes: list[Outcome],
                          cells: int) -> list[str]:
    """Re-run the first ``cells`` cells through the scalar loop.

    The ROADMAP equivalence contract on benchmark inputs: ok flags and
    payload bits must be identical to the batched path's.
    """
    batched = {o.key: o for o in outcomes}
    errors = []
    for c in range(cells):
        scalar = check_cell(c, batch_cell(cell_inputs(seed, c),
                                          batched=False))
        for o in scalar:
            b = batched.get(o.key)
            if b is None or (b.ok, b.payload) != (o.ok, o.payload):
                errors.append(f"cell {c} element {o.key[1]}: batched "
                              "and scalar decodes differ")
    return errors


# -- stream -------------------------------------------------------------------

def session_seed(seed: int, connection: int, session: int) -> int:
    """The ``streaming-50`` scenario seed of one session."""
    return int(np.random.SeedSequence([seed, connection, session])
               .generate_state(1)[0] & 0x7FFFFFFF)


@dataclass
class StreamCapture:
    rx: np.ndarray
    expected_sha256: str
    """sha256 of the packed framed payload (the oracle)."""


def stream_captures(seed: int, connection: int, n: int
                    ) -> list[list[StreamCapture]]:
    """One connection's first ``n`` captures, grouped by session.

    A session's scene is realised once when it opens, so a connection
    runs sessions of :data:`SESSION_EXCHANGES` exchanges to average over
    many channel realisations.  The captures are what the service will
    synthesize, replayed locally through ``CaptureSource`` (the
    service's determinism contract).
    """
    from repro.streaming import CaptureSource

    sessions = []
    for s in range(-(-n // SESSION_EXCHANGES)):
        source = CaptureSource(
            resolve_scenario(STREAM_SCENARIO).with_overrides(
                f"seed={session_seed(seed, connection, s)}"))
        caps = []
        for _ in range(min(SESSION_EXCHANGES, n - s * SESSION_EXCHANGES)):
            cap, _ = source.next_exchange()
            caps.append(StreamCapture(
                rx=cap.rx,
                expected_sha256=hashlib.sha256(
                    packed(framed_payload(cap.plan))).hexdigest()))
        sessions.append(caps)
    return sessions


def first_captures(sessions: list[list[StreamCapture]], n: int
                   ) -> list[list[StreamCapture]]:
    """The sessions holding a connection's first ``n`` captures."""
    out = []
    for caps in sessions:
        if n <= 0:
            break
        out.append(caps[:n])
        n -= len(caps)
    return out


def check_stream_result(key: tuple[int, ...], index: int,
                        result: dict, capture: StreamCapture) -> Outcome:
    """Oracle for one service result summary."""
    if result.get("exchange") != index:
        return Outcome(key, error=f"result is for exchange "
                                  f"{result.get('exchange')}, not {index}")
    if not result["ok"]:
        return Outcome(key)
    payload = bytes.fromhex(result["payload_hex"])
    out = Outcome(key, True, payload)
    if hashlib.sha256(payload).hexdigest() != result["payload_sha256"] \
            or result["payload_sha256"] != capture.expected_sha256:
        out.error = "decoded payload differs from the tag's frame"
    return out


class Pacer:
    """Cuts the ``stream`` window into segments with calibration between.

    The callers pause at the end of each segment; the benchmark thread
    runs a calibration burst while the service is idle and then opens
    the next segment, as :func:`segments` does for one in-process
    caller.
    """

    def __init__(self, callers: int, deadline: float = 0.0) -> None:
        self._cond = threading.Condition()
        self._deadline = deadline
        self._segment = 0
        self._pos = 0
        self._arrived = 0
        self._active = callers
        self._stopped = False

    @classmethod
    def open_ended(cls) -> "Pacer":
        """One caller, one segment that never closes (warm-up)."""
        return cls(1, deadline=math.inf)

    def admit(self) -> int | None:
        """Caller side, before each exchange: the calibration position of
        the open segment, or ``None`` when the window is over."""
        with self._cond:
            while not self._stopped \
                    and time.perf_counter() >= self._deadline:
                segment = self._segment
                self._arrived += 1
                self._cond.notify_all()
                while not self._stopped and self._segment == segment:
                    self._cond.wait()
            return None if self._stopped else self._pos

    def leave(self) -> None:
        """Caller side: this caller sends no more exchanges."""
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def run_segment(self, seconds: float, pos: int,
                    timeout: float) -> float:
        """Benchmark side: open a segment, wait until every caller has
        paused or left, return the segment's wall time."""
        with self._cond:
            self._segment += 1
            self._pos = pos
            self._arrived = 0
            t0 = time.perf_counter()
            self._deadline = t0 + seconds
            self._cond.notify_all()
            if not self._cond.wait_for(
                    lambda: self._arrived >= self._active, timeout):
                raise TimeoutError("a stream connection stalled")
            return time.perf_counter() - t0

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


@dataclass
class ConnectionLog:
    outcomes: list[Outcome] = field(default_factory=list)
    exchange_ms: list[Sample] = field(default_factory=list)
    chunk_ms: list[Sample] = field(default_factory=list)
    result_ms: list[Sample] = field(default_factory=list)
    session_stats: list[dict] = field(default_factory=list)
    """Each session's ``GET /stats`` entry, read just before it
    closes."""


def drive_connection(client, seed: int, connection: int,
                     sessions: list[list[StreamCapture]], pacer: Pacer,
                     log: ConnectionLog) -> None:
    """One closed-loop caller: sessions one after another, each running
    its exchanges back to back.

    Runs until the pacer ends the window or the captures run out.  A
    transport or protocol error fails the exchange in flight and ends
    the connection.
    """
    try:
        for s, captures in enumerate(sessions):
            if not _run_session(client, seed, connection, s, captures,
                                pacer, log):
                break
    finally:
        pacer.leave()


def _run_session(client, seed: int, connection: int, session: int,
                 captures: list[StreamCapture], pacer: Pacer,
                 log: ConnectionLog) -> bool:
    """One session; returns whether the connection should go on."""
    from repro.streaming import ServiceError

    pos = pacer.admit()
    if pos is None:
        return False
    try:
        opened = client.request(
            "POST", "/sessions",
            {"scenario": STREAM_SCENARIO,
             "overrides": [f"seed={session_seed(seed, connection, session)}"]},
            idempotent=False)
    except ServiceError as exc:
        log.outcomes.append(Outcome((connection, session, 0),
                                    error=repr(exc)))
        return False
    sid = opened["session"]
    try:
        for i, cap in enumerate(captures):
            if i:
                pos = pacer.admit()
                if pos is None:
                    return False
            key = (connection, session, i)
            try:
                t0 = time.perf_counter()
                announced = client.start_exchange(sid, expected=i)
                if announced["n_samples"] != cap.rx.size:
                    raise ServiceError(
                        f"server announced {announced['n_samples']} "
                        f"samples, local replay has {cap.rx.size}")
                n_chunks = _chunks(cap.rx.size)
                ack: dict = {}
                for k in range(n_chunks):
                    tc = time.perf_counter()
                    ack = client.push_chunk(
                        sid, cap.rx[k * CHUNK_SAMPLES:
                                    (k + 1) * CHUNK_SAMPLES],
                        index=k, retry_key=(i, k))
                    dt = _ms(tc, time.perf_counter())
                    (log.result_ms if k == n_chunks - 1
                     else log.chunk_ms).append((dt, 1.0, pos))
                t1 = time.perf_counter()
                if "result" not in ack:
                    raise ServiceError(f"final ack carries no result: "
                                       f"{ack}")
                log.exchange_ms.append((_ms(t0, t1), 1.0, pos))
                log.outcomes.append(
                    check_stream_result(key, i, ack["result"], cap))
            except (ServiceError, OSError, KeyError, ValueError) as exc:
                log.outcomes.append(Outcome(key, error=repr(exc)))
                return False
        return True
    finally:
        try:
            log.session_stats.append(
                client.stats()["per_session"].get(sid, {}))
            client.close_session(sid)
        except ServiceError:
            pass


def merge_connections(logs: list[ConnectionLog],
                      window: list[tuple[float, int]], cal: Calibration
                      ) -> Measurement:
    """One measurement from the connections of a paced window; each
    segment is named by its calibration position."""
    done = {pos: 0 for _, pos in window}
    for log in logs:
        for _, _, pos in log.exchange_ms:
            done[pos] += 1
    m = Measurement(cal=cal,
                    window=[(s, pos, done[pos]) for s, pos in window])
    for log in logs:
        m.outcomes += log.outcomes
        m.exchange_ms += log.exchange_ms
        m.chunk_ms += log.chunk_ms
        m.result_ms += log.result_ms
        m.op_ms += [v for v, _, _ in log.exchange_ms]
        m.callers.append(log.exchange_ms)
        m.ops_per_caller.append(len(log.exchange_ms))
    return m


def captures_needed(seconds: float) -> int:
    """Captures to pre-synthesize per connection for a timed window.

    About 1.5x the per-connection rate seen on a 2-CPU host, so the
    window normally ends on time; a much faster service runs out early
    and its window is the time it took.
    """
    return max(1, math.ceil(45.0 * seconds))
