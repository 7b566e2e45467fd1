"""End-to-end benchmark of the BackFi reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload {exchange,batch,stream} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same operations untraced and then traced and
reports the per-layer breakdown.  Human-readable lines come first; the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``e2ebench/README.md``
explains the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Without the program in ROOT/src these imports fail, and the run exits
# non-zero before printing a result.
import repro  # noqa: E402
import workloads as wl  # noqa: E402
from calibration import SEGMENT_S, Calibration  # noqa: E402
from repro.streaming import ServiceClient, ServiceError  # noqa: E402
from tracing import (LAYER_NAMES, LAYERS, Tracer, layer_table,  # noqa: E402
                     top_level_ms)

WORKLOADS = ("exchange", "batch", "stream")
SETUP_SAMPLES = {"exchange": 5, "batch": 5, "stream": 5}
"""Fresh processes set up per run; ``setup_s`` is their median."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "exchanges_per_s": "1/s",
    "exchange_ms_p50": "ms",
    "cell_ms_p50": "ms",
    "chunk_ack_ms_p50": "ms",
    "result_ack_ms_p50": "ms",
    "decode_ok_fraction": "fraction",
    "peak_rss_mb": "MB",
}

RESULT_LAYER = {
    "exchange": ("reader.decode", "repro.reader.reader",
                 "BackFiReader.decode"),
    "batch": ("reader.batch.decode", "repro.reader.batch",
              "BatchedDecoder.decode_batch"),
}
"""The call whose duration is the in-process result latency: from a
complete capture to the decoded result."""

EQUIVALENCE_CELLS = 2
"""``batch`` cells re-run through the scalar loop after the window."""

SERVICE_START_TIMEOUT_S = 60.0


def weighted_quantile(samples: list[tuple[float, float]], q: float
                      ) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= q * total:
            return value
    return ordered[-1][0]


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def read_until(proc: subprocess.Popen, marker: bytes, timeout: float
               ) -> bytes:
    """Read ``proc``'s unbuffered stdout until a whole line containing
    ``marker`` has arrived; returns everything read so far."""
    seen = b""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while marker not in seen or b"\n" not in seen.split(marker, 1)[1]:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                raise TimeoutError(f"no {marker!r} within {timeout:g} s")
            data = os.read(proc.stdout.fileno(), 4096)
            if not data:
                raise EOFError(f"exited before printing {marker!r}")
            seen += data
    return seen


# -- the service child ----------------------------------------------------

class ServiceProcess:
    """``repro serve`` on a free loopback port, in a child process."""

    def __init__(self, workdir: Path, trace_out: Path | None = None):
        self.workdir = workdir
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.peak_rss_kb = 0
        self._stdout = b""

    def __enter__(self) -> "ServiceProcess":
        cmd = [sys.executable, str(HERE / "serve_child.py")]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["serve", "--chunk-samples", "512", "--port", "0"]
        env = dict(os.environ,
                   REPRO_CACHE_DIR=str(self.workdir / "cache"),
                   REPRO_TELEMETRY_DIR=str(self.workdir / "telemetry"))
        self._log_path = self.workdir / f"serve-{id(self)}.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, bufsize=0,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.port = self._read_port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _read_port(self) -> int:
        marker = b"streaming decode service on http://"
        try:
            self._stdout = read_until(self.proc, marker,
                                      SERVICE_START_TIMEOUT_S)
        except (TimeoutError, EOFError) as exc:
            raise RuntimeError(f"service did not start ({exc}): "
                               f"{self._log_tail()}") from exc
        line = self._stdout.split(marker, 1)[1].split(b"\n", 1)[0]
        return int(line.rsplit(b":", 1)[1])

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + SERVICE_START_TIMEOUT_S
        client = self.client(timeout=5.0)
        try:
            while True:
                try:
                    client.readyz()
                    return
                except ServiceError:
                    if time.monotonic() > deadline \
                            or self.proc.poll() is not None:
                        raise RuntimeError(
                            f"service never became ready: "
                            f"{self._log_tail()}")
                    time.sleep(0.01)
        finally:
            client.close()

    def client(self, timeout: float = 60.0):
        return ServiceClient("127.0.0.1", self.port, timeout=timeout,
                             retry=None)

    def stop(self) -> None:
        """Shut the service down and wait for the process to end."""
        if self.proc is None:
            return
        if self.proc.poll() is None and self.port:
            client = self.client(timeout=10.0)
            try:
                client.shutdown()
            except ServiceError:
                pass
            finally:
                client.close()
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self._stdout += out or b""
        self._log.close()
        for line in self._stdout.decode(errors="replace").splitlines():
            if line.startswith("peak_rss_kb "):
                self.peak_rss_kb = int(line.split()[1])
        self.proc = None

    def _log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_text(errors="replace")[-2000:]


# -- measurement passes ---------------------------------------------------

class DecodeClock:
    """Per-operation duration of the workload's result call."""

    def __init__(self, tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __call__(self, op: int) -> float:
        total = 0.0
        for span in reversed(self.tracer.spans):
            if span.op != op:
                break
            if span.name == self.layer:
                total += span.ms
        return total


def inprocess_pass(workload: str, seed: int, seconds: float,
                   max_ops: int | None, traced: bool):
    """One pass of ``exchange`` or ``batch``; returns (measurement,
    tracer).  Untraced passes wrap only the result call."""
    tracer = Tracer()
    with tracer.install(LAYERS if traced else [RESULT_LAYER[workload]]):
        clock = DecodeClock(tracer, RESULT_LAYER[workload][0])
        run = wl.run_exchange if workload == "exchange" else wl.run_batch
        m = run(seed, seconds, max_ops, tracer, clock)
    return m, tracer


def stream_pass(seed: int, seconds: float, captures, limits,
                workdir: Path, trace_out: Path | None = None):
    """One pass of ``stream`` against a fresh service process.

    The window runs in segments of ``SEGMENT_S`` with calibration
    bursts between them (see ``workloads.Pacer``).  Returns
    (measurement, spans recorded by the service during the window,
    service peak RSS in kB).
    """
    cal = Calibration()
    with ServiceProcess(workdir, trace_out) as service:
        warm_up_stream(service, seed)
        logs = [wl.ConnectionLog() for _ in captures]
        clients = [service.client() for _ in captures]
        pacer = wl.Pacer(len(captures))
        errors: list[BaseException] = []

        def drive(c: int) -> None:
            try:
                wl.drive_connection(clients[c], seed, c,
                                    wl.first_captures(captures[c],
                                                      limits[c]),
                                    pacer, logs[c])
            except BaseException as exc:  # reported after join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(c,))
                   for c in range(len(captures))]
        window: list[tuple[float, int]] = []
        try:
            for t in threads:
                t.start()
            pos = cal.burst()
            t0 = time.perf_counter()
            while pacer.active and sum(w for w, _ in window) < seconds:
                window.append((pacer.run_segment(
                    min(SEGMENT_S, seconds - sum(w for w, _ in window)),
                    pos, timeout=120.0), pos))
                pos = cal.burst()
        finally:
            pacer.stop()
            for t in threads:
                t.join(timeout=120.0)
            try:
                stats = clients[0].stats()
            finally:
                for client in clients:
                    client.close()
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a stream connection did not finish")
        if errors:
            raise errors[0]
    m = wl.merge_connections(logs, window, cal)
    m.stats = {"service": stats,
               "sessions": [s for log in logs for s in log.session_stats]}
    spans = []
    if trace_out is not None:
        # perf_counter is the system-wide monotonic clock on Linux, so
        # the service's span times compare with t0: this drops the
        # warm-up exchange.
        spans = [s for s in Tracer.load(str(trace_out)) if s.start >= t0]
    return m, spans, service.peak_rss_kb


def warm_up_stream(service: ServiceProcess, seed: int) -> None:
    """One exchange on a throwaway session, so imports, caches and the
    decode pool are warm before anything is timed."""
    warm = wl.STREAM_CONNECTIONS  # a connection index no caller uses
    log = wl.ConnectionLog()
    client = service.client()
    try:
        wl.drive_connection(client, seed, warm,
                            wl.stream_captures(seed, warm, 1),
                            wl.Pacer.open_ended(), log)
    finally:
        client.close()
    if not log.outcomes or log.outcomes[0].error:
        raise RuntimeError(f"stream warm-up failed: {log.outcomes}")


# -- set-up time ----------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child mode: import, one warm-up operation, print ``ready``."""
    if workload == "exchange":
        wl.exchange_op(seed, 0)
    elif workload == "batch":
        wl.batch_cell(wl.cell_inputs(seed, 0))
    else:
        workdir = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))
        try:
            with ServiceProcess(workdir) as service:
                warm_up_stream(service, seed)
                print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int, samples: int,
                  workdir: Path) -> list[float]:
    """Seconds from spawning a fresh benchmark process until it has
    imported everything and finished one warm-up operation (for
    ``stream``: service up, ``/readyz`` 200, one exchange decoded).

    A calibration burst runs before the first process and after each
    one exits; each time is scaled by the bursts either side of it.
    """
    cal = Calibration()
    pos = cal.burst()
    out = []
    for k in range(samples):
        log = workdir / f"setup-{k}.log"
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, bufsize=0, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err)
            try:
                read_until(proc, b"ready", SERVICE_START_TIMEOUT_S)
                out.append((time.perf_counter() - t0, pos))
                proc.communicate(timeout=SERVICE_START_TIMEOUT_S)
            except (TimeoutError, EOFError,
                    subprocess.TimeoutExpired) as exc:
                proc.kill()
                proc.communicate()
                raise RuntimeError(
                    f"set-up probe failed ({exc}): "
                    f"{log.read_text(errors='replace')[-2000:]}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with "
                               f"{proc.returncode}: "
                               f"{log.read_text(errors='replace')[-2000:]}")
        pos = cal.burst()
    return [seconds * cal.factor_at(p) for seconds, p in out]


# -- metrics --------------------------------------------------------------

def end_to_end(m, setup_s: list[float], rss_kb: int) -> dict[str, float]:
    """End-to-end metrics of one untraced pass, times at reference-host
    speed (see :mod:`calibration`)."""
    exchange = m.reference(m.exchange_ms)
    chunk = m.reference(m.chunk_ms)
    result = m.reference(m.result_ms)
    cells = m.reference_cells()
    return {
        "setup_s": statistics.median(setup_s),
        # The median over 1 s pieces of the window: a few seconds of a
        # slowed host move it less than the overall mean.
        "exchanges_per_s": statistics.median(m.rates()),
        "exchange_ms_p50": weighted_quantile(exchange, 0.50),
        # A run too short for one whole cell extrapolates from the mean.
        "cell_ms_p50": statistics.median(cells) if cells else
        wl.CELL_EXCHANGES * statistics.fmean(v for v, _ in exchange),
        "chunk_ack_ms_p50": weighted_quantile(chunk, 0.50),
        "result_ack_ms_p50": weighted_quantile(result, 0.50),
        "decode_ok_fraction":
            sum(1 for o in m.outcomes if o.ok) / len(m.outcomes),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(workload: str, base, traced, spans
              ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of a traced pass, per exchange decoded, times at
    reference-host speed."""
    n_ex = max(len(traced.outcomes), 1)
    f = traced.cal.factor
    table = layer_table(spans)
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for name in LAYER_NAMES:
        if name == "link.batch.scalar":
            continue
        row = table[name]
        values[f"{name}.calls"] = row["calls"] / n_ex
        units[f"{name}.calls"] = "1/exchange"
        for key in ("total_ms", "self_ms"):
            values[f"{name}.{key}"] = row[key] / n_ex * f
            units[f"{name}.{key}"] = "ms/exchange"

    def put(name: str, value: float, unit: str) -> None:
        values[name] = value
        units[name] = unit

    put("reader.passes_per_decode", table["reader.sync"]["calls"] / n_ex,
        "1/exchange")
    # Tails of the untraced pass.  Each varied by more than a tenth
    # between seeds on some workload, so they are reported here rather
    # than bounded as end-to-end metrics.
    for name, samples, q in (("exchange_ms_p95", base.exchange_ms, 0.95),
                             ("result_ack_ms_p95", base.result_ms, 0.95),
                             ("chunk_ack_ms_p99", base.chunk_ms, 0.99)):
        put(name, weighted_quantile(base.reference(samples), q), "ms")
    put("link.batch.scalar_fraction",
        table["link.batch.scalar"]["calls"] / n_ex
        if workload == "batch" else 0.0, "fraction")

    push = table["stream.push"]
    non_final = [v for v, _, _ in traced.chunk_ms]
    put("stream.http_overhead_ms",
        (statistics.fmean(non_final) - push["self_ms"] / push["calls"]) * f
        if workload == "stream" and push["calls"] else 0.0, "ms")
    sessions = traced.stats.get("sessions", [])
    service = traced.stats.get("service", {})
    decoded = sum(s.get("decoded", 0) for s in sessions)
    put("stream.decode_s_per_exchange",
        sum(s.get("decode_seconds", 0.0) for s in sessions) / decoded * f
        if decoded else 0.0, "s")
    put("stream.warm_reuse_fraction",
        sum(s.get("warm_reuses", 0) for s in sessions) / decoded
        if decoded else 0.0, "fraction")
    put("stream.ring_drops",
        sum(s.get("ring_dropped_overflow", 0)
            + s.get("ring_dropped_policy", 0) for s in sessions), "count")
    put("stream.sheds", service.get("sheds", 0), "count")
    put("stream.refused", service.get("refused", 0), "count")
    put("trace.overhead_fraction",
        sum(traced.op_ms) * f / (sum(base.op_ms) * base.cal.factor) - 1.0,
        "fraction")
    put("trace.coverage", top_level_ms(spans) / sum(traced.op_ms),
        "fraction")
    return values, units


def print_layer_table(values: dict[str, float]) -> None:
    rows = [(values[f"{n}.self_ms"], n) for n in LAYER_NAMES
            if f"{n}.calls" in values and values[f"{n}.calls"]]
    print(f"{'layer':24s} {'calls/ex':>9s} {'total ms/ex':>12s} "
          f"{'self ms/ex':>11s}")
    for _, n in sorted(rows, reverse=True):
        print(f"{n:24s} {values[f'{n}.calls']:9.3f} "
              f"{values[f'{n}.total_ms']:12.3f} "
              f"{values[f'{n}.self_ms']:11.3f}")


# -- driver ---------------------------------------------------------------

def run(args) -> dict:
    seed, seconds, workload = args.seed, args.seconds, args.workload
    workdir = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))
    try:
        setup_s = [] if args.trace else measure_setup(
            workload, seed, SETUP_SAMPLES[workload], workdir)
        if workload == "stream":
            per_conn = wl.captures_needed(seconds)
            captures = [wl.stream_captures(seed, c, per_conn)
                        for c in range(wl.STREAM_CONNECTIONS)]
            limits = [per_conn] * wl.STREAM_CONNECTIONS
            budget = seconds / 2 if args.trace else seconds
            base, _, rss = stream_pass(seed, budget, captures, limits,
                                       workdir)
            # The load generator's own share, without the captures it
            # holds for the run: those are the benchmark's, not the
            # program's.
            capture_kb = sum(cap.rx.nbytes for conn in captures
                             for caps in conn for cap in caps) // 1024
            own_kb = max(peak_rss_kb() - capture_kb, 0)
            print(f"peak RSS: service {rss / 1024:.1f} MB, load generator "
                  f"{own_kb / 1024:.1f} MB without its "
                  f"{capture_kb / 1024:.1f} MB of captures")
            rss += own_kb
        else:
            if workload == "exchange":
                wl.exchange_op(seed, 0)
            else:
                wl.batch_cell(wl.cell_inputs(seed, 0))
            budget = seconds / 2 if args.trace else seconds
            base, _ = inprocess_pass(workload, seed, budget, None,
                                     traced=False)
            rss = peak_rss_kb()
            if workload == "batch":
                base.equivalence_errors = wl.batched_equals_scalar(
                    seed, base.outcomes, min(EQUIVALENCE_CELLS,
                                             base.ops_per_caller[0]))
        passes = [base]
        digest = wl.output_digest(base.outcomes)
        print(f"workload {workload} seed {seed}: "
              f"{len(base.outcomes)} exchanges, digest {digest}")
        print(f"calibration: {len(base.cal.rounds)} rounds, times scaled "
              f"by {base.cal.factor:.4f} to reference-host speed")
        problems = list(base.equivalence_errors)
        if args.trace:
            if workload == "stream":
                traced, spans, _ = stream_pass(
                    seed, math.inf, captures, base.ops_per_caller,
                    workdir, trace_out=workdir / "spans.jsonl")
            else:
                traced, tracer = inprocess_pass(
                    workload, seed, math.inf, base.ops_per_caller[0],
                    traced=True)
                spans = tracer.spans
            passes.append(traced)
            traced_digest = wl.output_digest(traced.outcomes)
            print(f"traced digest {traced_digest}")
            if traced_digest != digest:
                problems.append("tracing changed the output digest")
            metrics, units = per_layer(workload, base, traced, spans)
            print_layer_table(metrics)
        else:
            metrics = end_to_end(base, setup_s, rss)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        problems += [f"{o.key}: {o.error}" for o in p.outcomes if o.error]
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
