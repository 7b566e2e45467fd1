"""In-memory span tracing of the decode chain, installed from outside.

The program is not edited to be traced: :meth:`Tracer.install` replaces each
layer function listed in :data:`LAYERS` *where its caller looks it up*
(modules bind imported names at import time, so wrapping
``repro.reader.sync.find_tag_timing`` would miss the reader, which calls
``repro.reader.reader.find_tag_timing``).  Every call then records one
span -- name, start, end, parent span, operation id -- into a list held
in memory and written out only when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Children always run on the caller's thread inside the
parent's interval, so they never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = ["LAYERS", "LAYER_NAMES", "Span", "Tracer", "layer_table",
           "top_level_ms"]

LAYERS: tuple[tuple[str, str, str], ...] = (
    # (layer name, module the caller resolves it in, attribute path)
    ("scenario.build", "repro.scenario.config", "ScenarioConfig.build"),
    ("link.synthesize", "repro.link.session", "synthesize_exchange"),
    ("link.synthesize", "repro.streaming.session", "synthesize_exchange"),
    ("wifi.transmit", "repro.link.session", "build_ap_transmission"),
    ("wifi.transmit", "repro.link.batch", "build_ap_transmission"),
    ("channel.apply", "repro.link.session", "apply_channel"),
    ("channel.impair", "repro.link.session", "coherence_impairment"),
    ("channel.impair", "repro.link.session", "awgn"),
    ("channel.impair", "repro.link.batch", "coherence_impairment"),
    ("channel.impair", "repro.link.batch", "awgn"),
    ("tag.backscatter", "repro.tag.tag", "BackFiTag.backscatter"),
    ("reader.decode", "repro.reader.reader", "BackFiReader.decode"),
    ("reader.cancel", "repro.reader.cancellation",
     "SelfInterferenceCanceller.cancel"),
    ("reader.sync", "repro.reader.reader", "find_tag_timing"),
    ("reader.mrc", "repro.reader.reader", "mrc_combine"),
    ("reader.symbols", "repro.reader.reader", "decode_tag_symbols"),
    ("coding.viterbi", "repro.reader.decoder", "viterbi_decode_soft"),
    # The reader imports phase_track inside _decode, so the module
    # attribute is what it finds.
    ("reader.tracking", "repro.reader.tracking", "phase_track"),
    ("link.batch", "repro.link", "run_exchange_batch"),
    ("link.batch.scalar", "repro.link.batch", "run_backscatter_session"),
    ("reader.batch.decode", "repro.reader.batch",
     "BatchedDecoder.decode_batch"),
    ("coding.viterbi_batch", "repro.reader.batch",
     "viterbi_decode_soft_batch"),
    ("dsp.stacked_convolve", "repro.link.batch", "stacked_convolve"),
    ("dsp.stacked_convolve", "repro.reader.batch", "stacked_convolve"),
    ("stream.begin", "repro.streaming.decoder",
     "StreamingDecoder.begin_exchange"),
    ("stream.push", "repro.streaming.decoder", "StreamingDecoder.push"),
    ("stream.finish", "repro.streaming.decoder", "StreamingDecoder.finish"),
)

LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(n for n, _, _ in LAYERS))


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: Any
    name: str
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans around wrapped layer calls.

    ``list.append`` and ``next()`` on an ``itertools.count`` are single
    calls into C, so threads (the service's decode pool) can record
    concurrently without a lock; the open-span stack is per thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op: Any) -> Iterator[None]:
        """Tag every span this thread records inside with ``op``."""
        prev = getattr(self._local, "op", None)
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = prev

    def wrap(self, name: str, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            # Outside an explicit operation (the service's threads) a
            # top-level span and everything under it form one operation.
            op = getattr(local, "op", None)
            if op is None:
                op = stack[0] if stack else sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, op, name, start, end))
        return traced

    def install(self, layers: Iterable[tuple[str, str, str]] = LAYERS
                ) -> "Tracer":
        """Wrap every layer in place; :meth:`uninstall` (or leaving a
        ``with tracer.install():`` block) restores them."""
        for name, module, attr in layers:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            setattr(owner, leaf, self.wrap(name, original))
            self._undo.append(functools.partial(setattr, owner, leaf,
                                                original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.parent, s.op, s.name,
                                    s.start, s.end]) + "\n")

    @staticmethod
    def load(path: str) -> list[Span]:
        with open(path, encoding="utf-8") as f:
            return [Span(*json.loads(line)) for line in f if line.strip()]


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: call count, total ms and self ms (``calls``,
    ``total_ms``, ``self_ms``); layers never called read zero."""
    child_ms: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    table = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
             for name in LAYER_NAMES}
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_ms"] += s.ms
        row["self_ms"] += s.ms - child_ms[s.id]
    return table


def top_level_ms(spans: list[Span]) -> float:
    """Summed duration of spans with no traced parent."""
    return sum(s.ms for s in spans if s.parent is None)
