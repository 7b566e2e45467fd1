"""Tests of the benchmark itself: the oracle, the digest, the output.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from repro.reader.batch import BatchedDecoder  # noqa: E402
from repro.reader.reader import BackFiReader  # noqa: E402
from repro.streaming import CaptureSource  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _no_clock(_op: int) -> float:
    return 0.0


def _flip_first_ok(results):
    """Flip one payload bit of the first CRC-validated result."""
    for r in results:
        if r.ok and r.payload_bits.size:
            r.payload_bits[0] ^= 1
            return True
    return False


def test_oracle_counts_a_flipped_payload_bit_on_exchange(monkeypatch):
    clean = wl.run_exchange(7, 0, 6, Tracer(), _no_clock)
    assert clean.failed == 0 and any(o.ok for o in clean.outcomes)

    decode = BackFiReader.decode

    def flipping(self, *args, **kwargs):
        result = decode(self, *args, **kwargs)
        _flip_first_ok([result])
        return result

    monkeypatch.setattr(BackFiReader, "decode", flipping)
    flipped = wl.run_exchange(7, 0, 6, Tracer(), _no_clock)
    assert flipped.failed == sum(o.ok for o in clean.outcomes) > 0


def test_oracle_counts_a_flipped_payload_bit_on_batch(monkeypatch):
    decode_batch = BatchedDecoder.decode_batch

    def flipping(self, *args, **kwargs):
        results = decode_batch(self, *args, **kwargs)
        assert _flip_first_ok(results)
        return results

    monkeypatch.setattr(BatchedDecoder, "decode_batch", flipping)
    m = wl.run_batch(7, 0, 1, Tracer(), _no_clock)
    assert m.failed == 1


def test_stream_oracle_counts_a_flipped_payload_bit():
    capture = wl.stream_captures(7, 0, 1)[0][0]
    source = CaptureSource(
        wl.resolve_scenario(wl.STREAM_SCENARIO)
        .with_overrides(f"seed={wl.session_seed(7, 0, 0)}"))
    payload = wl.packed(wl.framed_payload(source.next_exchange()[0].plan))
    assert payload

    def ack(body: bytes) -> dict:
        return {"exchange": 0, "ok": True, "payload_hex": body.hex(),
                "payload_sha256": hashlib.sha256(body).hexdigest()}

    assert wl.check_stream_result((0, 0), 0, ack(payload),
                                  capture).error is None
    flipped = bytes([payload[0] ^ 0x80]) + payload[1:]
    assert wl.check_stream_result((0, 0), 0, ack(flipped),
                                  capture).error is not None
    # A CRC reject is not a failed operation.
    assert wl.check_stream_result((0, 0), 0, {"exchange": 0, "ok": False},
                                  capture).error is None


def test_digest_is_stable_at_one_seed():
    a = wl.run_exchange(3, 0, 6, Tracer(), _no_clock)
    b = wl.run_exchange(3, 0, 6, Tracer(), _no_clock)
    assert wl.output_digest(a.outcomes) == wl.output_digest(b.outcomes)
    c = wl.run_batch(3, 0, 1, Tracer(), _no_clock)
    d = wl.run_batch(3, 0, 1, Tracer(), _no_clock)
    assert wl.output_digest(c.outcomes) == wl.output_digest(d.outcomes)
    assert wl.output_digest(a.outcomes) != wl.output_digest(
        wl.run_exchange(4, 0, 6, Tracer(), _no_clock).outcomes)


def test_batched_equals_scalar_on_benchmark_inputs():
    m = wl.run_batch(5, 0, 1, Tracer(), _no_clock)
    assert wl.batched_equals_scalar(5, m.outcomes, 1) == []


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace, monkeypatch,
                                       capsys):
    monkeypatch.setitem(bench.SETUP_SAMPLES, workload, 1)
    assert bench.main(["--workload", workload, "--seed", "1",
                       "--seconds", "0.3", "--trace", trace]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace == "1":
        digests = [line.split()[-1] for line in stdout.splitlines()
                   if "digest" in line]
        assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "exchange", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
