"""Tests of the open-loop generator and the benchmark's own contract.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loadgen  # noqa: E402


def _plan_fingerprint(plan, ids=None):
    ids = ids or [f"s{i}" for i in range(len(plan.sessions))]
    steps = [0] * len(plan.sessions)
    return [
        [(op.due, op.request, op.lane, op.after, op.tag) for op in ops]
        for ops in (plan.open_ops(ids, None), plan.sat_ops(ids, steps))
    ]


class TestDeterminism:
    def test_schedules_repeat_per_seed(self):
        a = loadgen.poisson_times(50.0, 2.0, random.Random(7))
        b = loadgen.poisson_times(50.0, 2.0, random.Random(7))
        c = loadgen.poisson_times(50.0, 2.0, random.Random(8))
        assert a == b
        assert a != c
        assert all(0.0 <= t < 2.0 for t in a)

    @pytest.mark.parametrize(
        "name", ["hit_mix", "hit_large", "cold_ga", "session_rw"])
    def test_workload_trace_repeats_per_seed(self, name):
        import workloads

        with open(os.path.join(HERE, "spec.json")) as fh:
            full = json.load(fh)
        spec = dict(full["workloads"][name], shards=full["fleet_shards"])
        build = workloads.BUILDERS[name]
        first = _plan_fingerprint(build(11, spec, 2.0, 0.5))
        again = _plan_fingerprint(build(11, spec, 2.0, 0.5))
        other = _plan_fingerprint(build(12, spec, 2.0, 0.5))
        assert first == again
        assert first != other


class _StallServer:
    """Answers pipelined requests in order on one connection; before
    answering request number ``stall_at`` it sleeps ``stall_s``."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at, self.stall_s = stall_at, stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        buf, served = b"", 0
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                buf += data
                while b"\r\n\r\n" in buf:
                    head, buf = buf.split(b"\r\n\r\n", 1)
                    if served == self.stall_at:
                        time.sleep(self.stall_s)
                    served += 1
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                                 b"\r\nok")

    def close(self) -> None:
        self.listener.close()
        self.thread.join(5.0)


class TestCoordinatedOmission:
    def test_stall_is_charged_to_requests_queued_behind_it(self):
        rate, stall_at, stall_s = 100.0, 20, 0.3
        server = _StallServer(stall_at, stall_s)
        try:
            times = loadgen.uniform_times(rate, 0.8)
            ops = [loadgen.Op(t, loadgen.http_request("/x")) for t in times]
            phase = loadgen.run(server.address, ops, 1, timeout_s=5.0)
        finally:
            server.close()
        assert not server.thread.is_alive()
        assert all(o.ok for o in phase.outcomes)
        latency = [(o.done - op.due) for op, o in zip(phase.ops, phase.outcomes)]
        stall_start = times[stall_at]
        stall_end = stall_start + stall_s
        behind = [i for i, t in enumerate(times) if stall_start < t < stall_end - 0.05]
        assert len(behind) >= 20
        for i in behind:
            # answered no earlier than the stall's end, timed from due
            assert latency[i] >= stall_end - times[i] - 0.01
        # the generator kept its schedule through the stall
        assert loadgen.percentile(phase.lags_ms(), 95) < 100.0
        # before the stall, latency stayed well below the stall
        assert max(latency[:stall_at]) < stall_s * 0.8


class TestTailPercentile:
    @pytest.mark.parametrize("n,expected", [
        (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
        (200, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        values = [float(i) for i in range(n)]
        tail = loadgen.tail_percentile(values)
        assert tail["p"] == expected
        assert tail["n"] == n
        if expected is not None:
            assert tail["value"] == loadgen.percentile(values, expected)
            assert sum(v > tail["value"] for v in values) >= 10

    def test_mixed_percentile_weighs_classes_by_share(self):
        values = [0.3, 1.0, 2.0, 7.5, 4.0]
        for p in (0, 5, 50, 95, 100):
            assert loadgen.mixed_percentile(
                [("a", v) for v in values], {"a": 1.0}, p) \
                == pytest.approx(loadgen.percentile(values, p))
        # an even mix sampled 90:10 still reads as an even mix
        skewed = [("fast", 1.0)] * 90 + [("slow", 10.0)] * 10
        even = {"fast": 0.5, "slow": 0.5}
        assert loadgen.mixed_percentile(skewed, even, 25) == 1.0
        assert loadgen.mixed_percentile(skewed, even, 75) == 10.0
        assert loadgen.percentile([v for _, v in skewed], 75) == 1.0

    def test_percentile_matches_linear_interpolation(self):
        assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert loadgen.percentile([5.0], 95) == 5.0


class TestHostSteal:
    def test_windows_cover_the_phase(self):
        import host

        w = host.WINDOW_S
        assert host.windows(3 * w) == [(0.0, w), (w, 2 * w), (2 * w, 3 * w)]
        assert host.windows(2.4 * w) == pytest.approx(
            [(0.0, 1.2 * w), (1.2 * w, 2.4 * w)])
        assert host.windows(0.3 * w) == [(0.0, 0.3 * w)]
        spans = host.windows(3 * w)
        assert [host.window_of(t * w, spans)
                for t in (0.0, 0.99, 1.0, 2.5, 3.0)] == [0, 0, 1, 2, 2]

    def test_quiet_keeps_the_least_stolen_windows(self):
        import host

        assert host.KEEP_SHARE == pytest.approx(0.15)
        steal = [0.1, 0.0, 0.05, 0.2, 0.3, 0.04, 0.5, 0.06, 0.07, 0.08,
                 0.09, 0.11, 0.12, 0.13]
        # 15% of 14 windows: the two least stolen
        assert host.quiet(steal) == [s in (0.0, 0.04) for s in steal]
        # ties with the last kept window stay; a quiet host keeps all
        assert host.quiet([0.0, 0.0, 0.0, 0.1]) == [True, True, True, False]
        assert host.quiet([0.0] * 5) == [True] * 5
        assert host.quiet([0.2]) == [True]
        assert host.quiet([0.3, 0.1, 0.2, 0.0], 0.5) == [False, True, False, True]
        assert host.quiet([]) == []

    def test_fraction_reads_between_samples(self):
        import host

        sampler = host.StealSampler()
        sampler.stop()
        # (time, steal ticks, wanted ticks): 10 of 100 stolen in [1, 2)
        sampler.samples = [(0.0, 0, 0), (1.0, 0, 100), (2.0, 10, 200),
                           (3.0, 10, 300)]
        assert sampler.fraction(1.0, 2.0) == pytest.approx(0.1)
        assert sampler.fraction(2.0, 3.0) == 0.0
        assert sampler.fraction(0.0, 3.0) == pytest.approx(10 / 300)
        sampler.samples = []
        assert sampler.fraction(0.0, 1.0) == 0.0


def test_benchmark_json_matches_spec():
    """BENCHMARK.json names the metrics run.py emits, and each
    workload's reason states its offered rate."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in spec["end_to_end"].items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for layer in spec["layers"] for k, u in layer["metrics"].items()}
    assert {w["name"] for w in bench["workloads"]} == {
        name for name, w in spec["workloads"].items() if w.get("gated", True)}
    for w in bench["workloads"]:
        assert f"{spec['workloads'][w['name']]['rate_rps']:g} req/s" in w["why"]
