"""The traced depth ladder: one request at each layer boundary.

The same request is timed at each rung, from the GA engine up to an
HTTP client talking to the 2-shard fleet; a layer's added time is the
difference between adjacent rungs.  Every timing is taken here, around
public calls into each module; inside the GA the benchmark's own
:class:`KernelRecorder` is installed through ``repro.obs.hooks.
recording``, so the program's own tracing stays off.

Spans (name, start, end and the rung, probe or size they time) are kept
in memory and returned for the caller to write out.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import numpy as np

from repro.experiments import TRACE_GA_DEFAULTS
from repro.ga.config import GAConfig
from repro.ga.dknux import DKNUX
from repro.ga.engine import GAEngine
from repro.ga.fitness import make_fitness
from repro.graphs.meshes import mesh_graph
from repro.incremental.partitioner import IncrementalGAPartitioner
from repro.obs.hooks import ExecRecorder, recording
from repro.service import (
    DEFAULT_GA_OVERRIDES,
    SESSION_GA_DEFAULTS,
    HTTPServiceClient,
    JobResult,
    PartitionRequest,
    PartitionService,
    ShardedPartitionService,
    SnapshotStore,
    UpdateRequest,
)
from repro.service.persistence import snapshot_session

from fleet import Fleet
from workloads import (
    CATALOGUE_GA, COLD_NODES, COLD_PARTS, HIT_PARTS, HIT_SIZES, SESSION_GA,
    SESSION_PARTS, chain, mesh,
)

#: repetitions per cache-hit rung (medians are reported)
HIT_REPS = {78: 40, 300: 40, 3000: 12}
#: chained updates timed per session rung
SESSION_STEPS = 3
SESSION_BASE, SESSION_ADDED = 183, 10


class KernelRecorder(ExecRecorder):
    """Collects probed-kernel intervals and GA generation counts."""

    def __init__(self) -> None:
        super().__init__(tracer=None, parent=None, registry=None)
        self.intervals: list = []   # (start, end, kernel name)
        self.evaluations = 0

    def kernel(self, name: str, duration_s: float) -> None:
        end = time.perf_counter()
        self.intervals.append((end - duration_s, end, name))

    def generation(self, generation, best_cut, best_worst_cut, evaluations,
                   stopped_by=None) -> None:
        super().generation(generation, best_cut, best_worst_cut, evaluations,
                           stopped_by=stopped_by)
        self.evaluations += int(evaluations)

    def outermost(self) -> list:
        """Kernel intervals not nested inside another probed kernel."""
        out = []
        for start, end, name in sorted(self.intervals):
            if out and end <= out[-1][1]:
                continue
            out.append((start, end, name))
        return out


class Spans:
    """In-memory span log of the ladder."""

    def __init__(self) -> None:
        self.records: list = []
        self._next = 0

    def timed(self, name: str, fn, **attrs):
        """Run ``fn()`` and record a span; returns ``(result, seconds)``."""
        self._next += 1
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.records.append({"name": name, "span_id": self._next,
                             "start": start, "end": end, **attrs})
        return result, end - start

    def median_us(self, name: str, fn, reps: int, **attrs) -> float:
        fn()  # warm: the first call may build lazy state
        return statistics.median(
            self.timed(name, fn, **attrs)[1] for _ in range(reps)
        ) * 1e6


def _same(a, b) -> bool:
    return (float(a.cut_size) == float(b.cut_size)
            and np.array_equal(np.asarray(a.assignment), np.asarray(b.assignment)))


def run_ladder(seed: int, tmpdir: str) -> tuple[dict, dict, list]:
    """``(metrics, checks, spans)`` of one full ladder run."""
    rng = np.random.default_rng(seed)
    spans = Spans()
    m: dict = {}
    hit = {
        n: PartitionRequest(mesh(n), HIT_PARTS[n], seed=int(rng.integers(1 << 30)),
                            ga=dict(CATALOGUE_GA))
        for n in HIT_SIZES
    }
    cold = PartitionRequest(
        mesh_graph(COLD_NODES, seed=int(rng.integers(1 << 30))), COLD_PARTS,
        seed=int(rng.integers(1 << 30)), ga=dict(TRACE_GA_DEFAULTS),
    )
    session_seed = int(rng.integers(1 << 30))
    graphs = chain(SESSION_BASE, SESSION_ADDED, SESSION_STEPS,
                   random.Random(f"ladder/{seed}"))

    # the sharded front forks its shards: create it before any thread runs
    sharded = ShardedPartitionService(n_shards=2)
    svc = PartitionService()
    fleets = {}
    try:
        fleets[4] = Fleet(0, tmpdir)
        fleets[5] = Fleet(2, tmpdir)
        clients = {r: HTTPServiceClient(f.url, timeout=60.0)
                   for r, f in fleets.items()}
        rungs = {
            2: svc.submit,
            3: sharded.submit,
            4: lambda r: clients[4].partition(r.graph, r.n_parts, seed=r.seed, ga=r.ga),
            5: lambda r: clients[5].partition(r.graph, r.n_parts, seed=r.seed, ga=r.ga),
        }
        hit_us, answers = _hit_ladder(spans, hit, rungs, svc)
        for n in HIT_SIZES:
            m[f"service.cache.intern_us.n{n}"] = hit_us[("intern", n)]
            m[f"service.models.encode_us.n{n}"] = hit_us[("encode", n)]
            m[f"service.models.decode_us.n{n}"] = hit_us[("decode", n)]
            m[f"service.models.request_bytes.n{n}"] = len(
                json.dumps(hit[n].to_payload()).encode())
        m.update(_engine(spans, cold, answers))
        cold_ms = {1: m["ga.engine.run_ms"]}
        for rung, call in rungs.items():
            answers[("cold", rung)], s = spans.timed(
                "cold.partition", lambda c=call: c(cold), rung=rung)
            cold_ms[rung] = s * 1e3
        update_ms = _session_ladder(spans, session_seed, graphs, answers, {
            2: svc, 3: sharded, 4: clients[5]})
        session = svc.sessions.get(answers["session.2"])
        store = SnapshotStore(os.path.join(tmpdir, "ladder-snapshots"))
        data, s = spans.timed("persistence.snapshot",
                              lambda: snapshot_session(session), rung=2)
        _, s2 = spans.timed("persistence.save",
                            lambda: store.save(session.id, data), rung=2)
        m["service.persistence.snapshot_ms"] = (s + s2) * 1e3
        m["service.persistence.snapshot_bytes"] = len(data)
        m["service.eventloop.healthz_us"] = spans.median_us(
            "http.healthz", clients[5].healthy, 40, rung=5)
        for client in clients.values():
            client.close()
    finally:
        for fleet in fleets.values():
            fleet.stop()
        svc.close()
        sharded.close()

    layer_sum = fleet_sum = 0.0
    for n in HIT_SIZES:
        core = hit_us[(2, n)]
        hop = hit_us[(3, n)] - core
        codec = (m[f"service.models.encode_us.n{n}"]
                 + m[f"service.models.decode_us.n{n}"])
        front = hit_us[(4, n)] - core - codec
        m[f"service.core.hit_us.n{n}"] = core
        m[f"service.sharding.hop_added_us.n{n}"] = hop
        m[f"service.eventloop.added_us.n{n}"] = front
        m[f"ladder.fleet_us.n{n}"] = hit_us[(5, n)]
        layer_sum += core + hop + codec + front
        fleet_sum += hit_us[(5, n)]
    m["ladder.unattributed_frac"] = 1.0 - layer_sum / fleet_sum
    n = HIT_SIZES[-1]
    m[f"ladder.codec_front_hop_share.n{n}"] = (
        hit_us[(4, n)] - hit_us[(2, n)] + hit_us[(3, n)] - hit_us[(2, n)]
    ) / hit_us[(5, n)]
    m["ladder.cold_fleet_ms"] = cold_ms[5]
    m["incremental.update_ms"] = update_ms[1]
    m["service.sessions.update_added_ms"] = update_ms[2] - update_ms[1]
    m["ladder.update_fleet_ms"] = update_ms[4]

    # every rung must have done the same work: identical answers
    checks = {
        "cold_rungs_identical": all(
            _same(answers["engine"], answers[("cold", r)]) for r in rungs),
        "hit_rungs_identical": all(
            _same(answers[(2, n)], answers[(r, n)])
            for n in HIT_SIZES for r in rungs),
        "update_rungs_identical": all(
            _same(a, b)
            for r in (2, 3, 4)
            for a, b in zip(answers["update.1"], answers[f"update.{r}"])),
        "cold_rungs_ms": cold_ms,
        "update_rungs_ms": update_ms,
    }
    return m, checks, spans.records


def _hit_ladder(spans: Spans, hit: dict, rungs: dict, svc) -> tuple[dict, dict]:
    """Median microseconds of the cache-hit request at every rung, and
    of the pieces timed in process: graph interning and the wire codec
    as the HTTP client and the front perform it (request and answer
    encoded, then decoded).  Everything is timed in turn within each
    repetition, so drift in machine load reaches all of it alike."""
    answers: dict = {}
    for n, req in hit.items():
        for rung, call in rungs.items():
            answers[(rung, n)] = call(req)  # warm: the first call is a miss
    wire = {
        n: (json.dumps(req.to_payload()).encode(),
            json.dumps(answers[(2, n)].to_payload()).encode())
        for n, req in hit.items()
    }

    def encode(req, n):
        json.dumps(PartitionRequest(req.graph, req.n_parts, seed=req.seed,
                                    ga=req.ga).to_payload()).encode()
        json.dumps(answers[(2, n)].to_payload()).encode()

    def decode(req, n):
        PartitionRequest.from_payload(json.loads(wire[n][0].decode()))
        JobResult.from_payload(json.loads(wire[n][1].decode()))

    probes = {
        **{rung: (lambda req, n, c=call: c(req)) for rung, call in rungs.items()},
        "intern": lambda req, n: svc.store.graphs.intern(req.graph),
        "encode": encode,
        "decode": decode,
    }
    samples: dict = {}
    for rep in range(max(HIT_REPS.values())):
        for n, req in hit.items():
            if rep >= HIT_REPS[n]:
                continue
            for name, probe in probes.items():
                _, s = spans.timed("hit", lambda p=probe: p(req, n),
                                   probe=name, size=n)
                samples.setdefault((name, n), []).append(s)
    return ({k: statistics.median(v) * 1e6 for k, v in samples.items()},
            answers)


def _engine(spans: Spans, cold: PartitionRequest, answers: dict) -> dict:
    """Rung 1 of the cold request: ``GAEngine.run`` as the service builds
    it, with the benchmark's kernel recorder installed."""
    cfg = GAConfig(**dict(DEFAULT_GA_OVERRIDES, **cold.ga))
    fitness = make_fitness(cold.fitness_kind, cold.graph, cold.n_parts)
    engine = GAEngine(cold.graph, fitness, DKNUX(cold.graph, cold.n_parts),
                      config=cfg, seed=cold.seed)
    rec = KernelRecorder()
    with recording(rec):
        result, run_s = spans.timed("ga.engine.run", engine.run, rung=1)
    answers["engine"] = result.best
    top = rec.outermost()
    climb = sum(e - s for s, e, name in top if name == "climb_batch")
    other = sum(e - s for s, e, name in top if name != "climb_batch")
    return {
        "ga.engine.run_ms": run_s * 1e3,
        "ga.engine.self_ms": (run_s - climb - other) * 1e3,
        "ga.engine.generations": result.generations,
        "ga.engine.evaluations": rec.evaluations,
        "ga.batch_climb.ms_per_req": climb * 1e3,
        "ga.batch_climb.calls_per_req": sum(
            1 for _, _, name in rec.intervals if name == "climb_batch"),
        "ga.batch_climb.share": climb / run_s,
        "partition.metrics.kernel_ms_per_req": other * 1e3,
    }


def _session_ladder(spans: Spans, seed: int, graphs: list, answers: dict,
                    services: dict) -> dict:
    """Mean milliseconds per chained update at each session rung: the
    incremental partitioner alone, then ``update_session`` in process,
    over the sharded front, and over HTTP to the fleet."""
    cfg = GAConfig(**dict(SESSION_GA_DEFAULTS, **SESSION_GA))
    part = IncrementalGAPartitioner(mesh(SESSION_BASE), SESSION_PARTS,
                                    config=cfg, seed=seed)
    part.partition_initial()
    calls = {1: part.update}
    for rung, service in services.items():
        opened = service.open_session(mesh(SESSION_BASE), SESSION_PARTS,
                                      seed=seed, ga=dict(SESSION_GA))
        sid = answers[f"session.{rung}"] = opened.session_id
        if isinstance(service, HTTPServiceClient):
            calls[rung] = lambda g, c=service, i=sid: c.update_session(i, g)
        else:
            calls[rung] = lambda g, c=service, i=sid: c.update_session(
                UpdateRequest(i, g))
    total = {rung: 0.0 for rung in calls}
    for graph in graphs:
        for rung, call in calls.items():
            result, s = spans.timed("session.update",
                                    lambda c=call: c(graph), rung=rung)
            total[rung] += s
            answers.setdefault(f"update.{rung}", []).append(result)
    return {rung: t / len(graphs) * 1e3 for rung, t in total.items()}
