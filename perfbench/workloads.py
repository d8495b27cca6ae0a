"""Workload inputs, derived from the workload seed, and the oracle.

Every graph choice, key draw, GA seed, arrival time and insertion chain
comes from ``--seed``; the service only ever sees the generated
requests.  Graph *sizes* are fixed (78/300/3000-node ``paper_mesh``
graphs, see ``spec.json``) so that the mix of work is the same on every
seed and only the draws vary.

The oracle is the single-process serial path of the same source tree:
one in-process ``PartitionService`` that replays every operation in
order (sessions update by update).  Every answer is compared with it on
the assignment bits and the cut.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from repro.experiments import TRACE_GA_DEFAULTS
from repro.graphs.meshes import mesh_graph, paper_mesh
from repro.incremental.updates import insert_local_nodes
from repro.service import (
    HashRing, PartitionRequest, PartitionService, UpdateRequest, graph_digest,
)
from repro.service.models import graph_to_wire

from loadgen import Op, http_request, poisson_times, uniform_times

#: GA budget of pre-warmed catalogue entries.  A cache hit costs the
#: same whatever computed the entry, so the catalogue is filled cheaply:
#: setup then measures serving, not a 3000-node GA run.
CATALOGUE_GA = dict(population_size=8, max_generations=2, patience=None,
                    hill_climb="off")

#: cache-hit catalogue: sizes and parts per size
HIT_SIZES = (78, 300, 3000)
HIT_PARTS = {78: 4, 300: 8, 3000: 8}
#: Zipf exponent of key popularity; a hit workload's ``rank_sizes`` in
#: spec.json gives the size of each rank (rank 1 first), one catalogue
#: key per rank, so the size mix does not depend on the seed
ZIPF_S = 1.0
#: draws per block in which every rank gets exactly its Zipf share
ZIPF_BLOCK = 100

#: cold_ga: one fresh 300-node mesh per request, k=8, trace GA budget
COLD_NODES, COLD_PARTS = 300, 8

#: GA budget of session updates: the trace budget without early
#: stopping, so every update of a given mesh does the same work and the
#: update rate measures serving, not when a GA run happened to stop
SESSION_GA = dict(TRACE_GA_DEFAULTS, patience=None)

#: session_rw: (base mesh, nodes added per update) per session.  Bases
#: are Tables 3/6 meshes; 183 and 249 route to different shards.  One
#: session per shard: the service pins a session to a worker slot by its
#: random id, so two sessions on one shard share a slot in about half
#: the runs, which made the update rate bimodal across seeds (2.2-2.5
#: against 3.0-3.5 updates/s).
SESSIONS = ((183, 10), (249, 10))
SESSION_PARTS = 4
#: small cache-hit read graphs (one per shard)
READ_SIZES = (78, 144)
READ_KEYS_PER_SIZE = 2

#: graphs whose probe answers prove every shard is up (one per shard
#: under the 2-shard ring; setup checks the answering shard ids)
PROBE_SIZES = (78, 249, 118, 144, 183, 300)


@lru_cache(maxsize=None)
def mesh(n: int):
    return paper_mesh(n)


def _encode(path: str, payload: dict) -> bytes:
    return http_request(path, json.dumps(payload).encode())


@dataclass
class Item:
    """One distinct partition request and its encoded HTTP bytes."""

    id: str
    request: PartitionRequest
    http: bytes


def partition_item(item_id: str, request: PartitionRequest) -> Item:
    return Item(item_id, request, _encode("/v1/partition", request.to_payload()))


@dataclass
class SessionSpec:
    base: int
    added: int
    seed: int
    graphs: list            # chained update graphs, in order

    def open_http(self) -> bytes:
        return _encode("/v1/session/open", {
            "graph": graph_to_wire(mesh(self.base)),
            "n_parts": SESSION_PARTS, "seed": self.seed,
            "ga": dict(SESSION_GA),
        })

    def update_http(self, session_id: str, step: int) -> bytes:
        payload = UpdateRequest(session_id, self.graphs[step]).to_payload()
        return _encode("/v1/session/update", payload)


@dataclass
class Plan:
    """A workload's inputs: setup pre-warm items, the open-loop and
    saturation phases, and the sessions they stream."""

    items: dict                     # id -> Item, every partition request
    warm: list                      # item ids answered during setup
    open_ops: Callable = None       # (session ids, first steps) -> [Op]
    sat_ops: Callable = None        # (session ids, first steps) -> [Op]
    sessions: list = field(default_factory=list)
    window: Optional[int] = None    # saturation outstanding requests


def _zipf_ranks(rng: random.Random, ranks: int, n: int) -> list:
    """``n`` Zipf-popular rank draws, in seeded shuffled blocks of
    :data:`ZIPF_BLOCK` in which each rank appears exactly its expected
    number of times (largest remainder).  Free draws let the share of
    3000-node requests in a run -- and with it the percentile the p95
    falls on and the saturation throughput, which uses only a prefix of
    its draws -- vary by seed."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(ranks)]
    quotas = [ZIPF_BLOCK * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[:ZIPF_BLOCK - sum(counts)]:
        counts[r] += 1
    block = [r for r in range(ranks) for _ in range(counts[r])]
    draws: list = []
    while len(draws) < n:
        draws.extend(rng.sample(block, len(block)))
    return draws[:n]


def hits(name: str, seed: int, spec: dict, open_s: float,
         sat_s: float) -> Plan:
    """Zipf-skewed repeats of a pre-warmed catalogue (see ``rank_sizes``)."""
    rank_sizes = spec["rank_sizes"]
    rng = random.Random(f"{name}/{seed}")
    items, by_size = {}, {n: [] for n in HIT_SIZES}
    for n in HIT_SIZES:
        for j in range(rank_sizes.count(n)):
            request = PartitionRequest(
                mesh(n), HIT_PARTS[n], seed=rng.randrange(1 << 30),
                ga=dict(CATALOGUE_GA),
            )
            item = partition_item(f"n{n}.{j}", request)
            items[item.id] = item
            by_size[n].append(item.id)
    # rank -> key: within a size, which key gets which rank is drawn
    order = {n: rng.sample(ids, len(ids)) for n, ids in by_size.items()}
    rank_key, seen = [], {n: 0 for n in HIT_SIZES}
    for n in rank_sizes:
        rank_key.append(order[n][seen[n]])
        seen[n] += 1
    ranks = len(rank_sizes)
    rate = spec["rate_rps"]
    if spec["arrivals"] == "Poisson":
        times = poisson_times(rate, open_s, rng)
    else:
        times = uniform_times(rate, open_s, offset=rng.uniform(0.0, 1.0 / rate))
    open_keys = [rank_key[r] for r in _zipf_ranks(rng, ranks, len(times))]
    sat_keys = [rank_key[r]
                for r in _zipf_ranks(rng, ranks, int(sat_s * 400) + 64)]

    # in a mix, the big meshes get a connection of their own: a small
    # request pipelined behind a 288 KB one would wait for it on the same
    # connection, which is the generator's doing, not the service's
    largest = max(rank_sizes)
    lane = {k: (int(k.startswith(f"n{largest}."))
                if len(set(rank_sizes)) > 1 else None) for k in items}
    return Plan(
        items=items, warm=list(items),
        open_ops=lambda *_: [
            Op(t, items[k].http, lane=lane[k], tag=k)
            for t, k in zip(times, open_keys)
        ],
        sat_ops=lambda *_: [Op(0.0, items[k].http, tag=k) for k in sat_keys],
        window=spec["window"],
    )


def cold_ga(seed: int, spec: dict, open_s: float, sat_s: float) -> Plan:
    rng = random.Random(f"cold_ga/{seed}")
    ring = HashRing(spec["shards"])
    pools: list = [[] for _ in range(spec["shards"])]

    def fresh(shard: int) -> Item:
        """A new request whose mesh the ring routes to ``shard``: the
        offered load alternates over the shards instead of piling onto
        one by chance, which would make the numbers depend on the seed."""
        while not pools[shard]:
            graph = mesh_graph(COLD_NODES, seed=rng.randrange(1 << 30))
            request = PartitionRequest(
                graph, COLD_PARTS, seed=rng.randrange(1 << 30),
                ga=dict(TRACE_GA_DEFAULTS),
            )
            pools[ring.owner(graph_digest(graph))].append(request)
        item = partition_item(f"cold{len(items)}", pools[shard].pop())
        items[item.id] = item
        return item

    items: dict = {}
    times = uniform_times(spec["rate_rps"], open_s,
                          offset=rng.uniform(0.0, 1.0 / spec["rate_rps"]))
    open_ops = []
    for j, t in enumerate(times):
        item = fresh(j % spec["shards"])
        open_ops.append(Op(t, item.http, tag=item.id))
    # saturation: one closed-loop chain per shard keeps every shard busy
    sat_ops = []
    per_shard = int(sat_s * spec["max_sat_rps_per_shard"]) + 2
    for shard in range(spec["shards"]):
        prev = None
        for _ in range(per_shard):
            item = fresh(shard)
            sat_ops.append(Op(0.0, item.http, after=prev, tag=item.id))
            prev = len(sat_ops) - 1
    return Plan(
        items=items, warm=[],
        open_ops=lambda *_: list(open_ops),
        sat_ops=lambda *_: list(sat_ops),
    )


def chain(base: int, added: int, length: int, rng: random.Random) -> list:
    graphs, graph = [], mesh(base)
    for _ in range(length):
        graph = insert_local_nodes(graph, added, seed=rng.randrange(1 << 30)).graph
        graphs.append(graph)
    return graphs


def session_rw(seed: int, spec: dict, open_s: float, sat_s: float) -> Plan:
    rng = random.Random(f"session_rw/{seed}")
    items, read_ids = {}, []
    for n in READ_SIZES:
        for j in range(READ_KEYS_PER_SIZE):
            request = PartitionRequest(
                mesh(n), SESSION_PARTS, seed=rng.randrange(1 << 30),
                ga=dict(CATALOGUE_GA),
            )
            item = partition_item(f"read.n{n}.{j}", request)
            items[item.id] = item
            read_ids.append(item.id)
    interval = spec["update_interval_s"]
    n_open = int(open_s / interval) + 1
    n_sat = int(sat_s * spec["max_sat_updates_per_session_s"]) + 2
    sessions = [
        SessionSpec(base, added, rng.randrange(1 << 30),
                    chain(base, added, n_open + n_sat, rng))
        for base, added in SESSIONS
    ]
    read_times = poisson_times(spec["read_rate_rps"], open_s, rng)
    reads = [rng.choice(read_ids) for _ in read_times]
    offsets = [interval * s / len(sessions) for s in range(len(sessions))]

    def open_ops(session_ids, _steps=None):
        ops = []
        for s, (spec_s, sid) in enumerate(zip(sessions, session_ids)):
            prev = None
            for step in range(n_open):
                due = offsets[s] + step * interval
                if due >= open_s:
                    break
                ops.append(Op(due, spec_s.update_http(sid, step), lane=0,
                              after=prev, tag=("update", s, step)))
                prev = len(ops) - 1
        ops.extend(Op(t, items[k].http, lane=1, tag=k)
                   for t, k in zip(read_times, reads))
        return ops

    def sat_ops(session_ids, start_steps):
        # one connection per session: the front answers a connection in
        # request order, so a shared one would hold each session's next
        # update behind the other session's answer
        ops = []
        for s, (spec_s, sid) in enumerate(zip(sessions, session_ids)):
            prev = None
            for step in range(start_steps[s], len(spec_s.graphs)):
                ops.append(Op(0.0, spec_s.update_http(sid, step), lane=s,
                              after=prev, tag=("update", s, step)))
                prev = len(ops) - 1
        return ops

    return Plan(
        items=items, warm=list(read_ids),
        open_ops=open_ops, sat_ops=sat_ops, sessions=sessions,
    )


BUILDERS = {"hit_mix": partial(hits, "hit_mix"),
            "hit_large": partial(hits, "hit_large"),
            "cold_ga": cold_ga, "session_rw": session_rw}


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def same_answer(body: bytes, reference) -> bool:
    """Whether an HTTP answer carries the reference's assignment bits
    and cut."""
    try:
        got = json.loads(body)
        assignment = np.asarray(got["assignment"], dtype=np.int64)
    except (ValueError, KeyError, TypeError):
        return False
    return (
        float(got.get("cut_size", -1.0)) == float(reference.cut_size)
        and assignment.shape == reference.assignment.shape
        and bool(np.array_equal(assignment, reference.assignment))
    )


class Oracle:
    """The single-process serial reference (see the module docstring)."""

    def __init__(self) -> None:
        self.service = PartitionService()
        self._answers: dict = {}

    def partition(self, item: Item):
        if item.id not in self._answers:
            self._answers[item.id] = self.service.submit(item.request)
        return self._answers[item.id]

    def session(self, spec: SessionSpec, steps: int) -> list:
        """Reference answers of a session: the open, then ``steps``
        updates in order."""
        opened = self.service.open_session(
            mesh(spec.base), SESSION_PARTS, seed=spec.seed,
            ga=dict(SESSION_GA),
        )
        out = [opened]
        for step in range(steps):
            out.append(self.service.update_session(
                UpdateRequest(opened.session_id, spec.graphs[step])
            ))
        self.service.close_session(opened.session_id)
        return out

    def close(self) -> None:
        self.service.close()
