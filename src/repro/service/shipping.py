"""Digest-first graph shipping: one protocol for every hop a graph takes.

A graph crosses a process boundary at two hops: the sharded front to its
shard (:mod:`repro.service.sharding`, pipe or socket transport) and a
service to its process slot (:mod:`repro.service.procexec`).  Both hops
speak the one protocol implemented here:

* the sender remembers, per peer, the digests it has shipped — a bounded
  LRU in :class:`GraphShipper`;
* a request to a peer believed to hold the graph carries the digest
  alone (a :class:`GraphRef` in place of the graph);
* a peer that does not hold it (restarted, evicted it, or a new process
  in a recycled slot) answers :data:`NEEDS_GRAPH`, and the sender
  resends once with the graph attached.

First contact ships the graph directly, so a cold request pays no extra
round trip.  A wrong belief costs one resend, never a wrong answer: the
peer resolves a digest only to a graph it interned from the same
content.  Every attempt is counted in ``repro_graph_ships_total{mode}``
(``graph`` = shipped with the graph, ``digest`` = digest only,
``resend`` = the one retry after :data:`NEEDS_GRAPH`).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Callable, Optional, Sequence

__all__ = ["NEEDS_GRAPH", "GraphRef", "GraphShipper", "by_ref"]

#: reply of a peer handed a digest it does not hold; the sender resends
#: once with the graph attached
NEEDS_GRAPH = "__needs_graph__"


class GraphRef:
    """Stands in for a graph the receiving peer is believed to hold.

    Carries the node count as well as the digest, so request validation
    that only needs the graph's size (a refine assignment's length) runs
    unchanged on the reference.
    """

    __slots__ = ("digest", "n_nodes")

    def __init__(self, digest: str, n_nodes: int) -> None:
        self.digest = str(digest)
        self.n_nodes = int(n_nodes)

    def to_wire(self) -> dict:
        """The reference as it rides inside a request payload."""
        return {"ref": self.digest, "n_nodes": self.n_nodes}

    @staticmethod
    def from_wire(obj) -> Optional["GraphRef"]:
        """The reference a payload's ``graph`` field carries, else None."""
        if isinstance(obj, dict) and "ref" in obj:
            return GraphRef(obj["ref"], obj["n_nodes"])
        return None

    def __repr__(self) -> str:
        return f"GraphRef({self.digest[:12]}, n_nodes={self.n_nodes})"


def by_ref(request):
    """Copy of ``request`` whose graph travels as its :class:`GraphRef`."""
    graph = request.graph
    return dataclasses.replace(
        request, graph=GraphRef(graph.digest(), graph.n_nodes)
    )


class GraphShipper:
    """Per-peer memory of shipped digests plus the one-resend rule.

    ``cap`` bounds the digests remembered per peer (LRU).  Beyond what
    the peer itself keeps, remembering buys nothing: the peer has
    evicted the graph and answers :data:`NEEDS_GRAPH` anyway.
    """

    def __init__(self, cap: int, registry) -> None:
        self.cap = int(cap)
        self.registry = registry
        self._lock = threading.Lock()
        self._held: dict = {}  # peer -> OrderedDict[digest, None]

    def holds(self, peer, digest: str) -> bool:
        """Whether ``peer`` is believed to hold ``digest``."""
        with self._lock:
            held = self._held.get(peer)
            if held is None or digest not in held:
                return False
            held.move_to_end(digest)
            return True

    def mark(self, peer, digests: Sequence[str]) -> None:
        """Remember that ``peer`` now holds every digest in ``digests``."""
        with self._lock:
            held = self._held.setdefault(peer, OrderedDict())
            for digest in digests:
                held[digest] = None
                held.move_to_end(digest)
            while len(held) > self.cap:
                held.popitem(last=False)

    def ship(self, peer, digests: Sequence[str], send: Callable[[bool], object]):
        """One request to ``peer`` naming the graphs ``digests``.

        ``send(full)`` performs the call: with the graphs attached when
        ``full`` is true, by digest otherwise.  Digests go first only
        when the peer is believed to hold every graph; a
        :data:`NEEDS_GRAPH` answer is resent once, in full.
        """
        by_digest = all(self.holds(peer, d) for d in digests)
        mode = "digest" if by_digest else "graph"
        self.registry.inc("repro_graph_ships_total", mode=mode)
        out = send(not by_digest)
        if by_digest and isinstance(out, str) and out == NEEDS_GRAPH:
            self.registry.inc("repro_graph_ships_total", mode="resend")
            out = send(True)
        self.mark(peer, digests)
        return out
