"""Execution histories and a one-copy-serializability checker.

Rainbow lets students "observe local as well as global executions
(history…)".  The :class:`HistoryRecorder` collects the *committed* global
history in version-order form: which version each committed transaction
read per item, and which version it installed.  From that we build the
serialization (conflict) graph over committed transactions:

* **wr**: the writer of version ``v`` precedes every reader of ``v``;
* **ww**: the writer of version ``v`` precedes the writer of the next
  version of the same item;
* **rw**: a reader of version ``v`` precedes the writer of the next
  version (it must be serialized before the overwrite it did not see).

If the graph is acyclic the committed execution is equivalent to a serial
one-copy execution (view serializability over the version order).  With
correct RCP+CCP+ACP implementations the check always passes — which makes
it the central *property test* of the whole stack: any protocol bug that
lets a non-serializable interleaving commit trips the cycle detector.

The check runs at the end of every session over the whole history, so
neither side of it is made of per-transaction objects.  The recorder keeps
each footprint as one flat tuple of atomics, ``(txn_id, committed_at,
n_reads, item, version, item, version, …)`` with the reads first, which
the garbage collector stops tracking.  The graph numbers its nodes by
position in the ascending transaction ids and holds its edges in integer
arrays, one run of ascending, distinct successors per node (compressed
sparse rows); the DFS colours live in a ``bytearray``.  Its memory grows
with the number of edges, not with Python objects per transaction.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

__all__ = ["CommittedTxn", "HistoryRecorder", "SerializationGraph"]

_INITIAL_WRITER = 0  # pseudo-transaction that wrote version 0 of everything
_WHITE, _GREY, _BLACK = 0, 1, 2


class CommittedTxn(NamedTuple):
    """The version footprint of one committed transaction.

    ``reads`` and ``writes`` are tuples of ``(item, version)`` pairs.  The
    recorder stores each footprint as one flat tuple of atomics; this named
    view is built on demand.
    """

    txn_id: int
    reads: tuple[tuple[str, float], ...] = ()  # (item, version read)
    writes: tuple[tuple[str, float], ...] = ()  # (item, version written)
    committed_at: float = 0.0


def _zeros(n: int) -> array:
    return array("i", bytes(4 * n))


class SerializationGraph:
    """Conflict graph over committed transactions with cycle detection.

    Node ``u`` is the ``u``-th smallest transaction id in ``_ids``; its
    successors are ``_targets[_offsets[u]:_offsets[u + 1]]``, ascending and
    distinct (compressed sparse rows).  :meth:`add_node` and
    :meth:`add_edge` collect additions that the next query merges in.
    """

    def __init__(
        self,
        ids: Iterable[int] = (),
        offsets: Optional[array] = None,
        targets: Optional[array] = None,
    ):
        """``offsets``/``targets``: the rows of the ascending ``ids``, as
        ``array("i")`` (kept, not copied)."""
        self._ids = list(ids)
        self._offsets = array("i", [0]) if offsets is None else offsets
        self._targets = array("i") if targets is None else targets
        self._added_nodes: list[int] = []
        self._added_edges: list[tuple[int, int]] = []

    def add_node(self, txn: int) -> None:
        self._added_nodes.append(txn)

    def add_edge(self, before: int, after: int) -> None:
        """Record that ``before`` must serialize before ``after``."""
        if before != after:
            self._added_edges.append((before, after))

    def _adjacency(self) -> tuple[list[int], array, array]:
        """``(ids, offsets, targets)``, with the additions merged in."""
        if self._added_nodes or self._added_edges:
            self._merge()
        return self._ids, self._offsets, self._targets

    def _merge(self) -> None:
        ids, offsets, targets = self._ids, self._offsets, self._targets
        successors = {
            txn: {ids[target] for target in targets[offsets[node] : offsets[node + 1]]}
            for node, txn in enumerate(ids)
        }
        for txn in self._added_nodes:
            successors.setdefault(txn, set())
        for before, after in self._added_edges:
            successors.setdefault(before, set()).add(after)
            successors.setdefault(after, set())
        self._added_nodes, self._added_edges = [], []
        self._ids = sorted(successors)
        position = {txn: node for node, txn in enumerate(self._ids)}
        self._offsets, self._targets = array("i", [0]), array("i")
        for txn in self._ids:
            self._targets.extend(sorted(position[after] for after in successors[txn]))
            self._offsets.append(len(self._targets))

    # -- views -------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[int]:
        """The transaction ids in the graph."""
        return frozenset(self._adjacency()[0])

    @property
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Each node's successors, ascending (a fresh dict, ascending keys)."""
        ids, offsets, targets = self._adjacency()
        return {
            node_id: tuple(ids[target] for target in targets[offsets[node] : offsets[node + 1]])
            for node, node_id in enumerate(ids)
        }

    # -- checks ------------------------------------------------------------------
    def find_cycle(self) -> Optional[list[int]]:
        """Return one cycle as a node list, or None if the graph is acyclic.

        Depth-first from each unvisited node in ascending id order, visiting
        successors in ascending order; the first edge back to a node on the
        path closes the cycle, which starts and ends at that node.
        """
        ids, offsets, targets = self._adjacency()
        colour = bytearray(len(ids))
        parent = _zeros(len(ids))
        cursor = offsets[:]  # each node's next successor to visit
        for root in range(len(ids)):
            if colour[root] != _WHITE:
                continue
            colour[root] = _GREY
            stack = [root]
            while stack:
                node = stack[-1]
                position, end = cursor[node], offsets[node + 1]
                while position < end:
                    child = targets[position]
                    position += 1
                    if colour[child] == _WHITE:
                        colour[child] = _GREY
                        parent[child] = node
                        stack.append(child)
                        break
                    if colour[child] == _GREY:
                        cycle = [child, node]
                        walk = node
                        while walk != child:
                            walk = parent[walk]
                            cycle.append(walk)
                        cycle.reverse()
                        return [ids[member] for member in cycle]
                cursor[node] = position
                if stack[-1] == node:
                    colour[node] = _BLACK
                    stack.pop()
        return None

    def topological_order(self) -> Optional[list[int]]:
        """A serial order witnessing serializability, or None if cyclic.

        Kahn's algorithm, always taking the smallest ready id.
        """
        ids, offsets, targets = self._adjacency()
        in_degree = _zeros(len(ids))
        for target in targets:
            in_degree[target] += 1
        ready = [node for node in range(len(ids)) if not in_degree[node]]  # a heap
        order: list[int] = []
        while ready:
            node = heappop(ready)
            order.append(ids[node])
            for target in targets[offsets[node] : offsets[node + 1]]:
                in_degree[target] -= 1
                if not in_degree[target]:
                    heappush(ready, target)
        if len(order) != len(ids):
            return None
        return order

    def to_dot(self, highlight: Optional[list[int]] = None) -> str:
        """Graphviz DOT rendering of the serialization graph.

        ``highlight`` (e.g. a cycle from :meth:`find_cycle`) is drawn in
        red — handy for lab reports: ``dot -Tpng graph.dot -o graph.png``.
        """
        ids, offsets, targets = self._adjacency()
        hot = set(highlight or [])
        lines = ["digraph serialization {", "  rankdir=LR;"]
        for node in ids:
            style = ' [color=red, fontcolor=red]' if node in hot else ""
            lines.append(f'  "T{node}"{style};')
        for index, node in enumerate(ids):
            for target in targets[offsets[index] : offsets[index + 1]]:
                successor = ids[target]
                style = (
                    " [color=red]" if node in hot and successor in hot else ""
                )
                lines.append(f'  "T{node}" -> "T{successor}"{style};')
        lines.append("}")
        return "\n".join(lines)


def _pairs(row: tuple, start: int, end: int) -> tuple[tuple, ...]:
    return tuple(zip(row[start:end:2], row[start + 1 : end : 2]))


class HistoryRecorder:
    """Collects the committed global history of a Rainbow session.

    Each footprint is one row ``(txn_id, committed_at, n_reads, item,
    version, …)``: ``n_reads`` read pairs, then the write pairs.
    """

    def __init__(self):
        self._committed: list[tuple] = []

    def record_commit(
        self,
        txn_id: int,
        reads: dict[str, float],
        writes: dict[str, float],
        committed_at: float = 0.0,
    ) -> None:
        """Record the version footprint of a committed transaction."""
        self._committed.append(
            (txn_id, committed_at, len(reads), *chain(*reads.items(), *writes.items()))
        )

    @property
    def committed(self) -> list[CommittedTxn]:
        """The committed footprints in commit order (a fresh list of views)."""
        views = []
        for row in self._committed:
            split = 3 + 2 * row[2]
            views.append(
                CommittedTxn(row[0], _pairs(row, 3, split), _pairs(row, split, len(row)), row[1])
            )
        return views

    def __len__(self) -> int:
        return len(self._committed)

    # -- graph construction ----------------------------------------------------
    def build_graph(self) -> SerializationGraph:
        """Build the wr/ww/rw conflict graph of the committed history."""
        rows = sorted(self._committed, key=itemgetter(0))
        ids: list[int] = []
        # item -> (versions, nodes) of its readers and of its writers
        readers: dict[str, tuple[list, array]] = {}
        writers: dict[str, tuple[list, array]] = {}
        for node, (txn_id, footprints) in enumerate(groupby(rows, itemgetter(0))):
            ids.append(txn_id)
            for row in footprints:
                split = 3 + 2 * row[2]
                for table, start, end in ((readers, 3, split), (writers, split, len(row))):
                    for item, version in zip(row[start:end:2], row[start + 1 : end : 2]):
                        entry = table.get(item) or table.setdefault(item, ([], array("i")))
                        entry[0].append(version)
                        entry[1].append(node)
        for table in (readers, writers):
            for item, (versions, nodes) in table.items():
                # Ascending versions, ties in node order: the ww chain keeps
                # duplicate-version writers (NOCC) in transaction order.
                order = sorted(range(len(versions)), key=versions.__getitem__)
                table[item] = (
                    [versions[index] for index in order],
                    array("i", [nodes[index] for index in order]),
                )

        offsets, targets = array("i", [0]), array("i")
        none = ((), ())
        for node, (_txn_id, footprints) in enumerate(groupby(rows, itemgetter(0))):
            successors = set()
            for row in footprints:
                split = 3 + 2 * row[2]
                for item, version in zip(row[3:split:2], row[4:split:2]):
                    # rw: the reader precedes the next overwrite.
                    versions, nodes = writers.get(item, none)
                    at = bisect_right(versions, version)
                    if at < len(nodes):
                        successors.add(nodes[at])
                for item, version in zip(row[split::2], row[split + 1 :: 2]):
                    versions, nodes = writers[item]
                    at = first = bisect_left(versions, version)
                    while nodes[at] != node:
                        at += 1
                    if at == first:
                        # wr: the (first) writer of a version precedes its
                        # readers; reads of version 0, the initial state,
                        # have no writer.
                        read_versions, read_nodes = readers.get(item, none)
                        low = bisect_left(read_versions, version)
                        successors.update(
                            read_nodes[low : bisect_right(read_versions, version, low)]
                        )
                    # ww: the writer precedes the next writer in the chain.
                    while at < len(nodes) and nodes[at] == node:
                        at += 1
                    if at < len(nodes):
                        successors.add(nodes[at])
            successors.discard(node)
            targets.extend(sorted(successors))
            offsets.append(len(targets))
        return SerializationGraph(ids, offsets, targets)

    # -- checks -----------------------------------------------------------------
    def check_serializable(self) -> tuple[bool, Optional[list[int]]]:
        """``(True, serial_order)`` if 1SR holds, else ``(False, cycle)``.

        A graph with a serial order has no cycle, so the cycle search runs
        only when there is none.
        """
        graph = self.build_graph()
        order = graph.topological_order()
        if order is not None:
            return True, order
        return False, graph.find_cycle()

    def _writes(self):
        """``(txn_id, item, version)`` for every committed write, in order."""
        for row in self._committed:
            for index in range(3 + 2 * row[2], len(row), 2):
                yield row[0], row[index], row[index + 1]

    def version_collisions(self) -> list[str]:
        """Detect two committed writers installing the same version.

        A correct RCP+CCP stack assigns each committed write of an item a
        distinct version, so collisions are a protocol violation (the
        second write physically overwrote the first at equal version — a
        lost update).  The broken classroom protocol (NOCC) trips this.
        """
        seen: dict[tuple[str, float], int] = {}
        problems = []
        for txn_id, item, version in self._writes():
            key = (item, version)
            if key in seen:
                problems.append(f"{item}@{version} written by both T{seen[key]} and T{txn_id}")
            else:
                seen[key] = txn_id
        return problems

    def reads_see_committed_versions(self) -> list[str]:
        """Sanity check: every version read was version 0 or was written.

        Returns a list of violation descriptions (empty when clean).
        """
        written: dict[str, set[float]] = {}
        for _txn_id, item, version in self._writes():
            written.setdefault(item, set()).add(version)
        problems = []
        for row in self._committed:
            for index in range(3, 3 + 2 * row[2], 2):
                item, version = row[index], row[index + 1]
                if version != _INITIAL_WRITER and version not in written.get(item, ()):
                    problems.append(
                        f"T{row[0]} read {item}@{version} which no committed txn wrote"
                    )
        return problems
