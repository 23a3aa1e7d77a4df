"""Recursive nested-dissection ordering (METIS substitute).

METIS is not available offline, so the reproduction ships a home-grown
recursive nested-dissection ordering.  What the paper needs from "METIS" is
the characteristic *tree topology* it induces — wide, balanced assembly trees
whose large fronts sit near the root — and that property comes from the
recursive-bisection structure, not from the quality of the separator
heuristic.  The separators here are level-set based (George-Liu): a BFS from
a pseudo-peripheral vertex is cut at the level where roughly ``balance`` of
the vertices have been visited, and that level is the separator.

The dissection driver, :func:`dissect`, is shared with the PORD substitute
(:mod:`repro.ordering.pord`), which differs only in its leaf test and in how
it orders separators.  A *frame* is a vertex set still to be dissected.  Its
work is a generator (:func:`_frame`) that yields the root of every BFS it
needs — one per connected component, then the sweeps of
:func:`~repro.ordering.rcm.peripheral_search` — and returns its components
or its split.  The driver works in rounds: every open frame asks for its
next BFS, one multi-source :func:`~repro.ordering.rcm.bfs_levels` runs from
all those roots at once, and each frame is sent its own segment of the
visit order.

A round is exact because any two open frames are disjoint and
non-adjacent.  By induction over how a frame is made:

* the connected components of a frame are non-adjacent;
* the two parts of a split are non-adjacent: the separator is exactly the
  vertices of the far side adjacent to the near side ``a``;
* frames made inside two non-adjacent frames are non-adjacent.

Separators and hubs leave the BFS mask, so a frame's BFS never leaves the
frame, and restricted to one frame the multi-source BFS is that frame's own
(see :mod:`repro.ordering.rcm`).  For the same reason every round writes
into one level array: a round changes only the levels of the frames it
searches, so a frame's levels stay as its own last search left them, and
the driver's memory stays O(n) however many frames or components are open.

Two kinds of BFS are never run.  A component's first sweep is the BFS that
found it.  Part ``a`` of a split, the ball of radius ``cut − 1`` around the
root of the parent's last sweep, has that sweep truncated at the cut as its
first sweep: distances inside the ball are the parent's, and so is the FIFO
order.  The separator costs no search either: every vertex at level
``cut`` has its BFS parent in ``a``, and no deeper vertex has a neighbour
there, so the separator is the cut level and the other part is everything
deeper.

The dissection tree is recorded as it is built and emitted at the end: a
split emits ``a``, then the other part, then its separator; a disconnected
frame its components in reverse discovery order; a leaf, or a frame that
cannot be split, its greedy ordering on its frame-local graph
(:func:`~repro.ordering.quotient_graph.order_subgraph`, gathered from the
global adjacency in O(leaf nnz)); the hubs go last.
"""

from __future__ import annotations

from typing import Callable, Generator, NamedTuple, Optional

import numpy as np

from repro.ordering.quotient_graph import order_subgraph, tie_breakers
from repro.ordering.rcm import Levels, bfs_levels, peripheral_search
from repro.sparse.pattern import SparsePattern

__all__ = ["nested_dissection_ordering", "dissect", "extract_hubs"]


def _components(level: np.ndarray, vertices: np.ndarray) -> Generator[int, Levels, list[np.ndarray]]:
    """Connected components of a frame, as a search.

    Returns each component in BFS order from its first vertex in
    ``vertices``, in the order of those first vertices; ``level`` is the
    array the searches write into, and holds each component's levels.
    """
    comps: list[np.ndarray] = []
    rest = vertices
    while rest.size:
        level[rest] = -1  # so that the vertices this search misses read −1
        _, comp = yield int(rest[0])
        comps.append(comp)
        if comp.size == rest.size:
            break
        rest = rest[level[rest] < 0]
    return comps


def _cut(level: np.ndarray, order: np.ndarray, balance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a connected level structure into (part_a, part_b, separator).

    The cut is the level of the vertex at position ``balance`` of the visit
    order; ``a`` is every shallower vertex, the separator the cut level and
    ``b`` every deeper vertex, each in visit order.  A one-vertex structure
    is all ``a``.
    """
    depth = level[order]
    cut = max(1, int(depth[min(max(1, int(balance * order.size)), order.size - 1)]))
    lo, hi = np.searchsorted(depth, [cut, cut + 1])
    return order[:lo], order[hi:], order[lo:hi]


def _frame(
    indptr: np.ndarray, level: np.ndarray, vertices: np.ndarray, swept: bool, balance: float
) -> Generator[int, Levels, object]:
    """One dissection frame, as a search.

    ``swept`` says that ``vertices`` already is the visit order of a BFS from
    ``vertices[0]`` whose levels are in ``level``: the frame's first sweep
    (the frame is then connected).  Returns the list of its components when
    it is disconnected, else ``(a, b, separator)``.
    """
    if not swept:
        comps = yield from _components(level, vertices)
        if len(comps) > 1:
            return comps
        vertices = comps[0]
    return _cut(*(yield from peripheral_search(indptr, level, vertices)), balance)


class _Open(NamedTuple):
    """An open frame of :func:`dissect`."""

    label: int  # its value in the driver's vertex -> frame array
    search: Generator[int, Levels, object]  # its :func:`_frame`
    slot: list  # where its emission goes in the dissection tree
    depth: int  # splits above it
    vertices: np.ndarray


def dissect(
    indptr: np.ndarray,
    indices: np.ndarray,
    hubs: np.ndarray,
    *,
    balance: float,
    is_leaf: Callable[[int, int], bool],
    order_leaf: Callable[[np.ndarray], np.ndarray],
    order_separator: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Nested dissection of the graph without ``hubs``, then the hubs.

    ``is_leaf(size, depth)`` stops the dissection of a frame, ``depth``
    counting the splits above it; ``order_leaf`` orders a leaf (or a frame
    that cannot be split) and ``order_separator`` a separator or the hubs.
    Returns ``perm`` with ``perm[k]`` the vertex eliminated at step ``k``.
    """
    n = len(indptr) - 1
    mask = np.ones(n, dtype=bool)  # vertices of a frame: not in a separator, not a hub
    mask[hubs] = False
    label = np.zeros(n, dtype=np.int64)  # the frame of each vertex of an open frame
    labels = 0
    # every round's BFS writes here: open frames are disjoint, so a frame's
    # levels stay as its last search left them until its next one
    level = np.full(n, -1, dtype=np.int64)
    # (frame, what to send it next): a work list, so that neither helper
    # below calls the other back; closures calling each other would form a
    # reference cycle that keeps the dissection's arrays alive until the
    # cyclic garbage collector runs
    ready: list[tuple[_Open, Optional[Levels]]] = []
    waiting: list[tuple[int, _Open]] = []  # (root of the BFS it asks for, frame)

    def open_frame(vertices: np.ndarray, swept: bool, depth: int, slot: list) -> None:
        nonlocal labels
        if vertices.size == 0:
            return
        if is_leaf(vertices.size, depth):
            slot.append(order_leaf(vertices))
            return
        labels += 1
        label[vertices] = labels
        ready.append((_Open(labels, _frame(indptr, level, vertices, swept, balance), slot, depth, vertices), None))

    def advance(frame: _Open, levels: Optional[Levels]) -> None:
        try:
            waiting.append((frame.search.send(levels), frame))
            return
        except StopIteration as done:
            result = done.value
        if isinstance(result, list):  # components, emitted last found first
            slots = [[] for _ in result]
            frame.slot.extend(reversed(slots))
            for comp, slot in zip(result, slots):
                open_frame(comp, True, frame.depth, slot)
            return
        a, b, separator = result
        if not (a.size and b.size and separator.size):  # cannot split (e.g. a clique)
            frame.slot.append(order_leaf(frame.vertices))
            return
        mask[separator] = False
        a_slot: list = []
        b_slot: list = []
        frame.slot.extend((a_slot, b_slot, order_separator(separator)))
        open_frame(a, True, frame.depth + 1, a_slot)
        open_frame(b, False, frame.depth + 1, b_slot)

    emitted: list = []
    open_frame(np.flatnonzero(mask), False, 0, emitted)
    while ready or waiting:
        if ready:
            advance(*ready.pop())
            continue
        batch = sorted(waiting, key=lambda item: item[1].label)
        waiting.clear()
        _, order = bfs_levels(indptr, indices, [root for root, _ in batch], mask, level)
        if len(batch) == 1:
            segments = [order]
        else:
            # each frame's visits, in visit order: a stable sort by frame label
            owner = label[order]
            by_frame = np.argsort(owner, kind="stable")
            ends = np.searchsorted(owner[by_frame], [frame.label for _, frame in batch], side="right")
            segments = np.split(order[by_frame], ends[:-1])
        ready.extend((frame, (level, segment)) for (_, frame), segment in zip(batch, segments))
    if hubs.size:
        emitted.append(order_separator(hubs))

    parts: list[np.ndarray] = []
    stack = [emitted]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            parts.append(item)
    perm = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if perm.size != n:
        raise RuntimeError("nested dissection failed to order every vertex")
    return perm


def extract_hubs(indptr: np.ndarray, indices: np.ndarray, *, factor: float = 8.0, min_degree: int = 24) -> np.ndarray:
    """Vertices so well connected that no small separator can avoid them.

    Circuit matrices (PRE2, TWOTONE in the paper) contain a few nearly dense
    rows; level-set separators degrade badly on such *hub* vertices, so —
    like practical ND codes that compress or defer dense rows — they are
    pulled out before the dissection and ordered last (they would end up in
    the top separators anyway).
    """
    degrees = np.diff(indptr)
    n = len(degrees)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    threshold = max(float(min_degree), factor * float(np.mean(degrees)))
    hubs = np.nonzero(degrees >= threshold)[0].astype(np.int64)
    # never classify more than 2% of the vertices as hubs
    if hubs.size > max(1, n // 50):
        order = np.argsort(-degrees[hubs], kind="stable")
        hubs = hubs[order[: max(1, n // 50)]]
    return np.sort(hubs)


def nested_dissection_ordering(
    pattern: SparsePattern,
    *,
    leaf_size: int = 64,
    balance: float = 0.5,
    leaf_method: str = "degree",
    seed: int = 0,
    handle_hubs: bool = True,
) -> np.ndarray:
    """Recursive nested dissection ordering.

    Parameters
    ----------
    leaf_size:
        Subgraphs at most this large are ordered with the greedy
        minimum-degree engine instead of being dissected further.
    balance:
        Target fraction of vertices in the first part of each bisection.
    leaf_method:
        Score used for the leaf ordering (``"degree"`` or ``"fill"``).
    handle_hubs:
        Pull nearly dense rows out of the graph and order them last (see
        :func:`extract_hubs`).

    Returns ``perm`` with ``perm[k]`` = original variable eliminated at step
    ``k``; separators are ordered after the parts they separate, which places
    them near the root of the assembly tree.
    """
    indptr, indices = pattern.adjacency()
    hubs = extract_hubs(indptr, indices) if handle_hubs else np.empty(0, dtype=np.int64)
    jitter = tie_breakers(seed, pattern.n)
    return dissect(
        indptr,
        indices,
        hubs,
        balance=balance,
        is_leaf=lambda size, depth: size <= leaf_size,
        order_leaf=lambda vertices: order_subgraph(indptr, indices, vertices, leaf_method, jitter),
        order_separator=lambda vertices: vertices,
    )
