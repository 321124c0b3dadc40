"""Immutable simple graphs on dense 0-based vertices.

Everything downstream (interval covers, join constructions, divisor graphs)
is built from the values here. Operations are pure; anything that relabels
vertices returns the relabeling explicitly, because silent relabeling is the
main source of bugs in cover constructions. A graph is stored as its int
bitsets `Graph.adj` alone: every builder writes them, every module reads them
through mask arithmetic and `bits`, and `Graph.edges` is read out of them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import InputError, ResourceBudgetError

Edge = tuple[int, int]


def bits(mask: int) -> Iterator[int]:
    """The set bits of an int bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pairs(adj) -> Iterator[Edge]:
    """The (u, v) with u < v and bit v set in adj[u], in increasing order."""
    for u, mask in enumerate(adj):
        if mask := mask & -2 << u:
            for v in bits(mask):
                yield u, v


@dataclass(frozen=True, slots=True, init=False)
class Graph:
    """Finite simple undirected graph, held only as n and `adj`: bit w of adj[v]
    is set exactly when vw is an edge. Equality and hashing are on (n, adj)."""

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges=()) -> None:
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_adj(cls, adj) -> Graph:
        """The graph of these neighbourhoods, taken unchecked: symmetric, loop-free, in range."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        return g

    @property
    def edges(self) -> frozenset[Edge]:
        """The (u, v) with u < v, read out of the bitsets on every access."""
        return frozenset(pairs(self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(nbrs.bit_count() for nbrs in self.adj) // 2

    def sorted_edges(self) -> list[Edge]:
        return list(pairs(self.adj))

    def non_edges(self) -> list[Edge]:
        full = (1 << self.n) - 1
        return list(pairs([full & ~nbrs for nbrs in self.adj]))

    def is_complete(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return not any(self.adj)

    def reach(self, start: int, within: int) -> int:
        """The vertices of the mask `within` that paths inside it join to the
        mask `start`, which lies in `within`; `start` included."""
        comp = frontier = start
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= self.adj[v]
            frontier = reach & within & ~comp
            comp |= frontier
        return comp

    def components_within(self, within: int) -> list[int]:
        """Vertex masks of the components of the subgraph induced by the mask
        `within`, ordered by their lowest vertex."""
        comps: list[int] = []
        while within:
            comp = self.reach(within & -within, within)
            comps.append(comp)
            within &= ~comp
        return comps

    def connected_components(self) -> list[list[int]]:
        return [list(bits(c)) for c in self.components_within((1 << self.n) - 1)]

    def __repr__(self) -> str:  # compact, deterministic; the default is noisy
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def make_graph(n: int, edges) -> Graph:
    """Canonical graph value; duplicate pairs collapse, loops are rejected."""
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph.from_adj([full ^ 1 << v for v in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes: list[int]) -> Graph:
    """Complete multipartite graph; blocks are consecutive vertex ranges."""
    if any(s <= 0 for s in sizes):
        raise InputError("block sizes must be positive")
    return generalized_join(complete_graph(len(sizes)), [empty_graph(s) for s in sizes])[0]


@dataclass(frozen=True)
class Coloring:
    """Color assignment indexed by vertex; color ids are 0-based."""

    colors: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def is_proper(self, g: Graph) -> bool:
        if len(self.colors) != g.n:
            return False
        classes: dict[int, int] = {}
        for v, c in enumerate(self.colors):
            classes[c] = classes.get(c, 0) | 1 << v
        return not any(nbrs & classes[c] for nbrs, c in zip(g.adj, self.colors))


# ---------------------------------------------------------------------------
# constructions


def _vertex_mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertices`, relabeled to 0..|S|-1.

    Returns (subgraph, map) where map[new_index] = original vertex.
    """
    within = _vertex_mask(g, vertices)
    sub = list(bits(within))
    index = {v: i for i, v in enumerate(sub)}
    adj = [sum(1 << index[w] for w in bits(g.adj[v] & within)) for v in sub]
    return Graph.from_adj(adj), tuple(sub)


EDGE_BUDGET = 200_000  # a circular clique this size builds and verifies its cover in about 1 s
# the cover check keeps n^2/8 bytes of prefix bitsets per member, and a graph's
# own bitsets take up to as much when its edges span the vertex range
VERIFY_MAX_N = 20_000


# one interval per vertex per member: `cover zdg --n 9240 --method join`, the
# largest cover another command builds, has 446 459 (61 members, 7319 vertices)
COVER_ENTRY_BUDGET = 500_000


def check_edge_budget(count: int, what: str) -> None:
    """Refuse, before anything is allocated, a graph of more than EDGE_BUDGET edges."""
    if count > EDGE_BUDGET:
        raise ResourceBudgetError(f"{what} would have {count} edges, the limit is {EDGE_BUDGET}")


def check_vertex_budget(n: int, what: str) -> None:
    """Refuse, before anything is built, a cover check or a graph of unbounded
    width over more than VERIFY_MAX_N vertices."""
    if n > VERIFY_MAX_N:
        raise ResourceBudgetError(f"{what} has {n} vertices, the check's limit is {VERIFY_MAX_N}")


def check_cover_budget(entries: int, what: str) -> None:
    """Refuse, before any member is built, a cover of more than COVER_ENTRY_BUDGET
    intervals (members times vertices)."""
    if entries > COVER_ENTRY_BUDGET:
        raise ResourceBudgetError(
            f"{what} would have {entries} intervals, the limit is {COVER_ENTRY_BUDGET}"
        )


def join_edge_count(g: Graph, parts: list[Graph]) -> int:
    """Edges of the generalized join: the parts' own plus n_i * n_j per edge ij of g."""
    return sum(p.num_edges for p in parts) + sum(parts[i].n * parts[j].n for i, j in pairs(g.adj))


def generalized_join(g: Graph, parts: list[Graph]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Replace vertex i of g by parts[i]; join blocks i, j completely when ij is an edge.

    Blocks occupy consecutive vertex ranges in part order. Returns
    (join graph, blocks) where blocks[i] lists the new ids of part i.
    """
    if len(parts) != g.n:
        raise InputError(f"need {g.n} parts, got {len(parts)}")
    check_edge_budget(join_edge_count(g, parts), "the join")
    offsets, block_masks, total = [], [], 0
    for p in parts:
        offsets.append(total)
        block_masks.append((1 << p.n) - 1 << total)
        total += p.n
    adj: list[int] = []
    for i, p in enumerate(parts):
        joined = 0
        for j in bits(g.adj[i]):
            joined |= block_masks[j]
        adj.extend(joined | nbrs << offsets[i] for nbrs in p.adj)
    blocks = tuple(
        tuple(range(offsets[i], offsets[i] + parts[i].n)) for i in range(g.n)
    )
    return Graph.from_adj(adj), blocks


def reduced_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Quotient by the equal-open-neighborhood relation, with its classes.

    Returns (quotient, blocks): blocks[c] lists the members of class c in
    increasing order, and the classes are ordered by their smallest member,
    so together they partition 0..n-1. The class of x and the class of y
    are adjacent exactly when x and y are adjacent.
    """
    by_nbhd: dict[int, list[int]] = {}
    for v, nbhd in enumerate(g.adj):
        by_nbhd.setdefault(nbhd, []).append(v)
    blocks = tuple(map(tuple, by_nbhd.values()))
    quotient, _ = induced_subgraph(g, [blk[0] for blk in blocks])
    return quotient, blocks


def is_clique(g: Graph, vertices) -> bool:
    mask = _vertex_mask(g, vertices)
    return all((g.adj[v] | 1 << v) & mask == mask for v in bits(mask))


def edge_intersection(graphs: list[Graph]) -> Graph:
    """Graph whose edges appear in every input; inputs must share a vertex count."""
    if not graphs:
        raise InputError("need at least one graph")
    n = graphs[0].n
    for h in graphs:
        if h.n != n:
            raise InputError(f"vertex count mismatch: {h.n} != {n}")
    return Graph.from_adj([reduce(and_, nbrs) for nbrs in zip(*(h.adj for h in graphs))])


# ---------------------------------------------------------------------------
# serialization: JSON object {"n": int, "edges": [[u, v], ...]}, which
# round-trips bit-exactly through the writer here.


def graph_to_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.sorted_edges()]}


def graph_to_json(g: Graph) -> str:
    """Exactly `json.dumps(graph_to_obj(g), separators=(",", ":"))`."""
    return edges_to_json(g.n, g.sorted_edges())


def edges_to_json(n: int, edges) -> str:
    """The compact JSON graph object on 0..n-1 with `edges`, (u, v) pairs in the order given."""
    return '{"n":%d,"edges":[%s]}' % (n, ",".join(["[%d,%d]" % e for e in edges]))


def int_from_obj(x) -> int:
    """A JSON integer as written: bools, floats and strings are refused, never rounded."""
    if type(x) is not int:
        raise InputError(f"expected an integer, got {x!r}")
    return x


def graph_from_obj(obj: dict) -> Graph:
    try:
        n = int_from_obj(obj["n"])
        check_vertex_budget(n, "the graph")
        edges = [(int_from_obj(u), int_from_obj(v)) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph object: {exc}") from exc
    return make_graph(n, edges)
