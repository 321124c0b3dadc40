"""Immutable simple graphs on dense 0-based vertices.

Everything downstream (interval covers, join constructions, divisor graphs)
is built from the values here. Operations are pure; anything that relabels
vertices returns the relabeling explicitly, because silent relabeling is the
main source of bugs in cover constructions. Adjacency has one form, the int
bitsets of `Graph.adj`, which every module reads through mask arithmetic and
`bits`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph; edges stored once as (u, v) with u < v."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbourhoods as int bitsets: bit w of adj[v] is set exactly when vw is an edge."""
        nbrs = [0] * self.n
        for u, v in self.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return tuple(nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def non_edges(self) -> list[Edge]:
        return [e for e in combinations(range(self.n), 2) if e not in self.edges]

    def is_complete(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return not self.edges

    def components_within(self, within: int) -> list[int]:
        """Vertex masks of the components of the subgraph induced by the mask
        `within`, ordered by their lowest vertex."""
        comps: list[int] = []
        while within:
            comp = frontier = within & -within
            while frontier:
                reach = 0
                for v in bits(frontier):
                    reach |= self.adj[v]
                frontier = reach & within & ~comp
                comp |= frontier
            comps.append(comp)
            within &= ~comp
        return comps

    def connected_components(self) -> list[list[int]]:
        return [list(bits(c)) for c in self.components_within((1 << self.n) - 1)]

    def __repr__(self) -> str:  # compact, deterministic; the default is noisy
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def make_graph(n: int, edges) -> Graph:
    """Canonical graph value; duplicate pairs collapse, loops are rejected."""
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    canon: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        canon.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(canon))


def complete_graph(n: int) -> Graph:
    return make_graph(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return make_graph(n, ())


def path_graph(n: int) -> Graph:
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes: list[int]) -> Graph:
    """Complete multipartite graph; blocks are consecutive vertex ranges."""
    offsets, total = [], 0
    for s in sizes:
        if s <= 0:
            raise InputError("block sizes must be positive")
        offsets.append(total)
        total += s
    edges = []
    for i, si in enumerate(sizes):
        for j in range(i + 1, len(sizes)):
            for u in range(offsets[i], offsets[i] + si):
                for v in range(offsets[j], offsets[j] + sizes[j]):
                    edges.append((u, v))
    return make_graph(total, edges)


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint non-empty blocks whose union is 0..n-1."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)


def make_partition(n: int, blocks) -> VertexPartition:
    tup = tuple(tuple(sorted(b)) for b in blocks)
    seen: set[int] = set()
    for blk in tup:
        if not blk:
            raise InputError("empty block")
        for v in blk:
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range")
            if v in seen:
                raise InputError(f"vertex {v} in two blocks")
            seen.add(v)
    if len(seen) != n:
        raise InputError("blocks do not cover all vertices")
    return VertexPartition(n, tup)


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
        return all(self.colors[u] != self.colors[v] for u, v in g.edges)


# ---------------------------------------------------------------------------
# constructions


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertices`, relabeled to 0..|S|-1.

    Returns (subgraph, map) where map[new_index] = original vertex.
    """
    sub = sorted(set(vertices))
    for v in sub:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(sub)}
    edges = [
        (index[u], index[v])
        for u, v in combinations(sub, 2)
        if g.has_edge(u, v)
    ]
    return make_graph(len(sub), edges), tuple(sub)


EDGE_BUDGET = 200_000  # a circular clique this size builds and verifies its cover in about 1 s
VERIFY_MAX_N = 20_000  # the cover check keeps n^2/8 bytes of prefix bitsets per member


def check_edge_budget(count: int, what: str) -> None:
    """Refuse, before anything is allocated, a graph of more than EDGE_BUDGET edges."""
    if count > EDGE_BUDGET:
        raise ResourceBudgetError(f"{what} would have {count} edges, the limit is {EDGE_BUDGET}")


def check_vertex_budget(n: int, what: str) -> None:
    """Refuse, before anything is built, a cover check over more than VERIFY_MAX_N vertices."""
    if n > VERIFY_MAX_N:
        raise ResourceBudgetError(f"{what} has {n} vertices, the check's limit is {VERIFY_MAX_N}")


def join_edge_count(g: Graph, parts: list[Graph]) -> int:
    """Edges of the generalized join: the parts' own plus n_i * n_j per edge ij of g."""
    return sum(p.num_edges for p in parts) + sum(parts[i].n * parts[j].n for i, j in g.edges)


def generalized_join(g: Graph, parts: list[Graph]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Replace vertex i of g by parts[i]; join blocks i, j completely when ij is an edge.

    Blocks occupy consecutive vertex ranges in part order. Returns
    (join graph, blocks) where blocks[i] lists the new ids of part i.
    """
    if len(parts) != g.n:
        raise InputError(f"need {g.n} parts, got {len(parts)}")
    check_edge_budget(join_edge_count(g, parts), "the join")
    offsets, total = [], 0
    for p in parts:
        offsets.append(total)
        total += p.n
    edges: list[Edge] = []
    for i, p in enumerate(parts):
        off = offsets[i]
        edges.extend((off + u, off + v) for u, v in p.edges)
    for i, j in g.edges:
        for u in range(offsets[i], offsets[i] + parts[i].n):
            for v in range(offsets[j], offsets[j] + parts[j].n):
                edges.append((u, v))
    blocks = tuple(
        tuple(range(offsets[i], offsets[i] + parts[i].n)) for i in range(g.n)
    )
    return make_graph(total, edges), blocks


def reduced_graph(g: Graph) -> tuple[Graph, VertexPartition]:
    """Quotient by the equal-open-neighborhood relation.

    Classes are ordered by their smallest member; the class of x and the
    class of y are adjacent exactly when x and y are adjacent.
    """
    by_nbhd: dict[int, list[int]] = {}
    for v, nbhd in enumerate(g.adj):
        by_nbhd.setdefault(nbhd, []).append(v)
    part = make_partition(g.n, by_nbhd.values())
    class_of = {nbhd: i for i, nbhd in enumerate(by_nbhd)}
    edges = [(i, class_of[g.adj[w]]) for i, nbhd in enumerate(by_nbhd) for w in bits(nbhd)]
    return make_graph(len(part.blocks), edges), part


def is_clique(g: Graph, vertices) -> bool:
    vs = list(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_independent(g: Graph, vertices) -> bool:
    vs = list(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    return not any(g.has_edge(u, v) for u, v in combinations(vs, 2))


def edge_intersection(graphs: list[Graph]) -> Graph:
    """Graph whose edges appear in every input; inputs must share a vertex count."""
    if not graphs:
        raise InputError("need at least one graph")
    n = graphs[0].n
    for h in graphs:
        if h.n != n:
            raise InputError(f"vertex count mismatch: {h.n} != {n}")
    common = frozenset.intersection(*(h.edges for h in graphs))
    return Graph(n, common)


# ---------------------------------------------------------------------------
# serialization: JSON object {"n": int, "edges": [[u, v], ...]}, which
# round-trips bit-exactly through the writer here.


def graph_to_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.sorted_edges()]}


def graph_to_json(g: Graph, pad: str = "\n") -> str:
    """Exactly `json.dumps(graph_to_obj(g), indent=2)` when `pad` is "\n".

    `pad` is the newline and indentation of the object's own level, so the
    text can stand as a value inside a larger indented document.
    """
    i1, i2, i3 = (pad + "  " * k for k in (1, 2, 3))
    edge = "[" + i3 + "%d," + i3 + "%d" + i2 + "]"
    edges = ("," + i2).join([edge % e for e in g.sorted_edges()])
    return (
        "{" + i1 + '"n": %d,' % g.n + i1 + '"edges": '
        + ("[" + i2 + edges + i1 + "]" if edges else "[]")
        + pad + "}"
    )


def int_from_obj(x) -> int:
    """A JSON integer as written: bools, floats and strings are refused, never rounded."""
    if type(x) is not int:
        raise InputError(f"expected an integer, got {x!r}")
    return x


def graph_from_obj(obj: dict) -> Graph:
    try:
        n = int_from_obj(obj["n"])
        edges = [(int_from_obj(u), int_from_obj(v)) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph object: {exc}") from exc
    return make_graph(n, edges)
