"""Exact interval representations and intersection covers.

Endpoints are exact, never floats. Every construction writes integer
endpoints; the reader turns each `[numerator, denominator]` pair into an
`int` when it is integral and a `Fraction` otherwise, and exact comparison
keeps every intersection test decidable. Intervals are closed; touching
endpoints count as intersecting.

`region_rep` is the one layout of parts on the line: the join lift places
one member of one part with it, and the exact oracle places the witness
reps of a graph's components.

A cover is a list of representations over one vertex set together with the
graph it claims to certify: it is valid when every realized graph is a
spanning supergraph of the claim and their edge intersection equals the
claim exactly. `verify_cover` checks that from scratch; the cover
constructions leave through `verified_cover`, which checks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import ConstructionDefectError, InputError
from .graphs import Graph, graph_from_obj, graph_to_json, graph_to_obj, int_from_obj, pairs

# an int, or a Fraction read from a file (`exact`); the two compare and
# hash alike, so Fraction(2) and 2 are one endpoint
Endpoint = int | Fraction
Interval = tuple[Endpoint, Endpoint]


@dataclass(frozen=True)
class IntervalRep:
    """Closed interval per vertex, indexed 0..n-1."""

    intervals: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


def exact(x: Endpoint) -> Endpoint:
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def make_rep(intervals) -> IntervalRep:
    """Build a representation from (lo, hi) pairs, one per vertex in order."""
    out: list[Interval] = []
    for lo, hi in intervals:
        flo, fhi = exact(Fraction(lo)), exact(Fraction(hi))
        if flo > fhi:
            raise InputError(f"empty interval [{flo}, {fhi}]")
        out.append((flo, fhi))
    return IntervalRep(tuple(out))


def point(x: Endpoint) -> Interval:
    return (x, x)


def ends_adjacency(lo, hi) -> tuple[int, ...]:
    """Neighbourhood of each vertex as an int bitset, in the form of `Graph.adj`,
    for the closed intervals [lo[v], hi[v]] given by two lists of endpoints
    that compare exactly (ints or Fractions).

    v meets the u with lo_u <= hi_v and hi_u >= lo_v: one AND of two
    prefixes, indexed by the rank of each distinct endpoint after one sort.
    A rank that starts (ends) no interval shares the prefix beside it, so at
    most n + 1 of each kind are distinct.
    """
    rank = {x: i for i, x in enumerate(sorted({*lo, *hi}))}
    lo, hi = [rank[x] for x in lo], [rank[x] for x in hi]
    starts, stops = [0] * len(rank), [0] * len(rank)
    for v, (a, b) in enumerate(zip(lo, hi)):
        bit = 1 << v
        starts[a] |= bit
        stops[b] |= bit
    # starts[i]: the vertices with lo rank <= i; stops[i]: those with hi rank >= i
    acc = 0
    for i, s in enumerate(starts):
        if s:
            acc |= s
        starts[i] = acc
    acc = 0
    for i in range(len(stops) - 1, -1, -1):
        s = stops[i]
        if s:
            acc |= s
        stops[i] = acc
    return tuple([starts[b] & stops[a] & ~(1 << v) for v, (a, b) in enumerate(zip(lo, hi))])


def interval_adjacency(rep: IntervalRep) -> tuple[int, ...]:
    """`ends_adjacency` of the representation (closed intervals, exact)."""
    return ends_adjacency([lo for lo, _ in rep.intervals], [hi for _, hi in rep.intervals])


def graph_of_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the representation (closed-interval semantics)."""
    return Graph.from_adj(interval_adjacency(rep))


def region_rep(outer: Graph, blocks, members) -> IntervalRep:
    """The parts of a join over `outer` side by side on the line.

    blocks[i] lists the target vertex of each vertex of part i, in order;
    the blocks must partition 0..t-1, and the rep is over those t labels.
    Each part i in `members` keeps the rep members[i], shifted onto a
    region of its own; the regions run left to right by part index from 0,
    one apart. With P one past the last region, any other part spans
    [start of its first neighbour's region, P], or [P, P + 1] when no part
    in `members` is its neighbour. Member parts never meet each other, so
    the rep holds the join only when they are pairwise non-adjacent in
    `outer`; nothing is checked here.
    """
    intervals: list = [None] * sum(map(len, blocks))
    start: dict[int, int] = {}
    cursor = 0
    for i, blk in enumerate(blocks):
        rep = members.get(i)
        if rep is None:
            continue
        lo_min = min(lo for lo, _ in rep.intervals)
        shift = cursor - lo_min
        for v, (lo, hi) in zip(blk, rep.intervals):
            intervals[v] = (lo + shift, hi + shift)
        start[i] = cursor
        cursor += max(hi for _, hi in rep.intervals) - lo_min + 1
    placed = sum(1 << i for i in start)
    for i, blk in enumerate(blocks):
        if i not in start:
            near = outer.adj[i] & placed
            span = (start[(near & -near).bit_length() - 1], cursor) if near else (cursor, cursor + 1)
            for v in blk:
                intervals[v] = span
    return IntervalRep(tuple(intervals))


@dataclass(frozen=True)
class IntervalCover:
    """Representations whose realized graphs should intersect to claimed_graph."""

    claimed_graph: Graph
    reps: tuple[IntervalRep, ...]

    def __len__(self) -> int:
        return len(self.reps)


def make_cover(claimed: Graph, reps) -> IntervalCover:
    reps = tuple(reps)
    if not reps:
        raise InputError("cover needs at least one representation")
    return IntervalCover(claimed, reps)


@dataclass(frozen=True)
class CoverViolation:
    kind: str  # "size-mismatch" | "missing-edge" | "uncovered-non-edge"
    rep_index: int | None
    pair: tuple[int, int] | None

    def __str__(self) -> str:
        where = "intersection" if self.rep_index is None else f"rep {self.rep_index}"
        return f"{self.kind} at {where}: {self.pair}"


# a verdict needs one violation; a list of n^2/2 would cost far more than the check
VIOLATION_LIMIT = 1000


def verify_cover(cover: IntervalCover) -> tuple[bool, list[CoverViolation]]:
    """Check the cover from scratch; failures are reported, never raised.

    At most VIOLATION_LIMIT violations are listed, the first in the order
    they are found; the verdict does not depend on the limit.
    """
    claimed = cover.claimed_graph
    problems: list[CoverViolation] = []
    meet = None
    for i, rep in enumerate(cover.reps):
        if rep.n != claimed.n:
            problems.append(CoverViolation("size-mismatch", i, None))
            continue
        h = interval_adjacency(rep)
        missing = [a & ~b for a, b in zip(claimed.adj, h)]
        if any(missing):
            room = max(0, VIOLATION_LIMIT - len(problems))
            problems += [CoverViolation("missing-edge", i, e) for e in islice(pairs(missing), room)]
        meet = h if meet is None else [a & b for a, b in zip(meet, h)]
    if meet is not None and not problems:
        extra = [a & ~b for a, b in zip(meet, claimed.adj)]
        if any(extra):
            extra = islice(pairs(extra), VIOLATION_LIMIT)
            problems += [CoverViolation("uncovered-non-edge", None, e) for e in extra]
    return not problems, problems[:VIOLATION_LIMIT]


def verified_cover(claimed: Graph, reps, what: str) -> IntervalCover:
    """Cover of `claimed` by `reps`, verified once; a failure is a construction defect."""
    cover = make_cover(claimed, reps)
    ok, problems = verify_cover(cover)
    if not ok:
        raise ConstructionDefectError(f"{what} failed verification", problems[0])
    return cover


# ---------------------------------------------------------------------------
# serialization: endpoints as [numerator, denominator], an int x as [x, 1];
# vertex keys are decimal strings in increasing numeric order so emissions
# are stable, and a key is read only in that canonical form, so no two keys
# name one vertex.


def _frac_to_obj(f: Endpoint) -> list[int]:
    return [f.numerator, f.denominator]


def _frac_from_obj(obj) -> Fraction:
    num, den = obj
    return Fraction(int_from_obj(num), int_from_obj(den))


def rep_to_obj(rep: IntervalRep) -> dict:
    return {
        "n": rep.n,
        "intervals": {
            str(v): [_frac_to_obj(lo), _frac_to_obj(hi)]
            for v, (lo, hi) in enumerate(rep.intervals)
        },
    }


def rep_from_obj(obj: dict) -> IntervalRep:
    try:
        n = int_from_obj(obj["n"])
        raw = obj["intervals"]
        if not isinstance(raw, dict):
            raise InputError(f"intervals must be an object keyed by vertex, got {raw!r}")
        spans = {}
        for key, (lo, hi) in raw.items():
            v = int(key)
            if str(v) != key:
                raise InputError(f"vertex key {key!r} is not written as {str(v)!r}")
            spans[v] = (_frac_from_obj(lo), _frac_from_obj(hi))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed interval representation: {exc}") from exc
    # the length test first: a claimed n alone must not size the key set
    if len(spans) != n or set(spans) != set(range(n)):
        raise InputError("interval keys must be exactly 0..n-1")
    return make_rep([spans[v] for v in range(n)])


def cover_to_obj(cover: IntervalCover) -> dict:
    return {
        "graph": graph_to_obj(cover.claimed_graph),
        "reps": [rep_to_obj(r) for r in cover.reps],
    }


def cover_to_json(cover: IntervalCover) -> str:
    """Exactly `json.dumps(cover_to_obj(cover), separators=(",", ":"))`.

    The text is filled from one template per vertex straight from the
    endpoints, with no intermediate dict, which is faster than
    `cover_to_obj` through the stdlib encoder.
    """
    reps = [
        '{"n":%d,"intervals":{%s}}' % (rep.n, ",".join([
            '"%d":[[%d,%d],[%d,%d]]' % (v, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            for v, (lo, hi) in enumerate(rep.intervals)
        ]))
        for rep in cover.reps
    ]
    return '{"graph":%s,"reps":[%s]}' % (graph_to_json(cover.claimed_graph), ",".join(reps))


def cover_from_obj(obj: dict) -> IntervalCover:
    try:
        claimed = graph_from_obj(obj["graph"])
        reps = [rep_from_obj(r) for r in obj["reps"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover object: {exc}") from exc
    return make_cover(claimed, reps)
