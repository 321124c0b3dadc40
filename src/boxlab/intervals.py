"""Exact interval representations and intersection covers.

Endpoints are exact, never floats: an integral endpoint is an `int` and any
other a `Fraction`. The constructions put most vertices on integers and
place the rest strictly inside open unit gaps, and exact comparison keeps
every intersection test decidable. Intervals are closed; touching
endpoints count as intersecting.

A cover is a list of representations over one vertex set together with the
graph it claims to certify: it is valid when every realized graph is a
spanning supergraph of the claim and their edge intersection equals the
claim exactly. `verify_cover` checks that from scratch; the cover
constructions leave through `verified_cover`, which checks once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import ConstructionDefectError, InputError
from .graphs import Graph, graph_from_obj, graph_to_json, graph_to_obj, int_from_obj, pairs

# an int when integral, a Fraction otherwise (`exact`); the two compare and
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
    ends = [f for pair in rep.intervals for f in pair]
    den = 1
    for d in {f.denominator for f in ends}:
        den = math.lcm(den, d)
        if den.bit_length() > 64:
            break  # the Fractions themselves are the keys
    else:
        if den > 1:  # ints over the common denominator keep order and ties
            ends = [f.numerator * (den // f.denominator) for f in ends]
    return ends_adjacency(ends[::2], ends[1::2])


def graph_of_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the representation (closed-interval semantics)."""
    return Graph.from_adj(interval_adjacency(rep))


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


def cover_to_json(cover: IntervalCover, pad: str = "\n") -> str:
    """Exactly `json.dumps(cover_to_obj(cover), indent=2)` when `pad` is "\n".

    `pad` is as in `graph_to_json`. The text is filled from one template per
    vertex straight from the endpoints, with no intermediate dict: with
    `indent` set the stdlib encoder runs in pure Python, one call per value.
    """
    i1, i2, i3, i4, i5, i6 = (pad + "  " * k for k in range(1, 7))
    end = "[" + i6 + "%d," + i6 + "%d" + i5 + "]"
    vertex = '"%d": [' + i5 + end + "," + i5 + end + i4 + "]"
    reps = []
    for rep in cover.reps:
        body = ("," + i4).join(
            [
                vertex % (v, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                for v, (lo, hi) in enumerate(rep.intervals)
            ]
        )
        reps.append(
            "{" + i3 + '"n": %d,' % rep.n + i3 + '"intervals": '
            + ("{" + i4 + body + i3 + "}" if body else "{}")
            + i2 + "}"
        )
    return (
        "{" + i1 + '"graph": ' + graph_to_json(cover.claimed_graph, i1) + ","
        + i1 + '"reps": ' + ("[" + i2 + ("," + i2).join(reps) + i1 + "]" if reps else "[]")
        + pad + "}"
    )


def cover_from_obj(obj: dict) -> IntervalCover:
    try:
        claimed = graph_from_obj(obj["graph"])
        reps = [rep_from_obj(r) for r in obj["reps"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover object: {exc}") from exc
    return make_cover(claimed, reps)
