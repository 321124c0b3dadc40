"""Exact interval representations and intersection covers.

Endpoints are rationals, never floats: the constructions place points
strictly inside open unit gaps, and exact arithmetic keeps every
intersection test decidable. Intervals are closed; touching endpoints
count as intersecting.

A cover is a list of representations over one vertex set together with the
graph it claims to certify: it is valid when every realized graph is a
spanning supergraph of the claim and their edge intersection equals the
claim exactly. `verify_cover` checks that from scratch; the cover
constructions leave through `verified_cover`, which checks once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionDefectError, InputError
from .graphs import Graph, graph_from_obj, graph_to_json, graph_to_obj, int_from_obj

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalRep:
    """Closed interval per vertex, indexed 0..n-1."""

    intervals: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


def make_rep(intervals) -> IntervalRep:
    """Build a representation from (lo, hi) pairs, one per vertex in order."""
    out: list[Interval] = []
    for lo, hi in intervals:
        flo, fhi = Fraction(lo), Fraction(hi)
        if flo > fhi:
            raise InputError(f"empty interval [{flo}, {fhi}]")
        out.append((flo, fhi))
    return IntervalRep(tuple(out))


def point(x) -> Interval:
    f = Fraction(x)
    return (f, f)


def interval_adjacency(rep: IntervalRep) -> list[int]:
    """Neighbourhood of each vertex as an int bitset (closed intervals, exact).

    v meets the u with lo_u <= hi_v and hi_u >= lo_v: one AND of two prefixes.
    """
    ends = [f for pair in rep.intervals for f in pair]
    den = 1
    for d in {f.denominator for f in ends}:
        den = math.lcm(den, d)
        if den.bit_length() > 64:
            break  # the Fractions themselves are the keys
    else:  # ints over the common denominator keep order and ties
        ends = [f.numerator * (den // f.denominator) for f in ends]
    lo, hi = ends[::2], ends[1::2]
    by_lo = sorted(range(rep.n), key=lo.__getitem__)
    by_hi = sorted(range(rep.n), key=hi.__getitem__, reverse=True)
    lo_sorted = [lo[v] for v in by_lo]
    neg_hi_sorted = [-hi[v] for v in by_hi]
    pre_lo, pre_hi = [0], [0]
    for a, b in zip(by_lo, by_hi):
        pre_lo.append(pre_lo[-1] | 1 << a)
        pre_hi.append(pre_hi[-1] | 1 << b)
    return [
        pre_lo[bisect_right(lo_sorted, hi[v])]
        & pre_hi[bisect_right(neg_hi_sorted, -lo[v])]
        & ~(1 << v)
        for v in range(rep.n)
    ]


def _pairs(adj):
    """The (u, v) with u < v and bit v set in adj[u], in increasing order."""
    for u, m in enumerate(adj):
        m &= -2 << u  # only the v > u
        while m:
            yield u, (m & -m).bit_length() - 1
            m &= m - 1


def graph_of_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the representation (closed-interval semantics)."""
    return Graph(rep.n, frozenset(_pairs(interval_adjacency(rep))))


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


def verify_cover(cover: IntervalCover) -> tuple[bool, list[CoverViolation]]:
    """Check the cover from scratch; failures are reported, never raised."""
    claimed = cover.claimed_graph
    g = [sum(1 << w for w in nbrs) for nbrs in claimed.adj]
    problems: list[CoverViolation] = []
    meet = None
    for i, rep in enumerate(cover.reps):
        if rep.n != claimed.n:
            problems.append(CoverViolation("size-mismatch", i, None))
            continue
        h = interval_adjacency(rep)
        for e in _pairs(a & ~b for a, b in zip(g, h)):
            problems.append(CoverViolation("missing-edge", i, e))
        meet = h if meet is None else [a & b for a, b in zip(meet, h)]
    if meet is not None and not problems:
        for e in _pairs(a & ~b for a, b in zip(meet, g)):
            problems.append(CoverViolation("uncovered-non-edge", None, e))
    return not problems, problems


def verified_cover(claimed: Graph, reps, what: str) -> IntervalCover:
    """Cover of `claimed` by `reps`, verified once; a failure is a construction defect."""
    cover = make_cover(claimed, reps)
    ok, problems = verify_cover(cover)
    if not ok:
        raise ConstructionDefectError(f"{what} failed verification", problems[0])
    return cover


# ---------------------------------------------------------------------------
# serialization: rationals as [numerator, denominator]; vertex keys are
# decimal strings in increasing numeric order so emissions are stable, and
# a key is read only in that canonical form, so no two keys name one vertex.


def _frac_to_obj(f: Fraction) -> list[int]:
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
        pairs = {}
        for key, (lo, hi) in raw.items():
            v = int(key)
            if str(v) != key:
                raise InputError(f"vertex key {key!r} is not written as {str(v)!r}")
            pairs[v] = (_frac_from_obj(lo), _frac_from_obj(hi))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed interval representation: {exc}") from exc
    # the length test first: a claimed n alone must not size the key set
    if len(pairs) != n or set(pairs) != set(range(n)):
        raise InputError("interval keys must be exactly 0..n-1")
    return make_rep([pairs[v] for v in range(n)])


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
