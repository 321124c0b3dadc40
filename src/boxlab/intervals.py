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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionDefectError, InputError
from .graphs import Graph, edge_intersection, graph_from_obj, graph_to_obj, int_from_obj, make_graph

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalRep:
    """Closed interval per vertex, indexed 0..n-1."""

    intervals: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


def make_rep(intervals) -> IntervalRep:
    """Build a representation from (lo, hi) pairs (sequence or vertex-keyed dict)."""
    if isinstance(intervals, dict):
        if set(intervals) != set(range(len(intervals))):
            raise InputError("interval dict must be keyed by 0..n-1")
        pairs = [intervals[v] for v in range(len(intervals))]
    else:
        pairs = list(intervals)
    out: list[Interval] = []
    for lo, hi in pairs:
        flo, fhi = Fraction(lo), Fraction(hi)
        if flo > fhi:
            raise InputError(f"empty interval [{flo}, {fhi}]")
        out.append((flo, fhi))
    return IntervalRep(tuple(out))


def point(x) -> Interval:
    f = Fraction(x)
    return (f, f)


def graph_of_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the representation (closed-interval semantics)."""
    n = rep.n
    iv = rep.intervals
    order = sorted(range(n), key=lambda v: iv[v][0])
    edges = []
    for a in range(n):
        u = order[a]
        lo_u, hi_u = iv[u]
        for b in range(a + 1, n):
            v = order[b]
            if iv[v][0] > hi_u:
                break  # sorted by lo: no later vertex can reach back
            edges.append((u, v) if u < v else (v, u))
    return make_graph(n, edges)


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
    problems: list[CoverViolation] = []
    realized: list[Graph] = []
    for i, rep in enumerate(cover.reps):
        if rep.n != claimed.n:
            problems.append(CoverViolation("size-mismatch", i, None))
            continue
        h = graph_of_intervals(rep)
        realized.append(h)
        for e in sorted(claimed.edges - h.edges):
            problems.append(CoverViolation("missing-edge", i, e))
    if realized and not problems:
        meet = edge_intersection(realized)
        for e in sorted(meet.edges - claimed.edges):
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
# decimal strings in increasing numeric order so emissions are stable.


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
            pairs[int(key)] = (_frac_from_obj(lo), _frac_from_obj(hi))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed interval representation: {exc}") from exc
    if set(pairs) != set(range(n)):
        raise InputError("interval keys must be exactly 0..n-1")
    return make_rep([pairs[v] for v in range(n)])


def cover_to_obj(cover: IntervalCover) -> dict:
    return {
        "graph": graph_to_obj(cover.claimed_graph),
        "reps": [rep_to_obj(r) for r in cover.reps],
    }


def cover_from_obj(obj: dict) -> IntervalCover:
    try:
        claimed = graph_from_obj(obj["graph"])
        reps = [rep_from_obj(r) for r in obj["reps"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover object: {exc}") from exc
    return make_cover(claimed, reps)
