"""Named mutants of `src/boxlab`, each with the tests that must fail on it.

A mutant is one exact text, which must occur once in its file, and its
replacement. Nothing here imports boxlab or a test framework:

    python tests/mutants.py [name ...]

runs every mutant, or only the named ones, one at a time. For each it
copies `src/` and `tests/` to a temporary directory, applies the mutant
there and runs `python -m pytest -q -x` on its test ids, with the copy's
`src` first on the path and a fixed hypothesis seed. The mutant is killed
when those tests fail, survived when they pass, and stale when its text
does not occur exactly once; any other pytest exit (a test id that names
nothing, say) is an error. It prints one line per mutant and exits 1
unless every mutant is killed. A refactor that removes a mutant's text has
to re-aim the mutant or drop it.

`tests/test_mutants.py` checks the table's format under Tier-1; the runner
itself stays out of it, as every mutant pays pytest's start-up cost.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


CIRCULAR = "src/boxlab/circular.py"
LEMMA = "tests/test_circular.py::test_each_member_misses_exactly_its_window_pairs"
SWEEP = "tests/test_circular.py::test_chi_cover_small_sweep"
RECOGNITION = "src/boxlab/recognition.py"
ELIMINATION = ("tests/test_recognition.py::test_elimination_matches_reverse_walk",
               "tests/test_recognition.py::test_elimination_matches_reverse_walk_on_random_graphs")

MUTANTS = (
    # the stepped member's window point one step right: vertex 0 then meets
    # the points at d + 1, so the members meet in more than the clique
    Mutant("window-point-right", CIRCULAR,
           "intervals[i] = point(d - i)", "intervals[i] = point(d - i + 1)", (LEMMA, SWEEP)),
    # the ramp tops at d, so d + i loses the points at d + 1: only edges that
    # are non-edges of the clique go, and `verify_cover` still accepts the
    # cover; the exact kill sets do not
    Mutant("ramp-top-at-d", CIRCULAR,
           "intervals[d + i] = (d - i, d + 1)", "intervals[d + i] = (d - i, d)", (LEMMA,)),
    Mutant("rotation-off-by-two", CIRCULAR,
           "rotate_rep(full, i * d)", "rotate_rep(full, i * (d + 2))", (LEMMA, SWEEP)),
    # a queued clique's vertices read in reverse
    Mutant("clique-queue-reversed", RECOGNITION,
           "for x in cliques[c]:", "for x in reversed(cliques[c]):",
           ("tests/test_recognition.py::test_clique_order_matches_parent_queue",)),
    # an asteroidal triple accepted on two of its three paths
    Mutant("at-two-paths", RECOGNITION,
           "for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):",
           "for a, b, c in ((x, y, z), (y, z, x)):",
           ("tests/test_recognition.py::test_at_paths_match_the_definition_on_atlas",)),
    Mutant("omega-chi-without-is-proper", "src/boxlab/zdg.py",
           "if not coloring.is_proper(c.graph):", "if False:",
           ("tests/test_zdg.py::test_omega_chi_certificate_refuses_a_coloring_that_merges_adjacent_classes",)),
    # member regions that touch, so two members' parts meet
    Mutant("region-gap-zero", "src/boxlab/intervals.py",
           "cursor += max(hi for _, hi in rep.intervals) - lo_min + 1",
           "cursor += max(hi for _, hi in rep.intervals) - lo_min",
           ("tests/test_integer_coordinates.py::test_box_layout_is_the_component_loop",
            "tests/test_integer_coordinates.py::test_join_members_keep_their_graphs")),
    # low-weight points from j = 0: the first lands on a nested interval's end
    Mutant("threshold-points-from-zero", "src/boxlab/zdg.py",
           "range(gap + 1, gap + s + 1)", "range(gap, gap + s)",
           ("tests/test_integer_coordinates.py::test_threshold_points_sit_inside_open_gaps",)),
    # of the checks that miss w, the one whose p Lex-BFS visited first
    Mutant("failure-tie-break-sign", RECOGNITION, "-rank[p]", "rank[p]", ELIMINATION),
    # a cell wholly inside N(v) keeps its old parent, not v
    Mutant("whole-cell-keeps-parent", RECOGNITION, "parents[i] = v", "pass",
           ("tests/test_recognition.py::test_lex_bfs_matches_list_label_oracle", *ELIMINATION)),
    # two-clique classes are never split by a pivot
    Mutant("one-clique-guard-two", RECOGNITION,
           "if end[k] - start[k] > 1:", "if end[k] - start[k] > 2:",
           ("tests/test_recognition.py::test_clique_order_matches_parent_queue",)),
    # the compression check without a complete class's own row
    Mutant("expand-without-own-class", "src/boxlab/zdg.py",
           " | (masks[i] if c.complete[i] else 0)", "",
           ("tests/test_zdg.py::test_expand_matches_direct",)),
    # the AT search labels components over all of g, not inside `within`
    Mutant("at-search-whole-graph", RECOGNITION,
           "within & ~(g.adj[z] | 1 << z)", "(1 << g.n) - 1 & ~(g.adj[z] | 1 << z)",
           ("tests/test_recognition.py::test_at_search_labels_only_the_component_of_the_triple",)),
    # a circular clique checked against the edge budget alone
    Mutant("circular-budget-without-vertices", CIRCULAR,
           'check_vertex_budget(k, f"the circular clique (k={k}, d={d})")', "None",
           ("tests/test_cli.py::test_circular_cover_over_the_vertex_budget_exits_3_before_building",)),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's text occurs in its file; a live mutant has 1."""
    path = ROOT / mutant.file
    return path.read_text().count(mutant.text) if path.exists() else 0


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error' for one mutant."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = work / mutant.file
        path.write_text(path.read_text().replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(work / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    started = time.monotonic()
    verdicts = []
    for mutant in chosen:
        t0 = time.monotonic()
        verdict = run_mutant(mutant)
        verdicts.append(verdict)
        print(f"{verdict:<9}{mutant.name:<34}{time.monotonic() - t0:6.1f} s")
    counts = ", ".join(f"{verdicts.count(v)} {v}" for v in ("killed", "survived", "stale", "error"))
    print(f"{len(chosen)} mutants: {counts} in {time.monotonic() - started:.1f} s")
    return 0 if verdicts.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
