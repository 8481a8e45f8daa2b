"""Mutation check: each listed one-line mutant of src must fail tier-1.

    python3 tests/mutate.py            # every mutant
    python3 tests/mutate.py NAME ...   # the named ones
    python3 tests/mutate.py --list

pytest does not collect this file: it collects only test_*.py. Each mutant
is a file under src/tumornet, an exact old string found there once, the new
string that replaces it, and one line on what it breaks. For each mutant
the script copies what tier-1 reads (src, tests, bench, pyproject.toml and
README.md) to a temporary directory, applies the mutant there and runs
tier-1 in that copy with -x, so the checkout is never written. A mutant is
killed when tier-1 fails. First, tier-1 must pass on an unmutated copy. It
prints one line per mutant, with the first failing test of a killed one,
and exits 1 if a mutant survives that is not marked equivalent, if one
marked equivalent is killed, or if an old string is not found exactly once.
On a 2-core machine a killed mutant took 3-80 s (a few are killed only by
the long property tests), a survivor the whole of tier-1 (about 25 s), and
the whole list about 9 minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/tumornet
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can tell it apart, if none can


MUTANTS = [
    # tumor_model._spawn: the act-position map and the later-cell rule.
    Mutant(
        "spawn_later_or_equal", "tumor_model.py",
        "later = later[later > spawners[hi - n0]]", "later = later[later >= spawners[hi - n0]]",
        "a new cell's link to its own parent counts toward the parent's degree as it acts",
    ),
    Mutant(
        "spawn_map_minus_one", "tumor_model.py",
        "at = np.zeros(graph.n_nodes, dtype=np.intp)", "at = np.full(graph.n_nodes, -1)",
        "a cell that does not act reads -1 in the position map instead of 0",
        equivalent="every spawner's position is at least 0, so neither 0 nor -1 is ever "
        "later than a spawner, and _spawn's result cannot change",
    ),
    Mutant(
        "spawn_map_before_batch", "tumor_model.py",
        "at = np.zeros(graph.n_nodes, dtype=np.intp)", "at = np.zeros(n0, dtype=np.intp)",
        "the position map misses the batch's new nodes, which later new nodes may link to",
    ),
    # tumor_model: the array step's reductions.
    Mutant(
        "threshold_table_min_degree", "tumor_model.py",
        "model._thresholds(int(np.maximum.reduce(act_deg)))",
        "model._thresholds(int(np.minimum.reduce(act_deg)))",
        "the rule table is sized to the lowest degree, not the highest",
    ),
    Mutant(
        "dead_check_min_state", "tumor_model.py",
        "if counts[DEAD] and np.maximum.reduce(s) == DEAD:",
        "if counts[DEAD] and np.minimum.reduce(s) == DEAD:",
        "an array step acts a dead cell unless every cell in it is dead",
    ),
    # graph_core: connectivity.
    Mutant(
        "linked_since_any_node", "graph_core.py",
        "np.logical_and.reduce(g._low[n_known : g.n_nodes])",
        "np.logical_or.reduce(g._low[n_known : g.n_nodes])",
        "one new node with an older neighbor vouches for every new node",
    ),
    Mutant(
        "linked_since_skips_first", "graph_core.py",
        "g._low[n_known : g.n_nodes]", "g._low[n_known + 1 : g.n_nodes]",
        "linked_since does not check the first new node",
    ),
    Mutant(
        "isolated_shortcut_any_degree", "graph_core.py",
        "if n > 1 and not np.logical_and.reduce(g.degrees):",
        "if n > 1 and not np.logical_or.reduce(g.degrees):",
        "is_connected skips its search only when every node is isolated",
        equivalent="the search that follows labels the components exactly, so the shortcut "
        "only saves time and never changes the verdict",
    ),
    Mutant(
        "no_first_hook", "graph_core.py",
        "        np.minimum.at(comp, a, b)\n", "",
        "is_connected hooks only the lo end's label onto the hi end's",
    ),
    Mutant(
        "no_second_hook", "graph_core.py",
        "        np.minimum.at(comp, b, a)\n", "",
        "is_connected hooks only the hi end's label onto the lo end's",
    ),
    Mutant(
        "connected_iff_node_0_labelled_0", "graph_core.py",
        "return not np.logical_or.reduce(comp)", "return comp[0] == 0",
        "is_connected reports True for every graph",
    ),
    # engine.run: when connectivity is checked.
    Mutant(
        "check_after_odd_steps", "engine.py",
        "if record.n_nodes != known:", "if record.n_nodes != known and model.step_count % 2:",
        "a disconnection after an even step is reported a step late",
    ),
    Mutant(
        "check_only_first", "engine.py",
        "if record.n_nodes != known:", "if record.n_nodes != known and known == 0:",
        "connectivity is checked until the graph is first seen connected, never after",
    ),
    Mutant(
        "check_every_step", "engine.py",
        "if record.n_nodes != known:", "if True:",
        "connectivity is checked after a step that appended no node",
    ),
    # graph_core: the rng.choice regime of growth.
    Mutant(
        "floyd_replacement_off_by_one", "graph_core.py",
        "picks[seen, t] = base[seen] + t", "picks[seen, t] = base[seen] + t + 1",
        "the array form replaces a repeated pick with the value after Floyd's",
    ),
    Mutant(
        "floyd_replacement_off_by_one_short", "graph_core.py",
        "draws[j * width : j * width + k], n_first - 1 - k + j)",
        "draws[j * width : j * width + k], n_first - k + j)",
        "the short form replaces a repeated pick with the value after Floyd's",
    ),
    Mutant(
        "no_floyd_replacement_short", "graph_core.py",
        "picks.append(last if v in picks else v)", "picks.append(v)",
        "the short form keeps a repeated pick",
    ),
    Mutant(
        "repeat_matches_every_pick", "graph_core.py",
        "seen = np.logical_or.reduce(picks[:, :t] == picks[:, t, None], axis=1)",
        "seen = np.logical_and.reduce(picks[:, :t] == picks[:, t, None], axis=1)",
        "the array form replaces a pick only if it repeats every earlier pick",
    ),
    Mutant(
        "shuffle_draw_dropped", "graph_core.py",
        "tops += range(k, 1, -1)", "tops += range(k, 2, -1)",
        "the short form makes one shuffle draw too few, so rng ends elsewhere",
    ),
    Mutant(
        "anchor_shift_strict", "graph_core.py",
        "flat += [p + (p >= a) for p in picks]", "flat += [p + (p > a) for p in picks]",
        "a pick at the anchor's position names the anchor instead of skipping it",
    ),
    # graph_core: the rejection regime of growth.
    Mutant(
        "ahead_one_word_more", "graph_core.py",
        "more = self._rng.integers(_WORD, size=end - len(self.buf), dtype=np.uint64)",
        "more = self._rng.integers(_WORD, size=end - len(self.buf) + 1, dtype=np.uint64)",
        "a batch that runs past its words draws one word more than the one-by-one draws",
    ),
    Mutant(
        "rows_sorted_by_column", "graph_core.py",
        "ranked.sort(axis=1)", "ranked.sort(axis=0)",
        "the row pass misses repeated picks, so a spawn may link one node twice",
    ),
    # graph_core: the ER samplers.
    Mutant(
        "er_source_search_left", "graph_core.py",
        'src = np.searchsorted(starts, hits, side="right") - 1',
        'src = np.searchsorted(starts, hits, side="left") - 1',
        "generate_er puts a row's first pair in the row before",
    ),
    Mutant(
        "skip_hi_search_left", "graph_core.py",
        'hi = np.searchsorted(starts, flat, side="right") - 1',
        'hi = np.searchsorted(starts, flat, side="left") - 1',
        "generate_er_skip puts a row's first pair in the row before",
    ),
    Mutant(
        "skip_gap_rounded_up", "graph_core.py",
        "gaps = np.minimum(logs / lp, total).astype(np.int64)",
        "gaps = np.ceil(np.minimum(logs / lp, total)).astype(np.int64)",
        "generate_er_skip skips one pair too many after most accepted pairs",
    ),
    # sweep: aggregation.
    Mutant(
        "population_std", "sweep.py",
        "return statistics.stdev(values) if len(values) > 1 else 0.0",
        "return statistics.pstdev(values) if len(values) > 1 else 0.0",
        "summary.csv's std columns divide by n instead of n - 1",
    ),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line
    return "(no FAILED line; see the pytest exit status)"


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """Run tier-1 on a copy of the tree with mutant applied, if any: (failed, first failure)."""
    with tempfile.TemporaryDirectory(prefix="tumornet-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, copy)
        if mutant:
            path = copy / "src" / "tumornet" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(
                    f"{mutant.name}: old string found {text.count(mutant.old)} times in {mutant.file}"
                )
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    killed = proc.returncode != 0
    return killed, _first_failure(proc.stdout) if killed else ""


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.breaks}{' (equivalent)' if m.equivalent else ''}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed, failure = run(None)
    if failed:
        print(f"tier-1 fails without a mutant: {failure}", file=sys.stderr)
        return 2
    bad = []
    for m in MUTANTS:
        if argv and m.name not in argv:
            continue
        started = time.perf_counter()
        killed, failure = run(m)
        took = time.perf_counter() - started
        if killed:
            verdict = "killed" if not m.equivalent else "KILLED, but marked equivalent"
        else:
            verdict = f"survived, equivalent: {m.equivalent}" if m.equivalent else "SURVIVED"
        print(f"{m.name}: {verdict} ({took:.1f} s){' ' + failure if failure else ''}", flush=True)
        if killed == bool(m.equivalent):
            bad.append(m.name)
    if bad:
        print(f"{len(bad)} mutant(s) not as listed: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
