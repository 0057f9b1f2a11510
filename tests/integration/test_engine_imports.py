"""No engine path imports scipy.

scipy adds about 23 MB of resident memory to a process, and a lazy
import in a forked worker can deadlock on the import lock.  The engines
root forests in numpy (``StaticGraph.forest_layout``), so a fresh
interpreter that builds ``tree:`` graphs and runs every fast engine in
each mode, plus the faithful engines of the paper's trees and blocks,
must end with no ``scipy`` module loaded.
"""

import json
import subprocess
import sys
import textwrap

FAST = (
    "luby_fast",
    "fair_rooted_fast",
    "cole_vishkin_fast",
    "fair_tree_fast",
    "fair_bipart_fast",
    "color_mis_fast",
)
FAITHFUL = ("luby", "fair_tree", "fair_rooted", "cole_vishkin", "fair_bipart", "color_mis")

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.analysis.montecarlo import chunk_counts, vector_chunk_counts
    from repro.api import build_graph, make, run_trials
    from repro.runtime.rng import spawn_trial_seeds

    fast, faithful = json.loads(sys.argv[1])
    ran, loaded_by = [], None

    def step(name):
        global loaded_by
        ran.append(name)
        if loaded_by is None and "scipy" in sys.modules:
            loaded_by = name

    for spec in ("tree:60:1", "tree:300:2"):
        g = build_graph(spec)
        for name in fast:
            alg = make(name)
            alg.run(g, np.random.default_rng(0))
            chunk_counts(alg, g, spawn_trial_seeds(0, 6))
            step(name)
            if hasattr(alg, "union_sweep"):
                vector_chunk_counts(alg, g, np.random.SeedSequence(0), 6)
                step(name + ":vectorized")
    g = build_graph("tree:20:3")
    for name in faithful:
        run_trials(make(name), g, 2, seed=0)
        step(name)
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(json.dumps({"ran": ran, "loaded_by": loaded_by, "scipy": scipy}))
    """
)


def test_engines_load_no_scipy():
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([FAST, FAITHFUL])],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert len(out["ran"]) == 2 * (2 * len(FAST) - 1) + len(FAITHFUL)
    assert out["loaded_by"] is None and out["scipy"] == [], out["loaded_by"]
