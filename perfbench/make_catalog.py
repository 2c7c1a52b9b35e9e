"""Regenerate catalog_expect.json, the catalog workload's frozen table.

Run from the repository root:

    python3 perfbench/make_catalog.py

It plans every shape of the catalog universe with the golaykit under
src/ and records which ones are feasible, cheapest build first.  Each
feasible shape is built in TIMING_SWEEPS sweeps over all of them, and
ordered by its best time.  The catalog draws one build from each of
equal slices of that order, so its build work barely depends on the
seed.  The table is frozen on purpose: the catalog builds only shapes
it lists, so a planner that reaches new shapes does not change the
build work.  Regenerate it only in a change that redefines the
benchmark.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from golaykit import planner, seeds  # noqa: E402
from golaykit.tensor import Alphabet  # noqa: E402

from workloads import (  # noqa: E402
    ALPHABETS, CATALOG_MAX_ENTRIES, EXPECT_PATH, ROLES, catalog_universe,
    shape_text,
)


TIMING_SWEEPS = 2


def main() -> int:
    registry = seeds.load_bundled()
    recipes = {}
    for role in ROLES:
        for alphabet in ALPHABETS:
            alph = Alphabet(alphabet)
            found = {}
            for shape in catalog_universe():
                if role == "pair":
                    report = planner.plan_pair(alph, shape)
                else:
                    report = planner.plan_quad(alph, shape, registry)
                if report.feasible:
                    found[shape_text(shape)] = report.recipe
            recipes[f"{role}/{alphabet}"] = found
    best = {}
    for _ in range(TIMING_SWEEPS):
        for key, found in recipes.items():
            for text, recipe in found.items():
                t0 = perf_counter()
                planner.execute(recipe, registry)
                took = perf_counter() - t0
                best[key, text] = min(took, best.get((key, text), took))
    feasible = {key: sorted(found, key=lambda text: (best[key, text], text))
                for key, found in recipes.items()}
    doc = {
        "universe": f"1-D lengths and 2-D rows<=cols shapes, "
                    f"at most {CATALOG_MAX_ENTRIES} entries",
        "order": "cheapest build first, as timed when the table was made",
        "feasible": feasible,
    }
    EXPECT_PATH.write_text(json.dumps(doc, indent=0) + "\n")
    for key, shapes in feasible.items():
        print(f"{key}: {len(shapes)} feasible", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
