"""Inputs of the three benchmark workloads, made from the workload seed.

Everything here is plain data: golaykit sees only the shapes, budgets
and documents derived from it, never the seed.  The same seed gives the
same inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECT_PATH = Path(__file__).with_name("catalog_expect.json")

ROLES = ("pair", "quad")
ALPHABETS = ("binary", "quaternary")


def shape_text(shape: tuple[int, ...]) -> str:
    return "x".join(str(s) for s in shape)


# ladder --------------------------------------------------------------------

# 959x12 is left out: one build takes about 91 s, more than a whole
# ladder pass.  300x12 and 12x300 show the same orientation gap of the
# direct route at a cost that fits a run.  The last field
# asks for a corrupted copy: both exact routes cost the same to reject
# as to accept, so copies of the three largest jobs would add about
# 18 s a pass and exercise no other code.
LADDER_JOBS = (
    ("qpair_9x10", "pair", "quaternary", (9, 10), True),
    ("qquad_36x87", "quad", "quaternary", (36, 87), True),
    ("qquad_12x959", "quad", "quaternary", (12, 959), False),
    ("qquad_300x12", "quad", "quaternary", (300, 12), False),
    ("qquad_12x300", "quad", "quaternary", (12, 300), True),
    ("bpair_16384", "pair", "binary", (16384,), False),
)

# unit multipliers that keep an entry inside the alphabet it came from
_UNIT_FACTORS = {"binary": ((-1, 0),),
                 "quaternary": ((-1, 0), (0, 1), (0, -1))}


@dataclass(frozen=True)
class Corruption:
    """Multiply one entry of one member of a gca-set/1 document by a unit.

    Any one-entry change of a polyphase array with an even dimension
    breaks complementarity, so the corrupted copy must be rejected.
    """

    member: int
    index: int
    factor: tuple[int, int]

    def apply(self, doc: dict) -> dict:
        """A corrupted copy; `doc` itself is left unchanged."""
        tensor = dict(doc["arrays"][self.member])
        entries = list(tensor["entries"])
        re, im = entries[self.index]
        fr, fi = self.factor
        entries[self.index] = [re * fr - im * fi, re * fi + im * fr]
        tensor["entries"] = entries
        arrays = list(doc["arrays"])
        arrays[self.member] = tensor
        return {**doc, "arrays": arrays}


@dataclass(frozen=True)
class LadderJob:
    name: str
    role: str
    alphabet: str
    shape: tuple[int, ...]
    corruption: Corruption | None


def ladder_inputs(seed: int) -> list[LadderJob]:
    rng = random.Random(f"ladder:{seed}")
    jobs = []
    for name, role, alphabet, shape, corrupt in LADDER_JOBS:
        members = 2 if role == "pair" else 4
        corruption = (Corruption(rng.randrange(members),
                                 rng.randrange(_entries(shape)),
                                 rng.choice(_UNIT_FACTORS[alphabet]))
                      if corrupt else None)
        jobs.append(LadderJob(name, role, alphabet, shape, corruption))
    return jobs


# catalog -------------------------------------------------------------------

CATALOG_MAX_ENTRIES = 400

# Per (role, alphabet): shapes built (drawn from the frozen feasible
# list) and shapes only planned (drawn from the rest).  Quads are the
# majority of plans so the median plan latency is a quad plan.  The
# feasible list is ordered by build cost, and one build is drawn from
# each of CATALOG_BUILDS equal slices of it, so the build work barely
# depends on the seed; build cost follows the recipe more than the size.
CATALOG_BUILDS = {("pair", "binary"): 30, ("pair", "quaternary"): 40,
                  ("quad", "binary"): 45, ("quad", "quaternary"): 45}
CATALOG_PLAN_ONLY = {("pair", "binary"): 120, ("pair", "quaternary"): 120,
                     ("quad", "binary"): 400, ("quad", "quaternary"): 50}


def catalog_universe() -> list[tuple[int, ...]]:
    """1-D lengths and 2-D shapes with rows <= columns, <= 400 entries.

    Tall shapes are left out on purpose: the direct route costs the
    square of the leading axes, so a 293x1 quad takes 19 s to verify.
    That orientation cost is ladder's 300x12 job; this workload keeps
    arrays small so per-call overhead dominates.
    """
    shapes = [(n,) for n in range(1, CATALOG_MAX_ENTRIES + 1)]
    rows = 1
    while rows * rows <= CATALOG_MAX_ENTRIES:
        shapes += [(rows, cols)
                   for cols in range(rows, CATALOG_MAX_ENTRIES // rows + 1)]
        rows += 1
    return shapes


def load_expectations(path: Path = EXPECT_PATH) -> dict:
    """Frozen feasible shapes per "role/alphabet", as lists of "AxB",
    cheapest build first."""
    return json.loads(path.read_text())["feasible"]


@dataclass(frozen=True)
class CatalogItem:
    role: str
    alphabet: str
    shape: tuple[int, ...]
    build: bool


def catalog_inputs(seed: int, expect: dict) -> list[CatalogItem]:
    rng = random.Random(f"catalog:{seed}")
    universe = catalog_universe()
    items = []
    for role in ROLES:
        for alphabet in ALPHABETS:
            good = expect[f"{role}/{alphabet}"]
            feasible = set(good)
            rest = [s for s in universe if shape_text(s) not in feasible]
            want = CATALOG_BUILDS[(role, alphabet)]
            for b in range(want):
                text = rng.choice(good[b * len(good) // want:
                                       (b + 1) * len(good) // want])
                shape = tuple(int(n) for n in text.split("x"))
                items.append(CatalogItem(role, alphabet, shape, True))
            plan_only = min(CATALOG_PLAN_ONLY[(role, alphabet)], len(rest))
            items += [CatalogItem(role, alphabet, s, False)
                      for s in rng.sample(rest, plan_only)]
    rng.shuffle(items)
    return items


def _entries(shape: tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


# search --------------------------------------------------------------------

# DFS_BUDGET caps the work of the budgeted instances; their rate is
# nodes as the library counts them per second, whether they stop at the
# budget or find a seed first.
DFS_BUDGET = 15000


@dataclass(frozen=True)
class SearchInstance:
    name: str
    kind: str            # "pair" or "base"
    alphabet: str        # pair alphabet; base sequences are binary
    size: int            # pair length or base-sequence index m
    budget: int | None
    expect: tuple[str, ...]   # accepted SearchStatus values
    finishes: bool            # True: counts toward time to answer


def search_inputs(seed: int) -> list[SearchInstance]:
    rng = random.Random(f"search:{seed}")

    def below(space: int) -> int:
        # any budget under the tabulation space forces the DFS engine
        return space - 1 - rng.randrange(space // 4)

    found = ("found",)
    # Both budgeted objects exist (BS(14,13) and a quaternary pair of
    # length 13), so a better engine may find one within the budget.
    either = ("budget-exceeded", "found")
    instances = [
        SearchInstance("mitm_qpair_11", "pair", "quaternary", 11, None,
                       found, True),
        SearchInstance("mitm_base_10", "base", "binary", 10, None,
                       found, True),
        SearchInstance("dfs_bpair_20", "pair", "binary", 20, below(2 ** 19),
                       found, True),
        SearchInstance("dfs_qpair_10", "pair", "quaternary", 10, below(4 ** 9),
                       found, True),
        SearchInstance("dfs_qpair_13", "pair", "quaternary", 13, DFS_BUDGET,
                       either, False),
        SearchInstance("dfs_base_13", "base", "binary", 13, DFS_BUDGET,
                       either, False),
    ]
    rng.shuffle(instances)
    return instances
