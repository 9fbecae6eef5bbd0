"""Seeded query lists for the three workloads.

A run executes whole *rounds*.  Every round of a workload has the same
multiset of sizes in each class, so every seed does the same amount of
work and the class shares hold exactly after any number of rounds.  The
seed draws what does not change the work: the query order, the sign
pattern of ``S``, the column order of ``D`` and, for the service, which
finished job a resubmit repeats.  Those draws change the inputs (and
the content digests the cache, journal and server key on) without
moving the percentiles between cost classes.

Queries are plain JSON-able dicts; the worker process receives the
list, never the seed.
"""

from __future__ import annotations

import itertools
import random

from stats import tail_count

#: The six sign patterns of S = [1, 1, -1] (Example 5.1).
MATMUL_SIGNS = [list(p) for p in sorted(set(itertools.permutations((1, 1, -1))))] + [
    list(p) for p in sorted(set(itertools.permutations((-1, -1, 1))))
]
TC_SPACES = ([0, 0, 1], [0, 0, -1])
BIT_SPACE = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]

#: Class layout of one round: (class, share) in ascending cost order.
#: The p50 and p90 ranks must sit at least RANK_MARGIN inside a class.
RANK_MARGIN = 0.05
PERCENTILES = (0.50, 0.90)
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

# -- per-workload round templates ------------------------------------------
# Each entry: (class, kind, op, size).  ``size`` is mu, or (mu, w) for bits.

SEARCH_ROUND = (
    [("light", "matmul", "p51", mu) for mu in (12, 14, 16, 18, 20)]
    + [("light", "tc", "p51", mu) for mu in (13, 16, 19)]
    + [("medium", "matmul", "p51", mu) for mu in (24, 27, 30, 33, 36)]
    + [("medium", "tc", "p51", mu) for mu in (24, 26, 29, 32)]
    + [("heavy", "matmul", "p51", 40),
       ("heavy", "matmul", "p51", 46),
       ("heavy", "bit", "p51", (3, 1))]
)

EXPLORE_COLD = (
    [("cold", "matmul", "schedule", mu) for mu in (10, 11, 12, 13, 14, 15, 16, 11, 13, 15)]
    + [("cold", "tc", "schedule", mu) for mu in (10, 11, 12, 13, 14, 15, 16, 13)]
)
EXPLORE_HEAVY = (
    [("heavy", "matmul", "joint", mu) for mu in (3, 3, 3, 4, 4, 4)]
    + [("heavy", "matmul", "space", mu) for mu in (3, 4)]
)
EXPLORE_READS = 14  # half resume replays, half warm cache hits

SERVE_ROUND = (
    [("new", "matmul", "small", 8)] * 9
    + [("new", "matmul", "medium", 14)] * 6
)
SERVE_RESUBMITS = 5

WORKLOADS = {
    "search-sweep": {
        "classes": (("light", 0.40), ("medium", 0.45), ("heavy", 0.15)),
        "round": len(SEARCH_ROUND),
        "min_rounds": 5,
        "max_rounds": 200,
        "trace_rounds": 2,
    },
    "explore-durable": {
        "classes": (("read", 0.35), ("cold", 0.45), ("heavy", 0.20)),
        "round": EXPLORE_READS + len(EXPLORE_COLD) + len(EXPLORE_HEAVY),
        "min_rounds": 3,
        "max_rounds": 70,
        "trace_rounds": 3,
    },
    "serve-closed": {
        "classes": (("resubmit", 0.25), ("small", 0.45), ("medium", 0.30)),
        "round": SERVE_RESUBMITS + len(SERVE_ROUND),
        "min_rounds": 3,  # per client
        "max_rounds": 100,
        "trace_rounds": 4,
        "clients": 2,
    },
}


def _column_orders(m: int, copies: int = 1) -> list[tuple[int, ...]]:
    """Distinct orders of ``m`` columns each repeated ``copies`` times."""
    base = [c for c in range(m) for _ in range(copies)]
    return sorted(set(itertools.permutations(base)))


class _Variants:
    """Hands out input variants that change a digest but not the work.

    Matmul varies the S sign pattern and the column order of D; TC the
    sign of S and the column order of D; joint and space searches the
    column order of D and ``keep_ranking`` (which only truncates the
    ranking).  Each (kind, op, size) key gets distinct variants until
    the supply runs out, which ``max_rounds`` keeps from happening.
    """

    def __init__(self, rng: random.Random, copies: int = 1) -> None:
        self.rng = rng
        self.copies = copies
        self.used: dict[tuple, set] = {}
        self._pools: dict[tuple, list[tuple]] = {}

    def pool(self, kind: str, op: str) -> list[tuple]:
        key = (kind, op in ("joint", "space"))
        if key not in self._pools:
            self._pools[key] = self._build_pool(kind, op)
        return self._pools[key]

    def _build_pool(self, kind: str, op: str) -> list[tuple]:
        if kind == "bit":
            return [(None, tuple(map(tuple, BIT_SPACE)), None)]
        if op in ("joint", "space"):
            return [(order, None, keep) for order in _column_orders(3)
                    for keep in range(3, 41)]
        if kind == "matmul":
            return [(order, tuple([tuple(s)]), None)
                    for order in _column_orders(3, self.copies)
                    for s in MATMUL_SIGNS]
        return [(order, tuple([tuple(s)]), None)
                for order in _column_orders(5) for s in TC_SPACES]

    def draw(self, kind: str, op: str, size, *, distinct: bool) -> tuple:
        pool = self.pool(kind, op)
        if not distinct:
            return pool[self.rng.randrange(len(pool))]
        used = self.used.setdefault((kind, op, size, self.copies), set())
        if len(used) >= len(pool):
            raise ValueError(f"variant pool for {kind}/{op}/{size} exhausted")
        while True:
            choice = pool[self.rng.randrange(len(pool))]
            if choice not in used:
                used.add(choice)
                return choice


def _query(qid: int, cls: str, kind: str, op: str, size, variant: tuple) -> dict:
    order, space, keep = variant
    q = {"id": qid, "cls": cls, "kind": kind, "op": op}
    if kind == "bit":
        q["mu"], q["word_bits"] = size
    else:
        q["mu"] = size
    if order is not None:
        q["dep_order"] = list(order)
    if space is not None:
        q["space"] = [list(r) for r in space]
    if keep is not None:
        q["keep_ranking"] = keep
    return q


def search_rounds(rng: random.Random, rounds: int) -> list[list[dict]]:
    variants = _Variants(rng)
    out, qid = [], 0
    for _ in range(rounds):
        items = list(SEARCH_ROUND)
        rng.shuffle(items)
        block = []
        for cls, kind, op, size in items:
            block.append(_query(qid, cls, kind, op, size,
                                variants.draw(kind, op, size, distinct=False)))
            qid += 1
        out.append(block)
    return out


def explore_rounds(rng: random.Random, rounds: int) -> list[list[dict]]:
    """Cold queries and heavy searches in seeded order; each read
    (resume replay or warm cache hit) follows the cold schedule search
    it repeats, in the same round.  Matmul schedule searches use a
    six-column D (each unit column twice) for a larger variant supply."""
    variants = _Variants(rng, copies=2)
    out, qid = [], 0
    for _ in range(rounds):
        items = list(EXPLORE_COLD) + list(EXPLORE_HEAVY)
        rng.shuffle(items)
        block = []
        for cls, kind, op, size in items:
            block.append(_query(qid, cls, kind, op, size,
                                variants.draw(kind, op, size, distinct=True)))
            qid += 1
        colds = [q for q in block if q["cls"] == "cold"]
        targets = rng.sample(colds, EXPLORE_READS)
        for i, target in enumerate(targets):
            read = {"id": qid, "cls": "read", "op": "resume" if i % 2 == 0 else "warm",
                    "target": target["id"]}
            qid += 1
            at = block.index(target)
            block.insert(rng.randint(at + 1, len(block)), read)
        out.append(block)
    return out


def serve_rounds(rng: random.Random, rounds: int, clients: int) -> list[list[list[dict]]]:
    """Per client, per round: new jobs in seeded order and resubmits of
    jobs the same client already finished in that round.

    New jobs use a nine-column D (each unit column three times) so the
    variant supply covers long runs; every new job in a class does the
    same search.
    """
    variants = _Variants(rng, copies=3)
    per_client, qid = [], 0
    for _ in range(clients):
        client_rounds = []
        for _ in range(rounds):
            items = list(SERVE_ROUND)
            rng.shuffle(items)
            block = []
            for cls, kind, op, size in items:
                block.append(_query(qid, op, kind, "submit", size,
                                    variants.draw(kind, op, size, distinct=True)))
                qid += 1
            for target in rng.sample(block, SERVE_RESUBMITS):
                at = block.index(target)
                block.insert(rng.randint(at + 1, len(block)),
                             {"id": qid, "cls": "resubmit", "op": "resubmit",
                              "target": target["id"]})
                qid += 1
            client_rounds.append(block)
        per_client.append(client_rounds)
    return per_client


def generate(workload: str, seed: int, rounds: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search-sweep":
        return search_rounds(rng, rounds)
    if workload == "explore-durable":
        return explore_rounds(rng, rounds)
    if workload == "serve-closed":
        return serve_rounds(rng, rounds, WORKLOADS[workload]["clients"])
    raise ValueError(f"unknown workload {workload!r}")


def class_bounds(workload: str) -> list[tuple[str, float, float]]:
    """(class, low rank, high rank) in ascending cost order."""
    lo, out = 0.0, []
    for cls, share in WORKLOADS[workload]["classes"]:
        out.append((cls, lo, lo + share))
        lo += share
    return out


def check_mix(workload: str, queries: list[dict]) -> list[str]:
    """Problems with a query list: class shares off, or a reported
    percentile rank within RANK_MARGIN of a class boundary."""
    problems = []
    total = len(queries)
    counts: dict[str, int] = {}
    for q in queries:
        counts[q["cls"]] = counts.get(q["cls"], 0) + 1
    for cls, lo, hi in class_bounds(workload):
        share = counts.get(cls, 0) / total
        if abs(share - (hi - lo)) > 1e-9:
            problems.append(f"{workload}: class {cls} share {share:.3f} != {hi - lo:.3f}")
    for p in PERCENTILES:
        inside = [cls for cls, lo, hi in class_bounds(workload)
                  if lo + RANK_MARGIN - 1e-9 <= p <= hi - RANK_MARGIN + 1e-9]
        if not inside:
            problems.append(f"{workload}: p{round(p * 100)} rank is within "
                            f"{RANK_MARGIN:.0%} of a class boundary")
        if tail_count(total, p) < MIN_TAIL:
            problems.append(f"{workload}: p{round(p * 100)} has fewer than "
                            f"{MIN_TAIL} samples beyond it ({total} queries)")
    return problems


def flatten(workload: str, rounds: list) -> list[dict]:
    if workload == "serve-closed":
        return [q for client in rounds for block in client for q in block]
    return [q for block in rounds for q in block]
