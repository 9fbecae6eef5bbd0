"""Inputs built from query dicts, and the reference checks on answers.

Every answer is checked after the timed loop, never inside it:

* matmul with any sign pattern of S = [1, 1, -1]: t = (mu + 1)^2 (Example 5.1);
* transitive closure with S = [0, 0, +-1]: t = mu (mu + 3) + 1 (Example 5.2);
* every co-rank-1 winner: t equals the ILP route ``solve_corank1_optimal``
  (its answers are recorded in ``expected.json``: the route takes up to
  a second per case, longer than the query it checks);
* every winner: conflict-free under ``is_conflict_free_kernel_box``;
* bit-level, joint and space cases: equal to ``expected.json``, recorded
  once from the unpruned scalar scan.

``record_expected.py`` writes ``expected.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def build_algorithm(q: dict):
    from repro.model import (
        UniformDependenceAlgorithm,
        bit_level_matrix_multiplication,
        matrix_multiplication,
        transitive_closure,
    )

    if q["kind"] == "bit":
        return bit_level_matrix_multiplication(q["mu"], q["word_bits"])
    base = (matrix_multiplication if q["kind"] == "matmul" else transitive_closure)(q["mu"])
    order = q.get("dep_order")
    if order is None:
        return base
    cols = base.dependence_matrix.columns()
    reordered = [list(cols[c]) for c in order]
    return UniformDependenceAlgorithm(
        index_set=base.index_set,
        dependence_matrix=[list(row) for row in zip(*reordered)],
        name=base.name,
    )


def serve_spec(q: dict) -> dict:
    """The ``POST /jobs`` body of a new serve job (custom algorithm spec)."""
    algo = build_algorithm(q)
    return {
        "task": "schedule",
        "algorithm": {
            "mu": list(algo.mu),
            "dependence": algo.dependence_matrix.tolist(),
            "name": q["kind"],
        },
        "space": q["space"],
    }


def expected_key(q: dict) -> str:
    if q["kind"] == "bit":
        return f"bit:{q['mu']}:{q['word_bits']}"
    return f"{q['op']}:{q['kind']}:{q['mu']}"


def ilp_key(q: dict) -> str:
    """S and -S, and any column order of D, pose the same problem."""
    space = [list(r) for r in q["space"]]
    if space[0] < [-x for x in space[0]]:
        space = [[-x for x in r] for r in space]
    return f"ilp:{q['kind']}:{q['mu']}:{json.dumps(space)}"


def design_answer(result) -> dict:
    """The checked part of a joint/space result: its best design."""
    best = result.best
    if best is None:
        return {"found": False}
    cost = best.cost
    return {
        "found": True,
        "space": [list(map(int, row)) for row in best.mapping.space],
        "pi": list(map(int, best.mapping.schedule)),
        "cost": [cost.processors, cost.wire_length, cost.buffers, cost.total_time],
        "objective": best.objective,
    }


class Checker:
    """Checks answers against the references."""

    def __init__(self) -> None:
        self.expected = json.loads(EXPECTED_PATH.read_text())

    def schedule(self, q: dict, pi, total_time) -> list[str]:
        """Problems with a schedule answer ``(pi, total_time)`` for ``q``."""
        from repro.core.conflict import is_conflict_free_kernel_box
        from repro.core.mapping import MappingMatrix

        if pi is None:
            return ["no schedule found"]
        problems = []
        mu = q["mu"]
        if q["kind"] == "matmul" and total_time != (mu + 1) ** 2:
            problems.append(f"t={total_time} != (mu+1)^2={(mu + 1) ** 2}")
        if q["kind"] == "tc" and total_time != mu * (mu + 3) + 1:
            problems.append(f"t={total_time} != mu(mu+3)+1={mu * (mu + 3) + 1}")
        if q["kind"] == "bit":
            want = self.expected[expected_key(q)]
            if [total_time, list(pi)] != [want["total_time"], want["pi"]]:
                problems.append(f"(t, pi)=({total_time}, {list(pi)}) != expected {want}")
        algo = build_algorithm(q)
        if len(q["space"]) == algo.n - 2:
            ilp = self.expected.get(ilp_key(q))
            if ilp != total_time:
                problems.append(f"t={total_time} != ILP route t={ilp}")
        t = MappingMatrix(space=q["space"], schedule=list(pi))
        if not is_conflict_free_kernel_box(t, algo.mu):
            problems.append(f"pi={list(pi)} is not conflict-free (kernel box)")
        return problems

    def design(self, q: dict, answer: dict) -> list[str]:
        want = self.expected[expected_key(q)]
        if answer != want:
            return [f"best design {answer} != expected {want}"]
        return []
