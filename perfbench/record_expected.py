"""Record ``expected.json``: the reference answers for the cases that
have no closed form (bit-level matmul, joint and 2-D space searches),
and the ILP route's total time for every co-rank-1 query the mixes use.

The search entries come from the unpruned scalar scan (``batch=False,
symmetry=False, ring_bound=False``), independent of the batched,
pruned engine the benchmark times; the ILP entries from
``solve_corank1_optimal``.  Run once from the repository root:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from reference import (  # noqa: E402
    EXPECTED_PATH,
    build_algorithm,
    design_answer,
    expected_key,
    ilp_key,
)

UNPRUNED = {"batch": False, "symmetry": False, "ring_bound": False}
BIT_CASES = ((1, 3), (3, 1), (2, 2))
DESIGN_MUS = (3, 4)


def main() -> int:
    from repro.core.optimize import procedure_5_1
    from repro.core.space_optimize import solve_joint_optimal, solve_space_optimal
    from repro.model import bit_level_matrix_multiplication, matrix_multiplication

    from mix import BIT_SPACE

    table = {}
    for mu, w in BIT_CASES:
        res = procedure_5_1(bit_level_matrix_multiplication(mu, w), BIT_SPACE, **UNPRUNED)
        key = expected_key({"kind": "bit", "mu": mu, "word_bits": w})
        table[key] = {"total_time": res.total_time, "pi": list(res.schedule.pi)}
        print(key, table[key], flush=True)
    for mu in DESIGN_MUS:
        algo = matrix_multiplication(mu)
        joint = solve_joint_optimal(algo, schedule_kwargs=UNPRUNED)
        table[expected_key({"kind": "matmul", "op": "joint", "mu": mu})] = design_answer(joint)
        space = solve_space_optimal(algo, [1, mu, 1], array_dim=2, batch=False)
        table[expected_key({"kind": "matmul", "op": "space", "mu": mu})] = design_answer(space)
        print(mu, design_answer(joint), design_answer(space), flush=True)
    from repro.core.ilp_formulation import solve_corank1_optimal

    import mix

    for workload in mix.WORKLOADS:
        for q in mix.flatten(workload, mix.generate(workload, 0, 2)):
            if q.get("kind") not in ("matmul", "tc") or "space" not in q:
                continue
            for space in (mix.MATMUL_SIGNS if q["kind"] == "matmul" else mix.TC_SPACES):
                case = dict(q, space=[space], dep_order=None)
                if ilp_key(case) not in table:
                    res = solve_corank1_optimal(build_algorithm(case), case["space"])
                    table[ilp_key(case)] = res.total_time if res.found else None
                    print(ilp_key(case), table[ilp_key(case)], flush=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
