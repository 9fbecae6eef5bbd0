"""Self-tests of the benchmark itself: ``python3 perfbench/run.py --selftest``.

1. The generator: the same seed gives the same query list; for every
   seed tried the class shares hold, the p50 and p90 ranks sit at least
   ``mix.RANK_MARGIN`` inside one class, and each reported percentile
   has at least ``mix.MIN_TAIL`` samples beyond it at the minimum run
   length.  Workers receive the generated inputs, never the seed.
2. Serve completion without polling: on a tiny serve run the time from
   the terminal ``state`` event's stamp to the client reading it
   (``serve.notify_s``) is far below ``ServeClient.wait``'s 100 ms poll.
"""

from __future__ import annotations

import json
import statistics
import time

import mix
import run

SEEDS = range(1, 21)
NOTIFY_LIMIT_S = 0.025  # a quarter of the 100 ms poll interval


def check_generator() -> list[str]:
    problems = []
    for workload, spec in mix.WORKLOADS.items():
        for seed in SEEDS:
            for rounds in (spec["min_rounds"], spec["min_rounds"] + 2):
                first = mix.generate(workload, seed, rounds)
                if first != mix.generate(workload, seed, rounds):
                    problems.append(f"{workload} seed {seed}: not deterministic")
                queries = mix.flatten(workload, first)
                problems += [f"seed {seed}, {rounds} rounds: {p}"
                             for p in mix.check_mix(workload, queries)]
                if any("seed" in q for q in queries):
                    problems.append(f"{workload}: a query carries the seed")
        cfg = run.worker_config(workload, mix.generate(workload, 1, 1))
        if "seed" in cfg:
            problems.append(f"{workload}: the worker config carries the seed")
        if mix.generate(workload, 1, 2) == mix.generate(workload, 2, 2):
            problems.append(f"{workload}: seeds 1 and 2 give the same queries")
    return problems


def check_serve_notify() -> list[str]:
    rounds = mix.generate("serve-closed", 1, 1)
    run_dir = run.RUN_DIR / f"selftest-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        out, _ = run.spawn(run.worker_config("serve-closed", rounds, fixed_rounds=1),
                           run_dir, "notify")
    finally:
        run.remove_run_dir(run_dir)
    notify = statistics.median(out["serve"]["notify"])
    print(f"serve.notify_s p50 = {notify * 1000:.2f} ms over "
          f"{len(out['serve']['notify'])} jobs (limit {NOTIFY_LIMIT_S * 1000:.0f} ms)")
    problems = [f"serve: {f}" for f in out["failures"]]
    if notify >= NOTIFY_LIMIT_S:
        problems.append(f"serve.notify_s p50 {notify:.4f} s is not far below the 0.1 s poll")
    return problems


def main() -> int:
    problems = check_generator() + check_serve_notify()
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0
