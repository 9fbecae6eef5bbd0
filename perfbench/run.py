"""Benchmark entry point: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-closed --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py ... --record results.jsonl     # also append the result
    python3 perfbench/run.py --compare base.jsonl head.jsonl
    python3 perfbench/run.py --selftest

A run prints every metric by name and unit, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
from stats import hd_quantile, quartiles, tail_count  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 3  # the measured process plus two set-up-only probes
WORKER_TIMEOUT = 170


class BenchError(RuntimeError):
    pass


# -- workers ---------------------------------------------------------------


def spawn(cfg: dict, run_dir: Path, name: str) -> tuple[dict, float]:
    """Run one worker process; returns its output and its set-up time
    (process start until its first timed query could begin)."""
    cfg = dict(cfg, run_dir=str(run_dir / name), out=str(run_dir / f"{name}.out.json"))
    Path(cfg["run_dir"]).mkdir(parents=True)
    cfg_path = run_dir / f"{name}.cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                            cwd=str(ROOT), stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {name} timed out")
    if code != 0:
        raise BenchError(f"worker {name} exited with {code}")
    out = json.loads(Path(cfg["out"]).read_text())
    return out, out["ready_wall"] - spawned


def remove_run_dir(run_dir: Path) -> None:
    """Delete one run's directory, and the parent once it is empty."""
    shutil.rmtree(run_dir, ignore_errors=True)
    if RUN_DIR.is_dir() and not any(RUN_DIR.iterdir()):
        RUN_DIR.rmdir()


def _percentiles(samples: list[dict]) -> dict[str, float]:
    lats = [s["lat"] for s in samples if s["ok"]]
    out = {}
    for p in mix.PERCENTILES:
        if tail_count(len(lats), p) < mix.MIN_TAIL:
            raise BenchError(f"p{round(p * 100)} would rest on fewer than {mix.MIN_TAIL} "
                             f"samples beyond it ({len(lats)} samples)")
        out[f"latency_p{round(p * 100)}_s"] = hd_quantile(lats, p)
    return out


def _verdict(out: dict) -> tuple[int, int]:
    attempted = len(out["samples"])
    failed = sum(1 for s in out["samples"] if not s["ok"])
    for line in out["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    return attempted, failed


def worker_config(workload: str, rounds, *, seconds: int = 0, fixed_rounds: int | None = None,
                  trace: bool = False, mode: str = "run") -> dict:
    """What a worker receives: the generated rounds and the run length,
    never the seed."""
    return {"workload": workload, "mode": mode, "trace": trace, "rounds": rounds,
            "seconds": seconds, "min_rounds": mix.WORKLOADS[workload]["min_rounds"],
            "fixed_rounds": fixed_rounds}


def end_to_end(workload: str, rounds, seconds: int, run_dir: Path) -> tuple[dict, int, int]:
    cfg = worker_config(workload, rounds, seconds=seconds, mode="probe")
    setups = [spawn(cfg, run_dir, f"probe{i}")[1] for i in range(SETUP_SAMPLES - 1)]
    out, setup = spawn(dict(cfg, mode="run"), run_dir, "run")
    setups.append(setup)
    attempted, failed = _verdict(out)
    metrics = {
        "queries_per_s": (len(out["samples"]) / out["wall_s"], "1/s"),
        **{k: (v, "s") for k, v in _percentiles(out["samples"]).items()},
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, attempted, failed


def per_layer(workload: str, rounds, run_dir: Path) -> tuple[dict, int, int, dict]:
    """Fixed-count untraced and traced passes over the same queries."""
    spec = mix.WORKLOADS[workload]
    cfg = worker_config(workload, rounds, fixed_rounds=spec["trace_rounds"])
    plain, _ = spawn(cfg, run_dir, "plain")
    traced, _ = spawn(dict(cfg, trace=True), run_dir, "traced")
    attempted, failed = _verdict(traced)
    plain_att, plain_failed = _verdict(plain)
    failed += plain_failed
    attempted += plain_att
    lay = traced["layers"]
    metrics = {k: (v, _layer_unit(k)) for k, v in lay["metrics"].items()}
    self_times = dict(lay["self"])
    if workload == "serve-closed":
        phases = traced["serve"]
        for name, values in phases.items():
            metrics[f"serve.{name}_s"] = (statistics.median(values) if values else 0.0, "s")
        metrics["serve.shed"] = (traced["shed"], "count")
        # Client-side attribution: client threads x wall, split into phases.
        wall = traced["wall_s"] * spec["clients"]
        self_times = {f"serve.{k}": sum(v) for k, v in phases.items()}
        attributed = sum(self_times.values())
    else:
        for name in ("admit", "dedup", "queue_wait", "execute", "notify", "fetch"):
            metrics[f"serve.{name}_s"] = (0.0, "s")
        metrics["serve.shed"] = (0, "count")
        wall = traced["wall_s"]
        attributed = lay["top_level"]
    metrics["obs.trace_overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    metrics["layers.wall_s"] = (wall, "s")
    metrics["layers.attributed_s"] = (attributed, "s")
    metrics["layers.unattributed_s"] = (wall - attributed, "s")
    return metrics, attempted, failed, self_times


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


# -- metadata --------------------------------------------------------------


def _source_lines(path: Path) -> int:
    total = 0
    for f in sorted(path.rglob("*.py")):
        total += sum(1 for line in f.read_text(errors="replace").splitlines() if line.strip())
    return total


def run_metadata() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": _source_lines(ROOT / "src"),
        "tests_lines": _source_lines(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


# -- compare ---------------------------------------------------------------


def compare(base_path: str, head_path: str) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    def load(path: str) -> dict:
        sets: dict[tuple[str, str], list[float]] = {}
        units: dict[str, str] = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                sets.setdefault((rec["workload"], name), []).append(m["value"])
                units[name] = m["unit"]
        return {"sets": sets, "units": units}

    base, head = load(base_path), load(head_path)
    keys = sorted(set(base["sets"]) | set(head["sets"]),
                  key=lambda k: (k[0], k[1] not in bounds, k[1]))
    print(f"{'workload':16} {'metric':34} {'unit':6} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} {'delta':>8} {'bound':>6}")
    for key in keys:
        cells = []
        meds = []
        for side in (base, head):
            values = side["sets"].get(key)
            if not values:
                cells.append("-")
                meds.append(None)
                continue
            q1, med, q3 = quartiles(values)
            meds.append(med)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
        delta = (f"{(meds[1] - meds[0]) / meds[0]:+.1%}"
                 if None not in meds and meds[0] else "-")
        bound = bounds.get(key[1])
        unit = base["units"].get(key[1]) or head["units"].get(key[1], "")
        print(f"{key[0]:16} {key[1]:34} {unit:6} {cells[0]:34} {cells[1]:34} "
              f"{delta:>8} {bound if bound is not None else '-':>6}")
    return 0


# -- main ------------------------------------------------------------------


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = mix.WORKLOADS[args.workload]
    rounds = mix.generate(args.workload, args.seed, spec["max_rounds"])
    problems = mix.check_mix(args.workload, mix.flatten(args.workload, rounds))
    if problems:
        raise BenchError("; ".join(problems))
    meta = run_metadata()
    run_dir = RUN_DIR / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, self_times = per_layer(args.workload, rounds, run_dir)
        else:
            metrics, attempted, failed = end_to_end(args.workload, rounds, args.seconds,
                                                    run_dir)
            self_times = {}
    finally:
        remove_run_dir(run_dir)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:14.6g} {unit}")
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:31} {value:14.6g} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(mix.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result as JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            import selftest

            return selftest.main()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
