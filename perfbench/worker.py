"""One measured process: set up, run whole rounds of queries, check answers.

Started by ``run.py`` as ``python3 perfbench/worker.py CONFIG.json``; a
fresh process per pass, so the in-process caches (the ring
``lru_cache``, the LP-bound cache, the symmetry-group cache, the
calibration probe) start identical on every run.  The config carries
the generated query rounds, never the seed.  The result is written to
``config["out"]`` as JSON.

Every engine call uses ``jobs=1``: shard IPC is not measured here.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from reference import Checker, build_algorithm, design_answer, serve_spec  # noqa: E402

import layers  # noqa: E402

TERMINAL = ("done", "failed", "cancelled")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(rounds, run_one, cfg) -> tuple[list[dict], float]:
    """Run whole rounds: at least ``min_rounds`` and until ``seconds``
    have passed, or exactly ``fixed_rounds`` when that is set."""
    records = []
    start = perf_counter()
    for i, block in enumerate(rounds):
        for q in block:
            records.append(run_one(q))
        done = i + 1
        if cfg.get("fixed_rounds"):
            if done >= cfg["fixed_rounds"]:
                break
        elif done >= cfg["min_rounds"] and perf_counter() - start >= cfg["seconds"]:
            break
    else:
        raise RuntimeError("query list ran out before the run ended")
    return records, perf_counter() - start


# -- search-sweep: procedure_5_1 with no cache and no journal ---------------


class SearchSweep:
    def __init__(self, cfg: dict, recorder) -> None:
        from repro.core.optimize import procedure_5_1

        self.p51 = procedure_5_1
        self.recorder = recorder

    def warm_up(self) -> None:
        from repro.model import matrix_multiplication

        self.p51(matrix_multiplication(4), [[1, 1, -1]])

    def run_one(self, q: dict) -> dict:
        algo = build_algorithm(q)
        t0 = perf_counter()
        if self.recorder is None:
            res = self.p51(algo, q["space"])
        else:
            res = self.recorder.call("optimize.procedure_5_1", self.p51, (algo, q["space"]), {})
        lat = perf_counter() - t0
        pi = list(res.schedule.pi) if res.found else None
        return {"q": q, "lat": lat, "answer": (pi, res.total_time if res.found else None)}

    def check(self, checker: Checker, rec: dict) -> list[str]:
        return checker.schedule(rec["q"], *rec["answer"])


# -- explore-durable: the DSE engine with a journal per query and a cache ---


class ExploreDurable:
    def __init__(self, cfg: dict, recorder) -> None:
        from repro.dse import executor
        from repro.dse.cache import ResultCache

        self.ex = executor
        self.recorder = recorder
        self.dir = Path(cfg["run_dir"])
        self.cache = ResultCache(self.dir / "cache")
        self.results: dict[int, object] = {}
        self.queries: dict[int, dict] = {}

    def journal(self, qid) -> str:
        return str(self.dir / "journals" / f"{qid}.jsonl")

    def warm_up(self) -> None:
        from repro.dse.cache import ResultCache
        from repro.model import matrix_multiplication

        (self.dir / "journals").mkdir(parents=True, exist_ok=True)
        scratch = ResultCache(self.dir / "warmup-cache")
        self.ex.explore_schedule(matrix_multiplication(4), [[1, 1, -1]], jobs=1, cache=scratch,
                                 checkpoint=self.journal("warmup"))

    def _call(self, fn, *args, **kwargs):
        if self.recorder is None:
            return fn(*args, **kwargs)
        return self.recorder.call("executor.explore", fn, args, kwargs)

    def run_one(self, q: dict) -> dict:
        op = q["op"]
        ex = self.ex
        if op in ("resume", "warm"):
            target = self.queries[q["target"]]
            algo = build_algorithm(target)
            t0 = perf_counter()
            if op == "resume":
                res = self._call(ex.explore_schedule, algo, target["space"], jobs=1,
                                 checkpoint=self.journal(target["id"]), resume=True)
            else:
                res = self._call(ex.explore_schedule, algo, target["space"], jobs=1,
                                 cache=self.cache, checkpoint=self.journal(q["id"]))
            return {"q": q, "lat": perf_counter() - t0, "result": res}
        algo = build_algorithm(q)
        common = {"jobs": 1, "cache": self.cache, "checkpoint": self.journal(q["id"])}
        t0 = perf_counter()
        if op == "schedule":
            res = self._call(ex.explore_schedule, algo, q["space"], **common)
        elif op == "joint":
            res = self._call(ex.explore_joint, algo, keep_ranking=q["keep_ranking"], **common)
        else:
            res = self._call(ex.explore_space, algo, [1, q["mu"], 1], array_dim=2,
                             keep_ranking=q["keep_ranking"], **common)
        lat = perf_counter() - t0
        self.results[q["id"]] = res
        self.queries[q["id"]] = q
        return {"q": q, "lat": lat, "result": res}

    def check(self, checker: Checker, rec: dict) -> list[str]:
        q, res = rec["q"], rec["result"]
        if q["op"] in ("resume", "warm"):
            cold = self.results[q["target"]]
            return [] if res == cold else [f"{q['op']} answer differs from its cold answer"]
        if q["op"] == "schedule":
            pi = list(res.schedule.pi) if res.found else None
            return checker.schedule(q, pi, res.total_time if res.found else None)
        return checker.design(q, design_answer(res))


# -- serve-closed: a repro serve subprocess and closed-loop clients --------


class ServeClosed:
    def __init__(self, cfg: dict, recorder) -> None:
        from repro.serve.client import ServeClient, ServeError

        self.cfg = cfg
        self.ServeClient = ServeClient
        self.ServeError = ServeError
        self.dir = Path(cfg["run_dir"])
        self.proc = None
        self.port = None
        self.layers_out = self.dir / "server-layers.json"
        self.answers: dict[int, dict] = {}

    def start(self) -> None:
        port_file = self.dir / "port"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve_args = ["serve", "--state-dir", str(self.dir / "state"), "--port", "0",
                      "--port-file", str(port_file), "--cache-dir", str(self.dir / "cache")]
        if self.cfg["trace"]:
            cmd = [sys.executable, str(HERE / "serve_host.py"), str(self.layers_out)] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT),
                                     stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                client = self.client()
                try:
                    if client.ready().get("ready"):
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def client(self):
        return self.ServeClient("127.0.0.1", self.port, timeout=60.0, retries=0)

    def warm_up(self) -> None:
        self.start()
        q = {"kind": "matmul", "mu": 3, "space": [[1, 1, -1]], "dep_order": [0, 1, 2]}
        self.submit_and_follow(self.client(), serve_spec(q))

    def submit_and_follow(self, client, spec: dict) -> dict:
        """Submit, read the event stream up to the terminal ``state``
        event, then fetch the record.  Returns the phase timestamps."""
        t0 = time.time()
        record = client.submit(spec)
        t1 = time.time()
        if not record["created"] and record["state"] in TERMINAL:
            return {"t0": t0, "t1": t1, "record": record, "dedup": True}
        done_ts = None
        for event in client.events(record["id"], follow=True):
            if event.get("event") == "state" and event.get("state") in TERMINAL:
                done_ts = event["ts"]
                break
        t2 = time.time()
        final = client.job(record["id"])
        t3 = time.time()
        return {"t0": t0, "t1": t1, "t2": t2, "t3": t3, "ts": done_ts,
                "record": final, "dedup": False}

    def run_client(self, rounds, cfg, start, out: list) -> None:
        client = self.client()
        ids: dict[int, dict] = {}
        for i, block in enumerate(rounds):
            for q in block:
                spec = ids[q["target"]]["spec"] if q["op"] == "resubmit" else serve_spec(q)
                try:
                    phases = self.submit_and_follow(client, spec)
                    error = None
                except (self.ServeError, OSError) as exc:
                    phases, error = None, f"{type(exc).__name__}: {exc}"
                if q["op"] != "resubmit":
                    ids[q["id"]] = {"spec": spec}
                out.append({"q": q, "phases": phases, "error": error})
            done = i + 1
            if cfg.get("fixed_rounds"):
                if done >= cfg["fixed_rounds"]:
                    return
            elif done >= cfg["min_rounds"] and perf_counter() - start >= cfg["seconds"]:
                return
        raise RuntimeError("query list ran out before the run ended")

    def run(self, rounds_per_client, cfg) -> tuple[list[dict], float]:
        per_client = [[] for _ in rounds_per_client]
        errors: list[BaseException] = []

        def target(rounds, out):
            try:
                self.run_client(rounds, cfg, start, out)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        start = perf_counter()
        threads = [threading.Thread(target=target, args=(r, o))
                   for r, o in zip(rounds_per_client, per_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = perf_counter() - start
        if errors:
            raise errors[0]
        records = []
        for recs in per_client:
            for rec in recs:
                ph = rec["phases"]
                rec["lat"] = (ph["t3"] if not ph["dedup"] else ph["t1"]) - ph["t0"] if ph else None
                records.append(rec)
        return records, wall

    def stop(self) -> dict:
        """Read peak RSS and shed counts, then stop the server and wait."""
        info = {"peak_rss_mb": 0.0, "shed": 0}
        if self.proc is None:
            return info
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        info["peak_rss_mb"] = int(line.split()[1]) / 1024.0
            info["shed"] = sum(self.client().health().get("shed", {}).values())
        except (OSError, self.ServeError):
            pass
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return info

    def check(self, checker: Checker, rec: dict) -> list[str]:
        if rec["error"] is not None:
            return [rec["error"]]
        q, record = rec["q"], rec["phases"]["record"]
        if record["state"] != "done":
            return [f"job ended {record['state']}: {record.get('error')}"]
        result = record.get("result") or {}
        if q["op"] == "resubmit":
            original = self.answers.get(q["target"])
            if original is None or result != original:
                return ["resubmit answer differs from the original job's answer"]
            return []
        self.answers[q["id"]] = result
        return checker.schedule(q, result.get("pi"), result.get("total_time"))


def serve_phases(records: list[dict]) -> dict[str, list[float]]:
    """Split each job's latency into consecutive, disjoint phases on the
    client's timeline: admit (submit round trip), queue wait (until the
    server started it), execute (until the terminal state event was
    stamped), notify (until the client read that event) and fetch (the
    final ``GET``).  A resubmit answered by dedup is one phase."""
    out = {k: [] for k in ("admit", "dedup", "queue_wait", "execute", "notify", "fetch")}
    for rec in records:
        ph = rec["phases"]
        if ph is None:
            continue
        if ph["dedup"]:
            out["dedup"].append(ph["t1"] - ph["t0"])
            continue
        started = ph["record"].get("started") or ph["t1"]
        cuts = [ph["t0"], ph["t1"]]
        for t in (started, ph["ts"] or ph["t2"], ph["t2"], ph["t3"]):
            cuts.append(max(cuts[-1], t))
        for name, a, b in zip(("admit", "queue_wait", "execute", "notify", "fetch"),
                              cuts, cuts[1:]):
            out[name].append(b - a)
    return out


WORKLOADS = {
    "search-sweep": SearchSweep,
    "explore-durable": ExploreDurable,
    "serve-closed": ServeClosed,
}


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    recorder = layers.Recorder() if cfg["trace"] else None
    if recorder is not None and cfg["workload"] != "serve-closed":
        layers.install(recorder)
    work = WORKLOADS[cfg["workload"]](cfg, recorder)
    try:
        work.warm_up()
        ready_wall = time.time()
        if cfg["mode"] == "probe":
            Path(cfg["out"]).write_text(json.dumps({"ready_wall": ready_wall}))
            return 0
        if recorder is not None:
            recorder.reset()  # layer totals cover the measured queries only
        if cfg["workload"] == "serve-closed":
            records, wall = work.run(cfg["rounds"], cfg)
        else:
            records, wall = _run_rounds(cfg["rounds"], work.run_one, cfg)
    finally:
        server = work.stop() if isinstance(work, ServeClosed) else None
    if recorder is not None:
        recorder.uninstall()
    checker = Checker()
    failures = []
    for rec in records:
        problems = work.check(checker, rec)
        rec["ok"] = not problems
        for problem in problems:
            failures.append(f"query {json.dumps(rec['q'], sort_keys=True)}: {problem}")
    out = {
        "ready_wall": ready_wall,
        "wall_s": wall,
        "samples": [{"cls": r["q"]["cls"], "lat": r["lat"], "ok": r["ok"]} for r in records],
        "failures": failures,
        "peak_rss_mb": server["peak_rss_mb"] if server else _rss_mb(),
    }
    if server is not None:
        out["serve"] = serve_phases(records)
        out["shed"] = server["shed"]
    if recorder is not None:
        if server is not None:
            out["layers"] = json.loads(work.layers_out.read_text())
        else:
            out["layers"] = {
                "metrics": {k: v[0] for k, v in layers.layer_metrics(recorder).items()},
                "self": dict(recorder.self_time),
                "top_level": recorder.top_level,
            }
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
