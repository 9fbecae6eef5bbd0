"""Outside-in layer timing: wrap the public functions each module calls.

A wrapper is installed in the namespace of the module that *makes* the
call (``from x import f`` binds ``f`` into the caller), so
``ring_candidate_array`` is wrapped in both ``repro.core.optimize`` and
``repro.dse.executor``.  Methods are wrapped on their class.  Spans are
aggregated in memory per layer and written out when the run ends;
``repro.obs``'s own tracer stays off.

Per layer the recorder keeps

* ``busy`` — inclusive time of the layer's outermost spans,
* ``self`` — span time minus the time its child spans cover,
* ``calls`` and named counters (rows, passes, candidates, bytes, ...).

Summed over every layer, ``self`` time equals the time covered by the
top-level spans, so wall time = sum of self times + an unattributed
remainder (the benchmark's own loop).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the totals; installed wrappers stay in place."""
        with self._lock:
            self.busy.clear()
            self.self_time.clear()
            self.calls.clear()
            self.counts.clear()
            self.top_level = 0.0

    def _frames(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth = [], defaultdict(int)
        return local.stack, local.depth

    def call(self, layer: str, fn, args, kwargs):
        stack, depth = self._frames()
        frame = [0.0]
        stack.append(frame)
        depth[layer] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            depth[layer] -= 1
            outer = depth[layer] == 0
            if stack:
                stack[-1][0] += dt
            with self._lock:
                self.calls[layer] += 1
                self.self_time[layer] += dt - frame[0]
                if outer:
                    self.busy[layer] += dt
                if not stack:
                    self.top_level += dt

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, owner, attr: str, layer: str, counter=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``counter(result, args, kwargs)`` runs after the span closes and
        returns ``{count_name: value}``.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = recorder.call(layer, original, args, kwargs)
            if counter is not None:
                for name, value in counter(out, args, kwargs).items():
                    recorder.count(name, value)
            return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _mask_counts(prefix: str):
    def counter(out, args, kwargs):
        mask = out[0]
        return {f"{prefix}.rows": len(mask), f"{prefix}.pass": int(mask.sum())}
    return counter


def _screen_counts(out, args, kwargs):
    fixed = args[0]
    return {"conflict.screen.rows": len(out),
            "conflict.screen.ok": int((out == fixed.shape[0]).sum())}


def _journal_bytes(recorder: Recorder, owner, attr: str) -> None:
    """Count bytes appended to a checkpoint journal by ``owner.attr``."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        try:
            before = os.path.getsize(self.path)
        except OSError:
            before = 0
        out = inner(self, *args, **kwargs)
        try:
            recorder.count("checkpoint.bytes", max(0, os.path.getsize(self.path) - before))
        except OSError:
            pass
        return out

    recorder._undo.append((owner, attr, inner))
    setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the workloads cross."""
    mod = importlib.import_module
    optimize = mod("repro.core.optimize")
    executor = mod("repro.dse.executor")
    space_optimize = mod("repro.core.space_optimize")
    ilp_formulation = mod("repro.core.ilp_formulation")
    symmetry = mod("repro.core.symmetry")
    array = mod("repro.systolic.array")
    checkpoint = mod("repro.dse.checkpoint")
    cache = mod("repro.dse.cache")

    def ring_counts(out, args, kwargs):
        return {"optimize.ring.candidates": len(out)}

    for owner in (optimize, executor):
        recorder.wrap(owner, "ring_candidate_array", "optimize.ring", ring_counts)
    recorder.wrap(optimize, "batch_dependence_mask", "batch.deps", _mask_counts("batch.deps"))
    recorder.wrap(optimize, "batch_nonzero_mask", "batch.rank", _mask_counts("batch.rank"))
    for owner in (optimize, space_optimize):
        recorder.wrap(owner, "batch_point_images", "conflict.screen")
        recorder.wrap(owner, "batch_distinct_image_counts", "conflict.screen", _screen_counts)
    for owner in (optimize, executor, space_optimize):
        recorder.wrap(owner, "check_conflict_free", "conditions.scalar")
    for owner in (optimize, executor):
        recorder.wrap(owner, "symmetry_group_for", "symmetry.group")
    recorder.wrap(symmetry.SymmetryGroup, "canonicalize_rows", "symmetry.canon",
                  lambda out, args, kwargs: {"symmetry.canon.rows": len(out)})
    recorder.wrap(symmetry.SymmetryGroup, "canonicalize", "symmetry.canon",
                  lambda out, args, kwargs: {"symmetry.canon.rows": 1})
    recorder.wrap(ilp_formulation, "schedule_lower_bound", "ilp_formulation.bound")
    # The joint search calls Procedure 5.1 per candidate space.
    recorder.wrap(space_optimize, "procedure_5_1", "optimize.procedure_5_1")

    def designs(n):
        return lambda out, args, kwargs: {"space_optimize.evaluate.designs": n(out, args)}

    for owner in (executor, space_optimize):
        recorder.wrap(owner, "evaluate_design", "space_optimize.evaluate",
                      designs(lambda out, args: 1))
        recorder.wrap(owner, "evaluate_designs_batched", "space_optimize.evaluate",
                      designs(lambda out, args: len(out[0])))
    recorder.wrap(executor, "evaluate_joint_candidate", "space_optimize.evaluate",
                  designs(lambda out, args: 1))
    for owner in (executor, space_optimize):
        recorder.wrap(owner, "evaluate_cost", "systolic.cost")
    recorder.wrap(array, "build_array", "array.build")
    recorder.wrap(executor, "calibration_probe", "partition.calibration")
    journal = checkpoint.CheckpointJournal
    recorder.wrap(journal, "open", "checkpoint.open")
    for attr in ("record_shard", "record_result"):
        recorder.wrap(journal, attr, "checkpoint.append")
        _journal_bytes(recorder, journal, attr)
    recorder.wrap(journal, "compact", "checkpoint.append")
    recorder.wrap(cache.ResultCache, "get", "cache.get",
                  lambda out, args, kwargs: {"cache.hits": int(out is not None)})
    recorder.wrap(cache.ResultCache, "put", "cache.put")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, by name: (value, unit)."""
    b, s, c, n = rec.busy, rec.self_time, rec.calls, rec.counts
    return {
        "optimize.ring.busy_s": (b["optimize.ring"], "s"),
        "optimize.ring.calls": (c["optimize.ring"], "count"),
        "optimize.ring.candidates": (n["optimize.ring.candidates"], "count"),
        "optimize.fold.self_s": (s["optimize.procedure_5_1"], "s"),
        "batch.deps.busy_s": (b["batch.deps"], "s"),
        "batch.deps.rows": (n["batch.deps.rows"], "count"),
        "batch.deps.pass_ratio": (_ratio(n["batch.deps.pass"], n["batch.deps.rows"]), "ratio"),
        "batch.rank.busy_s": (b["batch.rank"], "s"),
        "batch.rank.rows": (n["batch.rank.rows"], "count"),
        "batch.rank.pass_ratio": (_ratio(n["batch.rank.pass"], n["batch.rank.rows"]), "ratio"),
        "conflict.screen.busy_s": (b["conflict.screen"], "s"),
        "conflict.screen.rows": (n["conflict.screen.rows"], "count"),
        "conflict.screen.ok_ratio": (
            _ratio(n["conflict.screen.ok"], n["conflict.screen.rows"]), "ratio"),
        "conditions.scalar.calls": (c["conditions.scalar"], "count"),
        "conditions.scalar.busy_s": (b["conditions.scalar"], "s"),
        "symmetry.group.busy_s": (b["symmetry.group"], "s"),
        "symmetry.canon.busy_s": (b["symmetry.canon"], "s"),
        "symmetry.canon.rows": (n["symmetry.canon.rows"], "count"),
        "ilp_formulation.bound.calls": (c["ilp_formulation.bound"], "count"),
        "ilp_formulation.bound.busy_s": (b["ilp_formulation.bound"], "s"),
        "space_optimize.evaluate.busy_s": (b["space_optimize.evaluate"], "s"),
        "space_optimize.evaluate.designs": (n["space_optimize.evaluate.designs"], "count"),
        "systolic.cost.self_s": (s["systolic.cost"], "s"),
        "array.build.calls": (c["array.build"], "count"),
        "array.build.busy_s": (b["array.build"], "s"),
        "executor.explore.busy_s": (b["executor.explore"], "s"),
        "executor.self_s": (s["executor.explore"], "s"),
        "partition.calibration.busy_s": (b["partition.calibration"], "s"),
        "checkpoint.open.calls": (c["checkpoint.open"], "count"),
        "checkpoint.open.busy_s": (b["checkpoint.open"], "s"),
        "checkpoint.append.calls": (c["checkpoint.append"], "count"),
        "checkpoint.append.busy_s": (b["checkpoint.append"], "s"),
        "checkpoint.bytes": (n["checkpoint.bytes"], "bytes"),
        "cache.get.calls": (c["cache.get"], "count"),
        "cache.get.busy_s": (b["cache.get"], "s"),
        "cache.hit_ratio": (_ratio(n["cache.hits"], c["cache.get"]), "ratio"),
        "cache.put.calls": (c["cache.put"], "count"),
        "cache.put.busy_s": (b["cache.put"], "s"),
    }

