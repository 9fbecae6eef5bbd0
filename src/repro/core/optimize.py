"""Procedure 5.1: enumerative search for the time-optimal schedule.

Given an algorithm ``(J, D)`` and a fixed space mapping ``S``, find the
integral schedule ``Pi`` minimizing the total execution time subject to

1. ``Pi D > 0`` (dependences respected),
2. ``rank([S; Pi]) == k`` (genuinely ``(k-1)``-dimensional),
3. ``[S; Pi]`` conflict-free (checked with the strongest theorem for
   the co-rank — Theorem 3.1 / 4.7 / 4.8 / 4.5 — or the exact oracle),
4. optionally an interconnection constraint (Definition 2.2 cond. 2),
   supplied as a callback to keep this module independent of
   :mod:`repro.systolic`.

Candidates are enumerated in non-decreasing execution-time order
(Theorem 2.1 justifies the expanding-ring strategy), exactly the
paper's Steps 1-7 with the candidate set ``C_l = {Pi : sum |pi_i| mu_i
<= x_l}`` and growth ``x_{l+1} = x_l + alpha``.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ..dse.progress import SearchStats
from ..intlin import INT64_MAX, IntMat, as_intmat, as_intvec, kernel_basis
from ..intlin.batch import (
    batch_dependence_mask,
    batch_nonzero_mask,
    batch_point_images,
)
from ..obs import get_tracer
from ..model import UniformDependenceAlgorithm
from .conditions import ConditionVerdict, check_conflict_free
from .conflict import batch_distinct_image_counts
from .mapping import MappingMatrix
from .schedule import LinearSchedule
from .symmetry import SymmetryGroup, symmetry_group_for

__all__ = [
    "BatchCandidateScanner",
    "DEFAULT_BATCH_SIZE",
    "STAGE_CONFLICT",
    "STAGE_DEPS",
    "STAGE_OK",
    "STAGE_RANK",
    "SearchResult",
    "batch_disabled_reason",
    "batch_supported",
    "enumerate_schedule_vectors",
    "find_all_optima",
    "procedure_5_1",
    "ring_candidate_array",
    "search_bounds",
]

# Stage codes of the candidate filter funnel, in rejection order; the
# sharded engine (repro.dse.executor) transports the same codes in its
# shard records.
STAGE_DEPS = "deps"
STAGE_RANK = "rank"
STAGE_CONFLICT = "conflict"
STAGE_OK = "ok"
# Stage codes as small ints for the vectorized funnel, in the same order.
_STAGE_BY_CODE = (STAGE_DEPS, STAGE_RANK, STAGE_CONFLICT, STAGE_OK)
_CODE_CONFLICT, _CODE_OK = 2, 3

#: Candidates evaluated per vectorized batch (before the memory cap).
DEFAULT_BATCH_SIZE = 512
# Cap on points x candidates cells materialized per conflict-image
# chunk (~32 MB of int64).
_BATCH_CELL_LIMIT = 4_194_304
# Rings with budgets beyond this stay on the scalar path: the int64
# sort keys and |pi_i| entries are only certified below it.
_BATCH_MAX_BOUND = 2**31


def batch_disabled_reason(method: str, max_bound: int) -> str | None:
    """Why the batched funnel cannot run, or ``None`` when it can.

    The vectorized conflict screen decides injectivity of ``tau`` on
    ``J`` exactly — which matches :func:`check_conflict_free` for
    ``method="auto"``/``"exact"`` but not for ``method="paper"``, whose
    Theorem 4.7/4.8 sufficient conditions deliberately keep the paper's
    necessity gap.  Oversized ring budgets also fall back to the scalar
    walker so candidate entries stay certified int64.
    """
    if method not in ("auto", "exact"):
        return (
            f"method={method!r} has no exact vectorized form (the "
            "Theorem 4.7/4.8 sufficient conditions are scalar-only)"
        )
    if max_bound > _BATCH_MAX_BOUND:
        return (
            f"max_bound {max_bound} exceeds 2^31, past the certified "
            "int64 range of the batched funnel"
        )
    return None


def batch_supported(method: str, max_bound: int) -> bool:
    """Whether the batched funnel preserves bit-exact results.

    Equivalent to ``batch_disabled_reason(method, max_bound) is None``;
    see that function for the rationale behind each disqualifier.
    """
    return batch_disabled_reason(method, max_bound) is None


_logger = logging.getLogger("repro.core.optimize")
_warned_batch_reasons: set[str] = set()


def _warn_batch_disabled(reason: str) -> None:
    """One-time (per reason, per process) scalar-fallback warning."""
    if reason in _warned_batch_reasons:
        return
    _warned_batch_reasons.add(reason)
    _logger.warning(
        "batched candidate evaluation disabled: %s; falling back to the "
        "scalar scan (typically 7-14x slower)",
        reason,
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of Procedure 5.1.

    Attributes
    ----------
    schedule:
        The optimal ``Pi`` (as a :class:`LinearSchedule`), or ``None``
        if the search bound was exhausted.
    mapping:
        The full conflict-free mapping matrix ``T = [S; Pi]``.
    verdict:
        The conflict checker's verdict for the winning candidate.
    candidates_examined:
        Number of candidate vectors that went through the full check.
    rings_expanded:
        How many times the bound ``x_l`` grew before success.
    stats:
        Uniform :class:`repro.dse.progress.SearchStats` accounting; its
        deterministic counters are identical whichever execution
        strategy (serial, sharded, cached) produced this result.
    """

    schedule: LinearSchedule | None
    mapping: MappingMatrix | None
    verdict: ConditionVerdict | None
    candidates_examined: int
    rings_expanded: int
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.schedule is not None

    @property
    def total_time(self) -> int:
        if self.schedule is None:
            raise ValueError("no schedule found")
        return self.schedule.total_time


def enumerate_schedule_vectors(
    mu: Sequence[int],
    f_max: int,
    *,
    f_min: int = 0,
    nonnegative: bool = False,
) -> Iterator[tuple[int, ...]]:
    """All integral ``Pi`` with ``f_min <= sum |pi_i| mu_i <= f_max``.

    Lazy depth-first enumeration with exact budget pruning; the zero
    vector is excluded (it is never a valid schedule).  Order within
    the ring is deterministic but unsorted — Procedure 5.1 sorts by
    execution time afterwards.  The scalar scan walks rings with it, and
    it is the oracle for the vectorized :func:`ring_candidate_array`.
    """
    mu = [int(m) for m in mu]
    n = len(mu)

    def rec(prefix: list[int], spent: int, pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            if f_min <= spent and any(prefix):
                yield tuple(prefix)
            return
        budget = f_max - spent
        top = budget // mu[pos]
        for v in range(-top, top + 1):
            prefix.append(v)
            yield from rec(prefix, spent + abs(v) * mu[pos], pos + 1)
            prefix.pop()

    def rec_nonneg(prefix: list[int], spent: int, pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            if f_min <= spent and any(prefix):
                yield tuple(prefix)
            return
        budget = f_max - spent
        top = budget // mu[pos]
        for v in range(0, top + 1):
            prefix.append(v)
            yield from rec_nonneg(prefix, spent + v * mu[pos], pos + 1)
            prefix.pop()

    walker = rec_nonneg if nonnegative else rec
    yield from walker([], 0, 0)


def _shell_magnitudes(
    mu: tuple[int, ...], f_max: int, f_min: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``|Pi|`` with ``f_min <= sum a_i mu_i <= f_max``, and its ``f``.

    Built coordinate by coordinate: each prefix (with budget ``spent``)
    fans out into ``0 .. (f_max - spent) // mu_i`` via ``np.repeat``.
    The coordinate with the smallest ``mu`` goes last, where its range
    is solved directly for the shell, so only the ``(n-1)``-dimensional
    ball of prefixes is ever materialized.
    """
    n = len(mu)
    order = sorted(range(n), key=lambda j: (-mu[j], j))
    mags = np.zeros((1, 0), dtype=np.int64)
    spent = np.zeros(1, dtype=np.int64)
    for pos, j in enumerate(order):
        m = mu[j]
        hi = (f_max - spent) // m
        if pos < n - 1:
            lo = np.zeros_like(hi)
        else:
            lo = np.maximum(0, -((spent - f_min) // m))  # ceil((f_min - spent) / m)
        counts = np.maximum(hi - lo + 1, 0)
        starts = np.cumsum(counts) - counts
        vals = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            starts - lo, counts
        )
        mags = np.concatenate(
            [np.repeat(mags, counts, axis=0), vals[:, None]], axis=1
        )
        spent = np.repeat(spent, counts) + vals * m
    return mags[:, np.argsort(order)], spent


@lru_cache(maxsize=8)
def _ring_candidate_array_cached(
    mu: tuple[int, ...], f_max: int, f_min: int
) -> np.ndarray:
    n = len(mu)
    if n == 0 or f_max < max(f_min, 1):
        pis = np.empty((0, n), dtype=np.int64)
        pis.setflags(write=False)
        return pis
    # f >= 1 excludes exactly the zero vector (every mu_i >= 1).
    mags, f = _shell_magnitudes(mu, f_max, max(f_min, 1))
    # Signs: one mask per sign pattern, keeping only the vectors whose
    # negated entries are all non-zero (so no vector appears twice).
    nz = mags != 0
    parts: list[np.ndarray] = []
    f_parts: list[np.ndarray] = []
    for pattern in range(1 << n):
        neg = np.array([pattern >> j & 1 for j in range(n)], dtype=bool)
        keep = nz[:, neg].all(axis=1)
        parts.append(np.where(neg, -mags[keep], mags[keep]))
        f_parts.append(f[keep])
    pis = np.concatenate(parts)
    f = np.concatenate(f_parts)
    # np.lexsort sorts by its *last* key first: primary key f (total
    # time), then the vector entries lexicographically — exactly
    # LinearSchedule.sort_key order.
    keys = tuple(pis[:, j] for j in range(n - 1, -1, -1)) + (f,)
    pis = np.ascontiguousarray(pis[np.lexsort(keys)])
    pis.setflags(write=False)
    return pis


def ring_candidate_array(
    mu: Sequence[int], f_max: int, *, f_min: int = 0
) -> np.ndarray:
    """The ring's candidates as a sorted, read-only ``(N, n)`` array.

    Same candidate set as :func:`enumerate_schedule_vectors`, already in
    Procedure 5.1's documented scan order — primary key total execution
    time, ties broken lexicographically on the vector.  Generated as a
    shell: only the magnitude vectors with ``f_min <= f <= f_max`` are
    built, then expanded over their sign patterns, so a ring costs its
    own size rather than the ball or box around it.  Cached (the
    sharded engine re-derives a ring inside every worker that holds one
    of its slices); callers must treat the array as immutable.
    """
    return _ring_candidate_array_cached(
        tuple(int(m) for m in mu), int(f_max), int(f_min)
    )


class BatchCandidateScanner:
    """Staged vectorized filter funnel over sorted candidate arrays.

    Evaluates ring slices chunk-by-chunk: a vectorized ``Pi D > 0``
    dependence mask, then a vectorized rank screen (``Pi`` against the
    kernel basis of ``S``), then the exact vectorized conflict-image
    screen (mixed-radix distinct-row counts of ``[S j | Pi j]`` over the
    whole index box), with only the candidates whose int64 bounds cannot
    be certified promoted to the scalar exact
    :func:`~repro.core.conditions.check_conflict_free` path.  Produces
    the same per-candidate stage code the scalar loop would, in the same
    order — callers rebuild identical counters and pick the identical
    winner.  Two ways to drive it: :meth:`iter_stages` yields one stage
    code per candidate of a ring slice (the shard workers), while
    :meth:`scan_ring` runs the funnel on whole-ring masks and screens
    only the deps+rank survivors (the serial search).

    Only valid where :func:`batch_supported` holds; the screen *is* the
    exact conflict decider there.

    Two optional pruners ride on top without changing any stage code:

    * ``symmetry`` — a :class:`repro.core.symmetry.SymmetryGroup`; each
      chunk is canonicalized to orbit representatives, only fresh
      representatives run the funnel, and every member's stage is
      rehydrated from the representative's memoized result (valid
      because the group construction certifies stage invariance).
    * ``min_feasible_f`` — an LP-relaxation lower bound on the budget of
      any conflict-free candidate
      (:func:`repro.core.ilp_formulation.schedule_lower_bound`);
      dependence/rank survivors below it are assigned
      :data:`STAGE_CONFLICT` directly, which is exactly the verdict the
      skipped screen would have computed.
    """

    def __init__(
        self,
        algorithm: UniformDependenceAlgorithm,
        space: Sequence[Sequence[int]],
        *,
        method: str = "auto",
        batch_size: int | None = None,
        symmetry: SymmetryGroup | None = None,
        min_feasible_f: int | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.space_rows = tuple(as_intvec(row) for row in space)
        self.method = method
        size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = size
        self.batches_evaluated = 0
        self.fastpath_promotions = 0
        self.orbits_collapsed = 0
        self.candidates_skipped = 0
        self.conflict_screens = 0
        self.symmetry = (
            symmetry if symmetry is not None and symmetry.order > 1 else None
        )
        self.min_feasible_f = min_feasible_f
        self._orbit_memo: dict[tuple[int, ...], int] = {}
        self._mu_arr = np.array([int(m) for m in algorithm.mu], dtype=np.int64)
        self.n = algorithm.n
        self.k = len(self.space_rows) + 1
        points = 1
        for m in algorithm.mu:
            points *= int(m) + 1
        self._chunk = max(1, min(size, _BATCH_CELL_LIMIT // max(1, points)))
        deps = [tuple(int(x) for x in d) for d in algorithm.dependence_vectors()]
        self._dep_mat: IntMat | None = (
            as_intmat([list(row) for row in zip(*deps)]) if deps else None
        )
        self._s_mat: IntMat | None = None
        self._kernel: IntMat | None = None
        if self.k == 1:
            # No space rows: rank([Pi]) == 1 for every (non-zero) candidate.
            self._rank_mode = "all-pass"
        else:
            self._s_mat = as_intmat([list(row) for row in self.space_rows])
            kernel_cols = (
                kernel_basis(self._s_mat)
                if self._s_mat.rank() == self.k - 1
                else []
            )
            if kernel_cols:
                self._rank_mode = "kernel"
                self._kernel = as_intmat(
                    [list(row) for row in zip(*[list(c) for c in kernel_cols])]
                )
            else:
                # Row-deficient S (or S already spanning Q^n): no Pi can
                # lift [S; Pi] to rank k.
                self._rank_mode = "all-fail"
        self._conflict_ready = False
        self._pts: np.ndarray | None = None
        self._n_pts = 0
        self._fixed: np.ndarray | None = None
        self._col_thr = INT64_MAX

    def _prepare_conflict(self) -> None:
        pts = self.algorithm.index_set.points_array()
        self._pts = pts
        self._n_pts = pts.shape[0]
        if self.k == 1:
            self._fixed = np.empty((pts.shape[0], 0), dtype=np.int64)
        else:
            assert self._s_mat is not None
            self._fixed = self._s_mat.image_of_points(pts)
        pts_max = int(np.abs(pts).max(initial=0))
        bound = pts_max * max(1, self.n)
        self._col_thr = INT64_MAX if bound == 0 else INT64_MAX // bound
        self._conflict_ready = True

    def _scalar_conflict(self, pi_row: np.ndarray) -> bool:
        self.fastpath_promotions += 1
        t = MappingMatrix(
            space=self.space_rows,
            schedule=tuple(int(v) for v in pi_row),
        )
        return check_conflict_free(t, self.algorithm.mu, method=self.method).holds

    def _survivors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``Pi D > 0`` mask and the indices passing deps and rank.

        The rank screen runs only on the dependence survivors.
        """
        if self._dep_mat is None:
            dep_mask = np.ones(len(rows), dtype=bool)
        else:
            dep_mask, promoted = batch_dependence_mask(rows, self._dep_mat)
            self.fastpath_promotions += promoted
        passed = np.flatnonzero(dep_mask)
        if self._rank_mode == "all-fail":
            return dep_mask, passed[:0]
        if self._rank_mode == "kernel":
            assert self._kernel is not None
            rank_mask, promoted = batch_nonzero_mask(rows[passed], self._kernel)
            self.fastpath_promotions += promoted
            passed = passed[rank_mask]
        return dep_mask, passed

    def _screen(self, rows: np.ndarray) -> np.ndarray:
        """Conflict-freedom of deps+rank survivors, as a boolean mask."""
        ok = np.zeros(len(rows), dtype=bool)
        if len(rows) == 0:
            return ok
        if self.k == self.n:
            # Co-rank 0: a full-rank square mapping is injective on Z^n.
            ok[:] = True
            return ok
        todo = np.arange(len(rows))
        if self.min_feasible_f is not None:
            # Budgets below the LP bound cannot be conflict-free; assign
            # the screen's inevitable verdict without running it.
            below = np.abs(rows) @ self._mu_arr < self.min_feasible_f
            self.candidates_skipped += int(np.count_nonzero(below))
            todo = todo[~below]
            if todo.size == 0:
                return ok
        self.conflict_screens += int(todo.size)
        if not self._conflict_ready:
            self._prepare_conflict()
        assert self._pts is not None and self._fixed is not None
        certified = np.abs(rows[todo]).max(axis=1, initial=0) <= self._col_thr
        if self._fixed.dtype == object:
            certified[:] = False
        fast_idx = todo[certified]
        scalar_idx = todo[~certified].tolist()
        if fast_idx.size:
            t_cols, _ = batch_point_images(self._pts, rows[fast_idx])
            counts = batch_distinct_image_counts(self._fixed, t_cols[:, :, None])
            ok[fast_idx] = counts == self._n_pts
            scalar_idx.extend(fast_idx[counts < 0].tolist())
        for i in scalar_idx:
            ok[i] = self._scalar_conflict(rows[i])
        return ok

    def _stage_codes(self, rows: np.ndarray) -> np.ndarray:
        """Stage of each row as an index into :data:`_STAGE_BY_CODE`."""
        dep_mask, passed = self._survivors(rows)
        codes = dep_mask.astype(np.int8)  # 0 = deps, 1 = rank
        codes[passed] = _CODE_CONFLICT + self._screen(rows[passed])
        return codes

    def _collapse(
        self, rows: np.ndarray, evaluate: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Orbit collapse: ``evaluate`` each fresh representative once.

        Returns the memoized stage code of every row's representative,
        in row order.  Representatives share the member's budget ``f``
        (mu-compatibility), so memo entries are only ever hit within
        their own ring.
        """
        assert self.symmetry is not None
        keys = [tuple(row) for row in self.symmetry.canonicalize_rows(rows).tolist()]
        memo = self._orbit_memo
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            codes = evaluate(np.array(fresh, dtype=np.int64))
            memo.update(zip(fresh, codes.tolist()))
        self.orbits_collapsed += len(keys) - len(fresh)
        return np.array([memo[key] for key in keys], dtype=np.int8)

    def iter_stages(
        self, pis: np.ndarray
    ) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(offset, stage_codes)`` per chunk, lazily in order.

        One stage code per candidate — the records a shard worker ships
        back for the parent's merge.
        """
        for start in range(0, len(pis), self._chunk):
            chunk = pis[start : start + self._chunk]
            self.batches_evaluated += 1
            if self.symmetry is None:
                codes = self._stage_codes(chunk)
            else:
                codes = self._collapse(chunk, self._stage_codes)
            yield start, [_STAGE_BY_CODE[c] for c in codes.tolist()]

    def scan_ring(
        self, pis: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
        """Whole-ring funnel: ``(deps mask, survivor indices, verdicts)``.

        The masks cover the whole ring in one batch; ``verdicts`` lazily
        yields ``(offset, conflict_free_mask)`` per chunk of the deps+rank
        survivors ``pis[survivor indices]``, so a search stops screening
        at its winner.
        """
        self.batches_evaluated += 1
        dep_mask, passed = self._survivors(pis)
        return dep_mask, passed, self._iter_verdicts(pis[passed])

    def _iter_verdicts(
        self, survivors: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Survivors are in scan order, so their budgets ``f`` never
        decrease: those below the LP bound form a prefix that goes out as
        one chunk, unscreened.  The rest are screened in chunks doubling
        from one row up to the memory cap, so a search whose winner is
        among the first screenable survivors stops after a handful of
        screens.  Only survivors are canonicalized (with symmetry on).
        """
        start, size = 0, 1
        if self.min_feasible_f is not None:
            f = np.abs(survivors) @ self._mu_arr
            start = int(np.searchsorted(f, self.min_feasible_f))
            if start:
                yield 0, self._verdicts(survivors[:start])
        while start < len(survivors):
            chunk = survivors[start : start + size]
            yield start, self._verdicts(chunk)
            start += len(chunk)
            size = min(2 * size, self._chunk)

    def _verdicts(self, rows: np.ndarray) -> np.ndarray:
        self.batches_evaluated += 1
        if self.symmetry is None:
            return self._screen(rows)
        codes = self._collapse(rows, lambda reps: _CODE_CONFLICT + self._screen(reps))
        return codes == _CODE_OK


def search_bounds(
    algorithm: UniformDependenceAlgorithm,
    *,
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
) -> tuple[int, int, int]:
    """Resolve Procedure 5.1's ``(alpha, initial_bound, max_bound)`` defaults.

    One place owns the defaulting rules so the serial search and the
    sharded engine (:mod:`repro.dse.executor`) expand exactly the same
    rings — a prerequisite for their results comparing equal.
    """
    mu = algorithm.mu
    n = algorithm.n
    if alpha is None:
        alpha = max(1, min(mu))
    if initial_bound is None:
        initial_bound = sum(mu)
    if max_bound is None:
        max_bound = (n + 1) * (max(mu) + 1) * max(mu)
    return alpha, initial_bound, max_bound


def procedure_5_1(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
    batch: bool = True,
    batch_size: int | None = None,
    symmetry: bool = True,
    ring_bound: bool = True,
) -> SearchResult:
    """Find the time-optimal conflict-free schedule for a fixed ``S``.

    Parameters
    ----------
    algorithm:
        The uniform dependence algorithm ``(J, D)``.
    space:
        The given space mapping matrix ``S`` (Problem 2.2 assumes it).
    method:
        Conflict-checking mode passed to
        :func:`repro.core.conditions.check_conflict_free`; ``"auto"``
        follows the paper's Step 5(3) dispatch, ``"exact"`` uses the
        kernel-box oracle.
    alpha:
        Ring growth increment ``x_{l+1} = x_l + alpha`` (default: the
        smallest ``mu_i``).
    initial_bound:
        Starting ``x_1`` (default ``sum(mu)``, enough to contain the
        all-ones schedule).
    max_bound:
        Hard stop; ``None`` derives a conservative cap of
        ``(n + 1) * (max mu + 1) * max mu`` — beyond the largest
        objective any of the closed-form optima in the paper reach.
    extra_constraint:
        Optional predicate on the assembled mapping (used for
        Definition 2.2 condition 2 by :mod:`repro.core.pipeline`).
    batch:
        Evaluate rings through the vectorized
        :class:`BatchCandidateScanner` funnel where
        :func:`batch_supported` holds (the default); ``False`` forces
        the one-candidate-at-a-time scalar loop.  Both produce the same
        winner, tie order, counters and verdict — the escape hatch
        exists for cross-checking and diagnosis, not for different
        answers.
    batch_size:
        Candidates per vectorized batch (default
        :data:`DEFAULT_BATCH_SIZE`, memory-capped per chunk).
    symmetry:
        Collapse candidates related by the funnel's signed-permutation
        symmetry group (:mod:`repro.core.symmetry`) onto one orbit
        representative each (the default).  Only applied for the exact
        conflict deciders (``method="auto"``/``"exact"``); the result —
        winner, verdict, tie set and every deterministic counter — is
        bit-identical either way, only the work changes.
    ring_bound:
        Skip conflict screens for candidates whose budget sits below
        the LP-relaxation lower bound of the co-rank-1 disjunctive
        programs (:func:`repro.core.ilp_formulation.schedule_lower_bound`),
        the default.  LP failures degrade to "no bound, scan normally"
        and are recorded as a ``ring_bound_failed`` trace event; results
        are bit-identical with the flag on or off.

    Notes
    -----
    Because candidates are visited in non-decreasing total time and the
    checks are exact (for ``method="exact"``) or sufficient-and-
    necessary for co-rank <= 3 (``method="auto"``), the first surviving
    candidate is optimal.
    """
    mu = algorithm.mu
    # Pre-normalized IntVec rows: MappingMatrix construction inside the
    # candidate loop then reuses them as-is instead of re-validating.
    space_rows = tuple(as_intvec(row) for row in space)
    k = len(space_rows) + 1
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    disabled_reason = batch_disabled_reason(method, max_bound) if batch else None
    use_batch = batch and disabled_reason is None
    group: SymmetryGroup | None = None
    if symmetry and method in ("auto", "exact"):
        candidate_group = symmetry_group_for(algorithm, space_rows)
        if candidate_group.order > 1:
            group = candidate_group
    min_f: int | None = None
    bound_reason: str | None = None
    if ring_bound:
        # Lazy import: repro.core.ilp_formulation pulls in repro.ilp
        # (scipy) which plain enumerative searches don't need.
        from .ilp_formulation import schedule_lower_bound

        min_f, bound_reason = schedule_lower_bound(algorithm, space_rows)
    scanner = (
        BatchCandidateScanner(
            algorithm,
            space_rows,
            method=method,
            batch_size=batch_size,
            symmetry=group,
            min_feasible_f=min_f,
        )
        if use_batch
        else None
    )

    tracer = get_tracer()
    stats = SearchStats()
    if disabled_reason is not None:
        stats.batch_disabled_reason = disabled_reason
        _warn_batch_disabled(disabled_reason)
    examined = 0
    rings = 0
    x_prev = -1
    x = initial_bound
    result: SearchResult | None = None
    # The root span is the single timing source: SearchStats.wall_time
    # is read back from its monotonic duration after it closes.
    root = tracer.span(
        "core.procedure_5_1",
        algorithm=algorithm.name,
        method=method,
        alpha=alpha,
        initial_bound=initial_bound,
        max_bound=max_bound,
        batch=use_batch,
        symmetry_order=group.order if group is not None else 1,
        ring_bound=min_f,
    )
    if disabled_reason is not None:
        root.set(batch_disabled_reason=disabled_reason)
    scalar_memo: dict[tuple[int, ...], str] = {}
    with root:
        while x_prev < max_bound and result is None:
            f_hi = min(x, max_bound)
            ring_span = tracer.span(
                "core.ring", ring=rings, f_min=x_prev + 1, f_max=f_hi
            )
            with ring_span:
                if rings == 0 and bound_reason is not None:
                    tracer.event("ring_bound_failed", reason=bound_reason)
                    ring_span.set(ring_bound_failed=bound_reason)
                if min_f is not None and f_hi < min_f:
                    stats.rings_bounded_out += 1
                    ring_span.set(bounded_out=True)
                if scanner is not None:
                    winner = _scan_ring_batched(
                        scanner,
                        algorithm,
                        space_rows,
                        mu,
                        method,
                        extra_constraint,
                        f_min=x_prev + 1,
                        f_max=f_hi,
                        stats=stats,
                        examined=examined,
                    )
                else:
                    winner = _scan_ring_scalar(
                        algorithm,
                        space_rows,
                        k,
                        mu,
                        method,
                        extra_constraint,
                        f_min=x_prev + 1,
                        f_max=f_hi,
                        stats=stats,
                        examined=examined,
                        symmetry=group,
                        min_f=min_f,
                        memo=scalar_memo,
                    )
                examined, ring_size, found = winner
                ring_span.set(candidates=ring_size)
                if found is not None:
                    cand, t, verdict = found
                    stats.rings_expanded = rings
                    ring_span.set(winner=list(cand.pi))
                    result = SearchResult(
                        schedule=cand,
                        mapping=t,
                        verdict=verdict,
                        candidates_examined=examined,
                        rings_expanded=rings,
                        stats=stats,
                    )
            if result is None:
                rings += 1
                x_prev = min(x, max_bound)
                x += alpha

    if result is None:
        stats.rings_expanded = rings
        result = SearchResult(
            schedule=None,
            mapping=None,
            verdict=None,
            candidates_examined=examined,
            rings_expanded=rings,
            stats=stats,
        )
    if scanner is not None:
        stats.batches_evaluated = scanner.batches_evaluated
        stats.fastpath_promotions = scanner.fastpath_promotions
        stats.orbits_collapsed += scanner.orbits_collapsed
        stats.candidates_skipped += scanner.candidates_skipped
        stats.conflict_screens += scanner.conflict_screens
    # stats is shared with the result; the frozen dataclass holds the
    # reference, so deriving wall_time from the span after construction
    # is visible to callers.
    stats.wall_time = root.duration
    stats.shard_wall_times = (stats.wall_time,)
    return result


_RingWinner = tuple[LinearSchedule, MappingMatrix, ConditionVerdict]


def _scan_ring_scalar(
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    k: int,
    mu: Sequence[int],
    method: str,
    extra_constraint: Callable[[MappingMatrix], bool] | None,
    *,
    f_min: int,
    f_max: int,
    stats: SearchStats,
    examined: int,
    symmetry: SymmetryGroup | None = None,
    min_f: int | None = None,
    memo: dict[tuple[int, ...], str] | None = None,
) -> tuple[int, int, _RingWinner | None]:
    """One-ring scalar scan; returns (examined, ring size, winner).

    With ``symmetry`` each orbit representative is judged once and the
    outcome replayed for every member; with ``min_f`` the conflict
    screen is skipped (verdict "conflict" pre-assigned) below the LP
    bound.  Both replicate the unpruned loop's counters exactly.
    """
    ring: list[LinearSchedule] = [
        LinearSchedule(pi=pi, index_set=algorithm.index_set)
        for pi in enumerate_schedule_vectors(mu, f_max, f_min=f_min)
    ]
    stats.candidates_enumerated += len(ring)
    ring.sort(key=LinearSchedule.sort_key)
    use_sym = symmetry is not None and symmetry.order > 1
    if memo is None:
        memo = {}

    def judge(pi: tuple[int, ...]) -> str:
        sched = LinearSchedule(pi=pi, index_set=algorithm.index_set)
        if not sched.respects(algorithm):
            return STAGE_DEPS
        t_rep = MappingMatrix(space=space_rows, schedule=pi)
        if t_rep.rank() != k:
            return STAGE_RANK
        if min_f is not None and sched.f < min_f:
            stats.candidates_skipped += 1
            return STAGE_CONFLICT
        stats.conflict_screens += 1
        holds = check_conflict_free(t_rep, mu, method=method).holds
        return STAGE_OK if holds else STAGE_CONFLICT

    for cand in ring:
        if use_sym:
            assert symmetry is not None
            rep = symmetry.canonicalize(cand.pi)
            outcome = memo.get(rep)
            if outcome is None:
                outcome = judge(rep)
                memo[rep] = outcome
            else:
                stats.orbits_collapsed += 1
            if outcome == STAGE_DEPS:
                stats.candidates_pruned += 1
                continue
            examined += 1
            if outcome == STAGE_RANK:
                stats.candidates_pruned += 1
                continue
            stats.candidates_checked += 1
            if outcome == STAGE_CONFLICT:
                stats.conflicts_rejected += 1
                continue
            # The orbit representative is conflict-free, hence (by the
            # group's stage invariance) so is this member; its own
            # verdict object is still computed so the returned result is
            # the very one the unpruned loop produces.
            t = MappingMatrix(space=space_rows, schedule=cand.pi)
            stats.conflict_screens += 1
            verdict = check_conflict_free(t, mu, method=method)
            if not verdict.holds:  # pragma: no cover - orbit invariance
                stats.conflicts_rejected += 1
                continue
            if extra_constraint is not None and not extra_constraint(t):
                continue
            return examined, len(ring), (cand, t, verdict)
        if not cand.respects(algorithm):
            stats.candidates_pruned += 1
            continue
        t = MappingMatrix(space=space_rows, schedule=cand.pi)
        examined += 1
        if t.rank() != k:
            stats.candidates_pruned += 1
            continue
        stats.candidates_checked += 1
        if min_f is not None and cand.f < min_f:
            # The LP bound proves the screen would reject; record the
            # rejection it would have produced.
            stats.candidates_skipped += 1
            stats.conflicts_rejected += 1
            continue
        stats.conflict_screens += 1
        verdict = check_conflict_free(t, mu, method=method)
        if not verdict.holds:
            stats.conflicts_rejected += 1
            continue
        if extra_constraint is not None and not extra_constraint(t):
            continue
        return examined, len(ring), (cand, t, verdict)
    return examined, len(ring), None


def _scan_ring_batched(
    scanner: BatchCandidateScanner,
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    mu: Sequence[int],
    method: str,
    extra_constraint: Callable[[MappingMatrix], bool] | None,
    *,
    f_min: int,
    f_max: int,
    stats: SearchStats,
    examined: int,
) -> tuple[int, int, _RingWinner | None]:
    """One-ring batched scan, counter-compatible with the scalar scan.

    The dependence mask runs once over the whole ring and the rank mask
    over its survivors; only deps+rank survivors are canonicalized and
    conflict-screened, chunk by chunk in scan order, stopping at the
    winner.  Counters then follow the scalar loop's prefix semantics
    exactly — they accumulate only up to (and including) the winning
    candidate — and are folded from the masks with prefix counts.  The
    winner's verdict is recomputed by the scalar
    :func:`check_conflict_free` so the returned :class:`ConditionVerdict`
    is the very object the scalar path would produce.
    """
    pis = ring_candidate_array(mu, f_max, f_min=f_min)
    stats.candidates_enumerated += len(pis)
    dep_mask, survivors, verdicts = scanner.scan_ring(pis)
    screened: list[np.ndarray] = []
    found: _RingWinner | None = None
    # The fold's prefix: ring rows [0, end) holding survivors [0, n_surv).
    end, n_surv = len(pis), len(survivors)
    for start, ok in verdicts:
        screened.append(ok)
        for pos in np.flatnonzero(ok).tolist():
            row = int(survivors[start + pos])
            cand = LinearSchedule(
                pi=tuple(int(v) for v in pis[row]), index_set=algorithm.index_set
            )
            t = MappingMatrix(space=space_rows, schedule=cand.pi)
            verdict = check_conflict_free(t, mu, method=method)
            if not verdict.holds:  # pragma: no cover - screen is exact
                ok[pos] = False
                continue
            if extra_constraint is not None and not extra_constraint(t):
                # Conflict-free but refused: checked, not a conflict.
                continue
            found = (cand, t, verdict)
            end, n_surv = row + 1, start + pos + 1
            break
        if found is not None:
            break
    conflict_free = (
        int(np.count_nonzero(np.concatenate(screened)[:n_surv])) if screened else 0
    )
    stats.candidates_pruned += end - n_surv
    stats.candidates_checked += n_surv
    stats.conflicts_rejected += n_surv - conflict_free
    examined += int(np.count_nonzero(dep_mask[:end]))
    return examined, len(pis), found


def find_all_optima(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    **kwargs,
) -> list[SearchResult]:
    """All co-optimal conflict-free schedules (Procedure 5.1's full tie set).

    The paper's Example 5.1 notes two optima (``[1, mu, 1]`` and
    ``[mu, 1, 1]``); this returns every schedule achieving the minimal
    total time, each wrapped as a :class:`SearchResult`.  Runs the
    standard search once for the optimum, then sweeps the optimal ring
    exhaustively in the search's documented
    :meth:`~repro.core.schedule.LinearSchedule.sort_key` order.

    Each returned result carries its *own* :class:`SearchStats` copy
    (same counter values — one search was performed); mutating one
    result's telemetry never leaks into its siblings.

    The tie sweep honors the same ``symmetry`` keyword as
    :func:`procedure_5_1`: orbits whose representative fails the
    conflict screen are dismissed wholesale, while every *surviving*
    member still gets its own verdict object — the returned tie list is
    bit-identical to the unpruned sweep, in the same sort-key order.
    """
    first = procedure_5_1(algorithm, space, method=method, **kwargs)
    if not first.found:
        return []
    mu = algorithm.mu
    space_rows = tuple(as_intvec(row) for row in space)
    k = len(space_rows) + 1
    group: SymmetryGroup | None = None
    if kwargs.get("symmetry", True) and method in ("auto", "exact"):
        candidate_group = symmetry_group_for(algorithm, space_rows)
        if candidate_group.order > 1:
            group = candidate_group
    rep_holds: dict[tuple[int, ...], bool] = {}
    best_f = first.schedule.f
    results: list[SearchResult] = []
    for row in ring_candidate_array(mu, best_f, f_min=best_f).tolist():
        cand = LinearSchedule(pi=tuple(row), index_set=algorithm.index_set)
        if not algorithm.is_acyclic_under(cand.pi):
            continue
        t = MappingMatrix(space=space_rows, schedule=cand.pi)
        if t.rank() != k:
            continue
        if group is not None:
            rep = group.canonicalize(cand.pi)
            holds = rep_holds.get(rep)
            if holds is None:
                rep_t = MappingMatrix(space=space_rows, schedule=rep)
                holds = check_conflict_free(rep_t, mu, method=method).holds
                rep_holds[rep] = holds
            if not holds:
                continue
        verdict = check_conflict_free(t, mu, method=method)
        if not verdict.holds:
            # Unreachable when group pre-screened the orbit (invariance);
            # the ordinary rejection path otherwise.
            continue
        results.append(
            SearchResult(
                schedule=cand,
                mapping=t,
                verdict=verdict,
                candidates_examined=first.candidates_examined,
                rings_expanded=first.rings_expanded,
                stats=replace(first.stats),
            )
        )
    return results


# Backwards-friendly alias matching the paper's wording.
find_time_optimal_schedule = procedure_5_1
