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
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from ..dse.partition import ring_bounds
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
from .conflict import (
    batch_distinct_image_counts,
    batch_theorem_3_1,
    conflict_functional_rows,
)
from .mapping import MappingMatrix
from .schedule import LinearSchedule, objective_f
from .symmetry import SymmetryGroup, symmetry_group_for

__all__ = [
    "BatchCandidateScanner",
    "DEFAULT_BATCH_SIZE",
    "RingTally",
    "SearchResult",
    "batch_disabled_reason",
    "batch_supported",
    "enumerate_schedule_vectors",
    "find_all_optima",
    "fold",
    "procedure_5_1",
    "ring_candidate_array",
    "search_bounds",
]

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
    reference, whose conflict checks stay exact past int64.
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
    the ring is deterministic but unsorted.  It is the oracle for the
    vectorized :func:`ring_candidate_array`, which both Procedure 5.1
    paths scan.
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


class RingTally(NamedTuple):
    """What one contiguous slice of a ring contributes to the search.

    Procedure 5.1 visits candidates in non-decreasing execution time and
    Theorem 2.1 makes the first valid one optimal, so a slice contributes
    the stage counts of its prefix up to and including that candidate
    (the whole slice when none qualifies), plus the candidate's offset.
    """

    examined: int  # passed the dependence condition Pi D > 0
    pruned: int  # failed the dependence condition or the rank condition
    checked: int  # reached the conflict decider
    conflicts: int  # rejected by the conflict decider
    winner: int | None  # offset of the first accepted candidate, if any


#: ``accept(pi)`` judges a conflict-free candidate beyond the funnel
#: (the ``extra_constraint`` hook); ``False`` moves the scan on.
Accept = Callable[[tuple[int, ...]], bool]


def fold(stats: SearchStats, tally: RingTally) -> None:
    """Add a tally's deterministic counters to ``stats``."""
    stats.candidates_pruned += tally.pruned
    stats.candidates_checked += tally.checked
    stats.conflicts_rejected += tally.conflicts


class BatchCandidateScanner:
    """Staged vectorized filter funnel over sorted candidate arrays.

    :meth:`tally` evaluates a contiguous slice of a ring: a vectorized
    ``Pi D > 0`` dependence mask over the whole slice, a vectorized rank
    screen (``Pi`` against the kernel basis of ``S``) on its survivors,
    then an exact vectorized conflict screen on the deps+rank survivors
    only, chunk by chunk, stopping at the first accepted conflict-free
    candidate.  The screen follows the paper's Step 5(3) dispatch by
    co-rank: co-rank 0 is always conflict-free, co-rank 1 uses Theorem
    3.1's closed form (:func:`~repro.core.conflict.batch_theorem_3_1`,
    one ``n x n`` product per chunk), and co-rank >= 2 counts the
    distinct rows of ``[S j | Pi j]`` over the whole index box
    (mixed-radix keys).  Only the candidates whose int64 bounds cannot
    be certified are promoted to the scalar exact
    :func:`~repro.core.conditions.check_conflict_free` path.  The result
    equals :func:`_scalar_tally`'s, the one-candidate-at-a-time
    reference.

    Only valid where :func:`batch_supported` holds; the screen *is* the
    exact conflict decider there.

    Two optional pruners ride on top without changing any tally:

    * ``symmetry`` — a :class:`repro.core.symmetry.SymmetryGroup`; each
      screened survivor is canonicalized to its orbit's representative,
      and each fresh representative is screened once, its verdict
      memoized for every member (valid because the group construction
      certifies verdict invariance).
    * ``min_feasible_f`` — an LP-relaxation lower bound on the budget of
      any conflict-free candidate
      (:func:`repro.core.ilp_formulation.schedule_lower_bound`);
      survivors below it are counted as conflicts without a screen,
      which is exactly the verdict the skipped screen would have given.
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
        self._orbit_memo: dict[tuple[int, ...], bool] = {}
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
        # Co-rank 1: Theorem 3.1's closed form decides the screen, so no
        # index points are ever built (see _screen).
        self._functionals: np.ndarray | None = None
        self._gamma_thr = INT64_MAX
        if self.k == self.n - 1:
            f_rows = conflict_functional_rows(self.space_rows, self.n)
            # |gamma| <= max|pi| * n * max|F| and gcd * mu <= |gamma| * mu:
            # certified in Python ints.  A zero threshold promotes every
            # row, so F need not fit int64 then.
            f_max = max(abs(x) for row in f_rows for x in row)
            scale = self.n * f_max * max(int(m) for m in algorithm.mu)
            self._gamma_thr = INT64_MAX // max(1, scale)
            self._functionals = (
                np.array(f_rows, dtype=np.int64)
                if self._gamma_thr
                else np.zeros((self.n, self.n), dtype=np.int64)
            )
        self._conflict_ready = False
        self._pts: np.ndarray | None = None
        self._n_pts = 0
        self._fixed: np.ndarray | None = None
        self._col_thr = INT64_MAX

    def add_telemetry(self, stats: SearchStats) -> None:
        """Add this scanner's work counters to ``stats`` (telemetry only)."""
        stats.batches_evaluated += self.batches_evaluated
        stats.fastpath_promotions += self.fastpath_promotions
        stats.orbits_collapsed += self.orbits_collapsed
        stats.candidates_skipped += self.candidates_skipped
        stats.conflict_screens += self.conflict_screens

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
        if self._functionals is not None:
            # Co-rank 1: one conflict vector, linear in Pi (Prop 3.2).
            certified = np.abs(rows[todo]).max(axis=1, initial=0) <= self._gamma_thr
            fast_idx = todo[certified]
            if fast_idx.size:
                ok[fast_idx] = batch_theorem_3_1(
                    rows[fast_idx], self._functionals, self._mu_arr
                )
            for i in todo[~certified].tolist():
                ok[i] = self._scalar_conflict(rows[i])
            return ok
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

    def _screen_orbits(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`_screen` once per fresh orbit representative.

        Representatives share the member's budget ``f``
        (mu-compatibility), so memo entries are only ever hit within
        their own ring.
        """
        assert self.symmetry is not None
        keys = [tuple(row) for row in self.symmetry.canonicalize_rows(rows).tolist()]
        memo = self._orbit_memo
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            verdicts = self._screen(np.array(fresh, dtype=np.int64))
            memo.update(zip(fresh, verdicts.tolist()))
        self.orbits_collapsed += len(keys) - len(fresh)
        return np.array([memo[key] for key in keys], dtype=bool)

    def tally(self, pis: np.ndarray, accept: Accept | None = None) -> RingTally:
        """Run the funnel over ``pis``, a contiguous slice of a ring array.

        Stops at the first conflict-free candidate that ``accept`` (when
        given) also takes; the counters cover the prefix up to it.
        """
        self.batches_evaluated += 1
        dep_mask, passed = self._survivors(pis)
        survivors = pis[passed]
        free = 0  # conflict-free survivors before the current chunk
        for start, ok in self._iter_verdicts(survivors):
            for pos in np.flatnonzero(ok).tolist():
                if accept is None or accept(tuple(survivors[start + pos].tolist())):
                    row, n = int(passed[start + pos]), start + pos + 1
                    return RingTally(
                        examined=int(np.count_nonzero(dep_mask[: row + 1])),
                        pruned=row + 1 - n,
                        checked=n,
                        conflicts=n - free - int(np.count_nonzero(ok[: pos + 1])),
                        winner=row,
                    )
            free += int(np.count_nonzero(ok))
        n = len(passed)
        return RingTally(
            int(np.count_nonzero(dep_mask)), len(pis) - n, n, n - free, None
        )

    def _iter_verdicts(
        self, survivors: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, conflict_free_mask)`` per chunk of survivors.

        Survivors are in scan order, so their budgets ``f`` never
        decrease: those below the LP bound form a prefix that goes out as
        one chunk, unscreened.  The rest are screened in chunks doubling
        from one row up to the memory cap, so a search whose winner is
        among the first screenable survivors stops after a handful of
        screens.
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
        return self._screen_orbits(rows)


def _scalar_tally(
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    pis: np.ndarray,
    accept: Accept | None = None,
    *,
    method: str = "auto",
    min_f: int | None = None,
    telemetry: SearchStats | None = None,
) -> RingTally:
    """One candidate at a time: the reference :meth:`BatchCandidateScanner.tally`.

    Serves the paths the vectorized funnel cannot (``batch=False``,
    ``method="paper"``, budgets past 2^31).  Below the LP bound
    ``min_f`` the conflict check is skipped and its inevitable
    rejection counted instead.  ``telemetry`` receives the skipped and
    computed conflict checks.
    """
    k = len(space_rows) + 1
    examined = pruned = checked = conflicts = skipped = screens = 0
    winner = None
    for i, pi in enumerate(map(tuple, pis.tolist())):
        if not algorithm.is_acyclic_under(pi):
            pruned += 1
            continue
        examined += 1
        t = MappingMatrix(space=space_rows, schedule=pi)
        if t.rank() != k:
            pruned += 1
            continue
        checked += 1
        if min_f is not None and objective_f(pi, algorithm.mu) < min_f:
            skipped += 1
            conflicts += 1
            continue
        screens += 1
        if not check_conflict_free(t, algorithm.mu, method=method).holds:
            conflicts += 1
            continue
        if accept is None or accept(pi):
            winner = i
            break
    if telemetry is not None:
        telemetry.candidates_skipped += skipped
        telemetry.conflict_screens += screens
    return RingTally(examined, pruned, checked, conflicts, winner)


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
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    disabled_reason = batch_disabled_reason(method, max_bound) if batch else None
    use_batch = batch and disabled_reason is None
    group = _symmetry_for(algorithm, space_rows, method, symmetry)
    min_f, bound_reason = _lower_bound(algorithm, space_rows, ring_bound)

    tracer = get_tracer()
    stats = SearchStats()
    scanner: BatchCandidateScanner | None = None
    evaluate: Callable[[np.ndarray, Accept | None], RingTally]
    if use_batch:
        scanner = BatchCandidateScanner(
            algorithm,
            space_rows,
            method=method,
            batch_size=batch_size,
            symmetry=group,
            min_feasible_f=min_f,
        )
        evaluate = scanner.tally
    else:
        evaluate = partial(
            _scalar_tally, algorithm, space_rows,
            method=method, min_f=min_f, telemetry=stats,
        )
    accept = _accept(space_rows, extra_constraint)
    if disabled_reason is not None:
        stats.batch_disabled_reason = disabled_reason
        _warn_batch_disabled(disabled_reason)
    examined = 0
    rings = 0
    winner: tuple[int, ...] | None = None
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
    with root:
        for f_lo, f_hi in ring_bounds(initial_bound, alpha, max_bound):
            with tracer.span(
                "core.ring", ring=rings, f_min=f_lo, f_max=f_hi
            ) as ring_span:
                if rings == 0 and bound_reason is not None:
                    tracer.event("ring_bound_failed", reason=bound_reason)
                    ring_span.set(ring_bound_failed=bound_reason)
                if min_f is not None and f_hi < min_f:
                    stats.rings_bounded_out += 1
                    ring_span.set(bounded_out=True)
                pis = ring_candidate_array(mu, f_hi, f_min=f_lo)
                stats.candidates_enumerated += len(pis)
                tally = evaluate(pis, accept)
                fold(stats, tally)
                examined += tally.examined
                ring_span.set(candidates=len(pis))
                if tally.winner is not None:
                    winner = tuple(pis[tally.winner].tolist())
                    ring_span.set(winner=list(winner))
                    break
            rings += 1

    stats.rings_expanded = rings
    if scanner is not None:
        scanner.add_telemetry(stats)
    # stats is shared with the result; the frozen dataclass holds the
    # reference, so deriving wall_time from the span after construction
    # is visible to callers.
    stats.wall_time = root.duration
    stats.shard_wall_times = (stats.wall_time,)
    if winner is None:
        return SearchResult(
            schedule=None,
            mapping=None,
            verdict=None,
            candidates_examined=examined,
            rings_expanded=rings,
            stats=stats,
        )
    t = MappingMatrix(space=space_rows, schedule=winner)
    return SearchResult(
        schedule=LinearSchedule(pi=winner, index_set=algorithm.index_set),
        mapping=t,
        verdict=check_conflict_free(t, mu, method=method),
        candidates_examined=examined,
        rings_expanded=rings,
        stats=stats,
    )


def _symmetry_for(
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    method: str,
    enabled: bool,
) -> SymmetryGroup | None:
    """The funnel symmetry group, when orbit collapsing applies.

    Only under the exact conflict deciders: the paper's sufficient
    conditions are not syntactically symmetric.
    """
    if not enabled or method not in ("auto", "exact"):
        return None
    group = symmetry_group_for(algorithm, space_rows)
    return group if group.order > 1 else None


def _lower_bound(
    algorithm: UniformDependenceAlgorithm, space_rows: tuple, enabled: bool
) -> tuple[int | None, str | None]:
    """The LP ring bound and, when the LP failed, why (``None`` = no bound)."""
    if not enabled:
        return None, None
    # Lazy import: repro.core.ilp_formulation pulls in repro.ilp (scipy),
    # which plain enumerative searches don't need.
    from .ilp_formulation import schedule_lower_bound

    return schedule_lower_bound(algorithm, space_rows)


def _accept(
    space_rows: tuple, extra_constraint: Callable[[MappingMatrix], bool] | None
) -> Accept | None:
    """``extra_constraint`` as an :data:`Accept` hook on raw vectors."""
    if extra_constraint is None:
        return None
    return lambda pi: extra_constraint(MappingMatrix(space=space_rows, schedule=pi))


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
    :meth:`~repro.core.schedule.LinearSchedule.sort_key` order, through
    the same ring evaluator (and ``batch``/``batch_size``/``symmetry``
    keywords) as :func:`procedure_5_1`.  An ``extra_constraint`` applies
    to the sweep as to the search: only ties it accepts are returned.

    Each returned result carries its *own* :class:`SearchStats` copy
    (same counter values — one search was performed); mutating one
    result's telemetry never leaks into its siblings.  Every tie gets
    its own verdict object.
    """
    first = procedure_5_1(algorithm, space, method=method, **kwargs)
    if not first.found:
        return []
    mu = algorithm.mu
    space_rows = tuple(as_intvec(row) for row in space)
    best_f = first.schedule.f
    constraint = kwargs.get("extra_constraint")
    results: list[SearchResult] = []

    def record(pi: tuple[int, ...]) -> bool:
        t = MappingMatrix(space=space_rows, schedule=pi)
        if constraint is not None and not constraint(t):
            return False
        results.append(
            SearchResult(
                schedule=LinearSchedule(pi=pi, index_set=algorithm.index_set),
                mapping=t,
                verdict=check_conflict_free(t, mu, method=method),
                candidates_examined=first.candidates_examined,
                rings_expanded=first.rings_expanded,
                stats=replace(first.stats),
            )
        )
        return False  # keep sweeping: every tie is wanted

    pis = ring_candidate_array(mu, best_f, f_min=best_f)
    if kwargs.get("batch", True) and batch_supported(method, best_f):
        scanner = BatchCandidateScanner(
            algorithm,
            space_rows,
            method=method,
            batch_size=kwargs.get("batch_size"),
            symmetry=_symmetry_for(
                algorithm, space_rows, method, kwargs.get("symmetry", True)
            ),
        )
        scanner.tally(pis, record)
    else:
        _scalar_tally(algorithm, space_rows, pis, record, method=method)
    return results


# Backwards-friendly alias matching the paper's wording.
find_time_optimal_schedule = procedure_5_1
