"""Property tests: the batched funnel is bit-identical to the scalar scan.

The batched candidate engine's whole contract is *invisibility*: for any
algorithm/space pair, ``procedure_5_1(batch=True)`` must return the same
winner, the same tie order, and the same deterministic counters as the
scalar loop — and the batch primitives must produce exact results on
both sides of the int64 promotion boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import matrix_multiplication, transitive_closure
from repro.core.conditions import check_conflict_free
from repro.core.conflict import batch_distinct_image_counts
from repro.core.mapping import MappingMatrix
from repro.core.optimize import (
    BatchCandidateScanner,
    find_all_optima,
    procedure_5_1,
    ring_candidate_array,
)
from repro.core.schedule import LinearSchedule
from repro.core.space_optimize import (
    enumerate_space_mappings,
    evaluate_design,
    evaluate_designs_batched,
)
from repro.intlin import INT64_MAX, as_intmat, batch_matmul, batch_point_images
from repro.model import ConstantBoundedIndexSet, UniformDependenceAlgorithm


@st.composite
def algorithm_and_space(draw):
    """A random 2-D/3-D algorithm plus a random space mapping row set."""
    n = draw(st.integers(2, 3))
    mu = tuple(draw(st.integers(1, 3)) for _ in range(n))
    cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    extra = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    if extra != (0,) * n and extra not in cols:
        cols.append(extra)
    algo = UniformDependenceAlgorithm(
        index_set=ConstantBoundedIndexSet(mu),
        dependence_matrix=[list(row) for row in zip(*cols)],
        name=f"prop({mu})",
    )
    rows = draw(st.integers(1, n - 1))
    space = []
    for _ in range(rows):
        row = tuple(draw(st.integers(-2, 2)) for _ in range(n))
        space.append(row if any(row) else (1,) + (0,) * (n - 1))
    return algo, space


class TestSearchEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=40, deadline=None)
    def test_procedure_5_1_batched_equals_scalar(self, case):
        algo, space = case
        batched = procedure_5_1(algo, space, batch=True)
        scalar = procedure_5_1(algo, space, batch=False)
        # Dataclass equality covers winner, verdict, examined counts and
        # every deterministic SearchStats counter.
        assert batched == scalar
        assert batched.stats.counter_dict() == scalar.stats.counter_dict()
        assert scalar.stats.batches_evaluated == 0

    @given(algorithm_and_space())
    @settings(max_examples=15, deadline=None)
    def test_tie_order_preserved(self, case):
        algo, space = case
        batched = find_all_optima(algo, space, batch=True)
        scalar = find_all_optima(algo, space, batch=False)
        assert [r.schedule.pi for r in batched] == [
            r.schedule.pi for r in scalar
        ]

    @given(algorithm_and_space())
    @settings(max_examples=30, deadline=None)
    def test_scanner_stage_codes_match_scalar_funnel(self, case):
        algo, space = case
        f_max = sum(algo.mu) + 2
        pis = ring_candidate_array(algo.mu, f_max)
        scanner = BatchCandidateScanner(algo, space, batch_size=7)
        batched = [
            stage
            for _, stages in scanner.iter_stages(pis)
            for stage in stages
        ]
        k = len(space) + 1
        expected = []
        for row in pis:
            pi = tuple(int(v) for v in row)
            cand = LinearSchedule(pi=pi, index_set=algo.index_set)
            if not cand.respects(algo):
                expected.append("deps")
                continue
            t = MappingMatrix(space=space, schedule=pi)
            if t.rank() != k:
                expected.append("rank")
                continue
            holds = check_conflict_free(t, algo.mu, method="auto").holds
            expected.append("ok" if holds else "conflict")
        assert batched == expected


def reject_first(count):
    """A stateful constraint refusing the first ``count`` mappings it sees.

    Procedure 5.1 consults ``extra_constraint`` only on conflict-free
    candidates, in scan order, so this rejects exactly the first
    ``count`` conflict-free mappings of the search.
    """
    seen = []

    def constraint(t):
        seen.append(t.schedule)
        return len(seen) > count

    constraint.seen = seen
    return constraint


class TestExtraConstraintFold:
    """Conflict-free candidates refused by ``extra_constraint`` before the
    winner count in ``examined`` and ``candidates_checked``, never in
    ``conflicts_rejected`` — on the batched path exactly as on the
    scalar one."""

    CASES = [
        (matrix_multiplication(6), ((1, 1, -1),)),
        (matrix_multiplication(4), ((1, 1, -1),)),
        (transitive_closure(5), ((0, 0, 1),)),
    ]

    @pytest.mark.parametrize("algo,space", CASES, ids=lambda c: getattr(c, "name", None))
    @pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "unpruned"])
    def test_rejected_conflict_free_prefix(self, algo, space, pruning):
        kwargs = {"symmetry": pruning, "ring_bound": pruning}
        batched_constraint = reject_first(3)
        scalar_constraint = reject_first(3)
        batched = procedure_5_1(
            algo, space, extra_constraint=batched_constraint, **kwargs
        )
        scalar = procedure_5_1(
            algo, space, batch=False, extra_constraint=scalar_constraint,
            **kwargs,
        )
        assert batched.found
        assert batched == scalar
        assert batched.stats.counter_dict() == scalar.stats.counter_dict()
        assert batched_constraint.seen == scalar_constraint.seen
        assert len(batched_constraint.seen) == 4
        # Three refused conflict-free candidates plus the winner are the
        # only checked candidates not counted as conflicts.
        stats = batched.stats
        assert stats.candidates_checked - stats.conflicts_rejected == 4
        plain = procedure_5_1(algo, space, **kwargs)
        assert batched.schedule.sort_key() > plain.schedule.sort_key()

    @given(algorithm_and_space(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_rejected_prefix_randomized(self, case, count):
        algo, space = case
        batched = procedure_5_1(algo, space, extra_constraint=reject_first(count))
        scalar = procedure_5_1(
            algo, space, batch=False, extra_constraint=reject_first(count)
        )
        assert batched == scalar
        assert batched.stats.counter_dict() == scalar.stats.counter_dict()


class TestSpaceEquivalence:
    @given(algorithm_and_space())
    @settings(max_examples=20, deadline=None)
    def test_design_batch_matches_scalar(self, case):
        algo, _ = case
        pi = tuple(1 for _ in range(algo.n))  # respects unit deps by design
        if not LinearSchedule(pi=pi, index_set=algo.index_set).respects(algo):
            return
        spaces = list(enumerate_space_mappings(algo.n, 1, 1))
        outcomes, batches, _promoted = evaluate_designs_batched(
            algo, spaces, pi
        )
        expected = [evaluate_design(algo, s, pi) for s in spaces]
        assert outcomes == expected
        assert batches >= 1


class TestPromotionBoundary:
    MAT = [[2, -1], [1, 3]]

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_matmul_exact_across_boundary(self, offsets):
        # Rows sit within a few units of the certification threshold:
        # some certified, some promoted, all bit-exact.
        mat = as_intmat(self.MAT)
        thr = INT64_MAX // (mat.max_abs() * mat.nrows)
        rows = [[thr + off, -(thr + off) // 2] for off in offsets]
        out, promoted = batch_matmul(rows, self.MAT)
        cols = mat.columns()
        expected = [
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in rows
        ]
        assert [list(r) for r in out] == expected
        assert promoted == sum(
            1 for row in rows if max(abs(x) for x in row) > thr
        )

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_point_images_exact_across_boundary(self, offsets):
        pts = np.array([[0, 0], [1, 2], [2, 1]], dtype=np.int64)
        thr = INT64_MAX // (2 * 2)  # pts_max=2, n=2
        vecs = [[thr + off, off] for off in offsets]
        images, promoted = batch_point_images(pts, vecs)
        expected = [
            [sum(int(p) * v for p, v in zip(pt, vec)) for vec in vecs]
            for pt in pts
        ]
        assert [list(r) for r in images] == expected
        assert promoted == sum(
            1 for vec in vecs if max(abs(x) for x in vec) > thr
        )

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=2,
            max_size=9,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_distinct_counts_match_set_semantics(self, pairs, n_cands):
        fixed = np.array([[a] for a, _ in pairs], dtype=np.int64)
        varying = np.empty((len(pairs), n_cands, 1), dtype=np.int64)
        for c in range(n_cands):
            varying[:, c, 0] = [b * (c + 1) for _, b in pairs]
        counts = batch_distinct_image_counts(fixed, varying)
        for c in range(n_cands):
            expected = len({(a, b * (c + 1)) for a, b in pairs})
            assert counts[c] == expected

    def test_distinct_counts_overflow_returns_sentinel(self):
        # Spans too wide to key into int64 must refuse (-1), never wrap.
        fixed = np.array([[0], [INT64_MAX - 1]], dtype=np.int64)
        varying = np.array(
            [[[0]], [[INT64_MAX - 1]]], dtype=np.int64
        )
        counts = batch_distinct_image_counts(fixed, varying)
        assert counts.tolist() == [-1]
