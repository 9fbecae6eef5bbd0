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
from repro.core.conflict import (
    batch_distinct_image_counts,
    batch_theorem_3_1,
    conflict_functional_rows,
)
from repro.core.ilp_formulation import schedule_lower_bound
from repro.core.optimize import (
    BatchCandidateScanner,
    _scalar_tally,
    find_all_optima,
    procedure_5_1,
    ring_candidate_array,
)
from repro.core.mapping import MappingMatrix
from repro.core.schedule import LinearSchedule
from repro.core.symmetry import symmetry_group_for
from repro.dse.executor import explore_schedule
from repro.core.space_optimize import (
    enumerate_space_mappings,
    evaluate_design,
    evaluate_designs_batched,
)
from repro.intlin import INT64_MAX, as_intmat, as_intvec, batch_matmul, batch_point_images
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


def refuse_first(count):
    """An ``accept`` hook refusing the first ``count`` vectors it sees."""
    seen = []

    def accept(pi):
        seen.append(pi)
        return len(seen) > count

    accept.seen = seen
    return accept


class TestRingTally:
    """``BatchCandidateScanner.tally`` equals the scalar reference
    ``_scalar_tally`` on any contiguous slice of a ring, field by field
    (winner offset included), with and without an ``accept`` hook and
    with each pruner on or off."""

    @given(
        algorithm_and_space(),
        st.integers(0, 6),
        st.data(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_tally_matches_scalar_reference(
        self, case, extra, data, symmetry, ring_bound, reject
    ):
        algo, space = case
        space_rows = tuple(as_intvec(row) for row in space)
        f_max = sum(algo.mu) + extra
        pis = ring_candidate_array(algo.mu, f_max)
        start = data.draw(st.integers(0, len(pis)), label="start")
        stop = data.draw(st.integers(start, len(pis)), label="stop")
        group = symmetry_group_for(algo, space_rows) if symmetry else None
        min_f = schedule_lower_bound(algo, space_rows)[0] if ring_bound else None
        # reject == 0 runs without a hook at all.
        hooks = [refuse_first(reject), refuse_first(reject)] if reject else [None, None]
        scanner = BatchCandidateScanner(
            algo, space_rows, batch_size=7, symmetry=group, min_feasible_f=min_f
        )
        batched = scanner.tally(pis[start:stop], hooks[0])
        scalar = _scalar_tally(
            algo, space_rows, pis[start:stop], hooks[1], min_f=min_f
        )
        assert batched == scalar
        assert batched._asdict() == scalar._asdict()
        if reject:
            assert hooks[0].seen == hooks[1].seen


@st.composite
def corank1_case(draw):
    """A random co-rank-1 pair: ``S`` with ``n - 2`` rows, and ``Pi``."""
    n = draw(st.integers(3, 5))
    mu = tuple(draw(st.integers(1, 3 if n < 5 else 2)) for _ in range(n))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    space = [tuple(draw(vec)) for _ in range(n - 2)]
    pi = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return mu, space, pi


MATMUL_SIGNS = [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


class TestCorank1ClosedForm:
    """The co-rank-1 screen is Theorem 3.1 in closed form: its verdict
    equals the image screen's and the exact decider's, rows past its
    int64 certificate are promoted, and the search stays bit-identical
    to the scalar reference."""

    @given(corank1_case())
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_image_screen_and_exact(self, case):
        mu, space, pi = case
        t = MappingMatrix(space=space, schedule=pi)
        if t.rank() != t.k:
            return  # rank-deficient: pruned before any conflict screen
        functionals = np.array(conflict_functional_rows(space, len(mu)), dtype=np.int64)
        pis = np.array([pi], dtype=np.int64)
        closed = bool(batch_theorem_3_1(pis, functionals, np.array(mu))[0])
        pts = ConstantBoundedIndexSet(mu).points_array()
        fixed = as_intmat(space).image_of_points(pts)
        images, _ = batch_point_images(pts, pis)
        count = batch_distinct_image_counts(fixed, images[:, :, None])[0]
        assert closed == (count == len(pts))
        assert closed == check_conflict_free(t, mu, method="exact").holds

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_rows_past_the_threshold_are_promoted(self, offsets):
        algo = matrix_multiplication(4)
        space = ((1, 1, -1),)
        functionals = conflict_functional_rows(space, 3)
        thr = INT64_MAX // (3 * max(abs(x) for row in functionals for x in row) * 4)
        rows = np.array(
            [[1, thr + off, 2 * off + 1] for off in offsets], dtype=np.int64
        )
        scanner = BatchCandidateScanner(algo, space)
        ok = scanner._screen(rows)
        assert scanner.fastpath_promotions == sum(1 for off in offsets if off > 0)
        assert scanner._pts is None  # no index points were ever built
        for row, verdict in zip(rows.tolist(), ok.tolist()):
            t = MappingMatrix(space=space, schedule=tuple(row))
            assert verdict == check_conflict_free(t, algo.mu, method="exact").holds

    @pytest.mark.parametrize("big", [2**40, 2**62, 2**64])
    def test_huge_space_entries_match_scalar(self, big):
        # Past 2^62 no row is certified (and past 2^63 F itself leaves
        # int64): every screened row must take the exact scalar path.
        algo = matrix_multiplication(3)
        space = (as_intvec((big, 1, -1)),)
        pis = ring_candidate_array(algo.mu, 12)
        scanner = BatchCandidateScanner(algo, space)
        assert scanner.tally(pis) == _scalar_tally(algo, space, pis)

    @pytest.mark.parametrize(
        "algo,space",
        [(matrix_multiplication(24), (s,)) for s in MATMUL_SIGNS]
        + [(transitive_closure(24), ((0, 0, s),)) for s in (1, -1)],
        ids=lambda c: getattr(c, "name", None),
    )
    def test_search_matches_scalar_reference(self, algo, space):
        batched = procedure_5_1(algo, space)
        scalar = procedure_5_1(algo, space, batch=False)
        assert batched == scalar
        assert batched.verdict == scalar.verdict
        assert batched.stats.counter_dict() == scalar.stats.counter_dict()


EXAMPLES = [
    (matrix_multiplication(6), ((1, 1, -1),)),
    (matrix_multiplication(8), ((1, 1, -1),)),
    (transitive_closure(5), ((0, 0, 1),)),
    (transitive_closure(6), ((0, 0, 1),)),
]


class TestShardedEqualsSerial:
    """Examples 5.1/5.2 through the sharded engine, every ring split into
    several shards, equal the serial search including its counters."""

    @pytest.mark.parametrize("algo,space", EXAMPLES, ids=lambda c: getattr(c, "name", None))
    def test_two_shards_per_ring(self, algo, space):
        serial = procedure_5_1(algo, space)
        sharded = explore_schedule(algo, space, jobs=2, adaptive=False)
        assert sharded == serial
        assert sharded.stats.counter_dict() == serial.stats.counter_dict()
        assert sharded.stats.shards == 2

    @pytest.mark.parametrize("algo,space", EXAMPLES, ids=lambda c: getattr(c, "name", None))
    @pytest.mark.parametrize("count", [1, 3])
    def test_constraint_sees_the_serial_sequence(self, algo, space, count):
        """``extra_constraint`` is consulted on exactly the serial scan's
        conflict-free candidates, up to the winner, whatever the
        execution strategy: never on candidates past the winner."""
        runs = [
            lambda c: procedure_5_1(algo, space, extra_constraint=c),
            lambda c: explore_schedule(algo, space, jobs=1, extra_constraint=c),
            lambda c: explore_schedule(
                algo, space, jobs=2, adaptive=False, extra_constraint=c
            ),
        ]
        seen, results = [], []
        for run in runs:
            constraint = reject_first(count)
            results.append(run(constraint))
            seen.append(constraint.seen)
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == count + 1
        assert results[0] == results[1] == results[2]


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
