"""Property tests: the vectorized ring generator matches the walker.

``ring_candidate_array(mu, f_max, f_min=...)`` is Procedure 5.1's
canonical ring materialization; the lazy walker
:func:`enumerate_schedule_vectors` is its oracle.  Both must produce the
same candidate set, and the array must already be in the scan order
``LinearSchedule.sort_key`` defines.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimize import enumerate_schedule_vectors, ring_candidate_array
from repro.core.schedule import LinearSchedule
from repro.model import ConstantBoundedIndexSet
from repro.model.library import bit_level_matrix_multiplication

# Largest f_max drawn per dimension, keeping the walker's ball small.
F_CAP = {1: 14, 2: 12, 3: 9, 4: 7, 5: 6, 6: 5}


def walker_ring(mu, f_max, f_min):
    index_set = ConstantBoundedIndexSet(mu)
    ring = [
        LinearSchedule(pi=pi, index_set=index_set)
        for pi in enumerate_schedule_vectors(mu, f_max, f_min=f_min)
    ]
    ring.sort(key=LinearSchedule.sort_key)
    return [cand.pi for cand in ring]


def assert_matches_walker(mu, f_max, f_min):
    arr = ring_candidate_array(mu, f_max, f_min=f_min)
    assert arr.dtype == np.int64
    assert arr.shape == (arr.shape[0], len(mu))
    assert not arr.flags.writeable
    got = [tuple(int(v) for v in row) for row in arr]
    assert got == walker_ring(mu, f_max, f_min)


@st.composite
def ring_query(draw):
    n = draw(st.integers(1, 6))
    mu = tuple(draw(st.integers(1, 4)) for _ in range(n))
    f_max = draw(st.integers(-3, F_CAP[n]))
    f_min = draw(st.integers(-3, F_CAP[n] + 3))
    return mu, f_max, f_min


class TestRingGenerator:
    @given(ring_query())
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_walker(self, query):
        assert_matches_walker(*query)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=6),
        st.integers(-2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_budget_shell(self, mu, f):
        mu = tuple(mu)
        assert_matches_walker(mu, f, f)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_empty_rings(self, mu, gap):
        mu = tuple(mu)
        # f_min > f_max, and budgets that admit only the zero vector.
        assert ring_candidate_array(mu, gap, f_min=gap + 1).shape == (0, len(mu))
        assert ring_candidate_array(mu, -1 - gap).shape == (0, len(mu))
        assert ring_candidate_array(mu, 0).shape == (0, len(mu))

    def test_all_ones_mu(self):
        assert_matches_walker((1, 1, 1), 4, 2)

    def test_rings_partition_the_ball(self):
        mu = (2, 1, 3)
        ball = ring_candidate_array(mu, 12)
        rings = [ring_candidate_array(mu, hi, f_min=hi - 1) for hi in (2, 4, 6, 8, 10, 12)]
        merged = np.concatenate(rings)
        assert [tuple(r) for r in merged.tolist()] == [tuple(r) for r in ball.tolist()]

    def test_bit_level_ring_past_the_old_box_limit(self):
        # Bit-level matmul (mu, w) = (3, 1): the f = 18 ring's bounding
        # box has 13^3 * 37^2 > 2M points, the size at which ring
        # generation used to fall back to the walker.
        mu = bit_level_matrix_multiplication(3, 1).mu
        assert mu == (3, 3, 3, 1, 1)
        box = 1
        for m in mu:
            box *= 2 * (18 // m) + 1
        assert box > 2_000_000
        assert_matches_walker(mu, 18, 18)
        assert_matches_walker(mu, 18, 16)
