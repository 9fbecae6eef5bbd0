"""Signed-permutation symmetries of Procedure 5.1's candidate funnel.

Many candidate schedules are related by renaming (and flipping) index
coordinates in a way the problem instance cannot distinguish.  A signed
permutation matrix ``P`` (exactly one ``+-1`` per row and column) maps a
candidate ``Pi`` to ``Pi P``; when ``P`` satisfies all three conditions
below, every stage of the Procedure 5.1 filter funnel — the dependence
screen, the rank screen and the exact conflict screen — gives ``Pi P``
the same answer it gives ``Pi``, and both candidates have the same
execution-time budget ``f = sum |pi_i| mu_i``:

1. **mu-compatibility** — ``mu_i == mu_j`` wherever ``P[i][j] != 0``.
   Then ``f(Pi P) == f(Pi)`` (same ring) and ``P`` maps the difference
   box ``{|d_i| <= mu_i}`` bijectively onto itself.
2. **dependence fixing** — the columns of ``P D`` equal the columns of
   ``D`` as a multiset (signs included).  Then ``(Pi P) D = Pi (D
   sigma)``, so the sign pattern of ``Pi D`` is permuted, never
   changed: the dependence screen is invariant.
3. **space-row stability** — ``rowspan(S P) == rowspan(S)``.  Then
   ``rank([S; Pi P]) == rank([S; Pi])``, and the kernel of ``[S; Pi
   P]`` intersected with the difference box is the image under
   ``P^{-1}`` of the kernel of ``[S; Pi]`` intersected with the same
   box — so exact conflict-freedom is preserved too.

The set of such ``P`` forms a group; :func:`symmetry_group` enumerates
it and :class:`SymmetryGroup` canonicalizes candidates to the
lexicographically smallest member of their orbit.  The scanner then
conflict-screens one representative per orbit and rehydrates the
verdict for every member, which cannot change any search outcome —
only how much work computing it takes.

The invariance argument above covers the *exact* conflict deciders
(``method="auto"``/``"exact"``); the paper's Theorem 4.7/4.8 sufficient
conditions are not syntactically symmetric, so callers must not apply
orbit collapsing to ``method="paper"`` scans.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..intlin import as_intmat

__all__ = ["SymmetryGroup", "symmetry_group", "symmetry_group_for"]

# n! 2^n enumeration is exact but exponential; beyond this dimension we
# return the trivial group rather than stall the search setup.
_MAX_DIMENSION = 7
# Cap on enumerated group elements: canonicalization costs one (N, n)
# matmul per element per chunk, so a huge group would cost more than
# the collapse saves.  Truncation below keeps a stage-preserving *set*
# (every member still maps candidates to funnel-equivalent candidates),
# which is all the memo-based scanner needs for correctness.
_MAX_GROUP_ORDER = 64


class SymmetryGroup:
    """A set of funnel-preserving signed permutations, identity first.

    ``canonicalize``/``canonicalize_rows`` map candidates to the
    lexicographically smallest image under the stored transforms — the
    orbit representative the scanner keys its memo table on.
    """

    __slots__ = ("mats",)

    def __init__(self, mats: Sequence[np.ndarray]) -> None:
        self.mats: tuple[np.ndarray, ...] = tuple(mats)

    @property
    def order(self) -> int:
        """Number of transforms (1 means "no usable symmetry")."""
        return len(self.mats)

    def canonicalize(self, pi: Sequence[int]) -> tuple[int, ...]:
        """The lexicographic minimum of ``{pi P : P in group}``."""
        best = tuple(int(v) for v in pi)
        if len(self.mats) == 1:
            return best
        row = np.array(best, dtype=np.int64)
        for mat in self.mats[1:]:
            img = tuple(int(v) for v in row @ mat)
            if img < best:
                best = img
        return best

    def canonicalize_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`canonicalize` over an ``(N, n)`` array."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(self.mats) == 1 or rows.size == 0:
            return rows
        best = rows.copy()
        for mat in self.mats[1:]:
            image = rows @ mat
            take = _lex_less(image, best)
            best[take] = image[take]
        return best


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a < b`` under tuple (lexicographic) ordering."""
    less = np.zeros(len(a), dtype=bool)
    decided = np.zeros(len(a), dtype=bool)
    for j in range(a.shape[1]):
        lt = a[:, j] < b[:, j]
        gt = a[:, j] > b[:, j]
        less |= lt & ~decided
        decided |= lt | gt
        if decided.all():
            break
    return less


def _exact_rank(rows: list[list[int]]) -> int:
    return as_intmat(rows).rank() if rows else 0


@lru_cache(maxsize=64)
def symmetry_group(
    mu: tuple[int, ...],
    dependence: tuple[tuple[int, ...], ...],
    space: tuple[tuple[int, ...], ...],
) -> SymmetryGroup:
    """The funnel symmetry group of ``(mu, D, S)`` (cached).

    Parameters are hashable normal forms: ``mu`` as a tuple, the
    dependence *columns* as a tuple of tuples, and the space rows as a
    tuple of tuples.  Use :func:`symmetry_group_for` to derive them
    from an algorithm/space pair.
    """
    n = len(mu)
    identity = np.eye(n, dtype=np.int64)
    trivial = SymmetryGroup([identity])
    if n <= 1 or n > _MAX_DIMENSION:
        return trivial
    try:
        dep_cols = np.array(
            [[int(x) for x in col] for col in dependence], dtype=np.int64
        ).reshape(len(dependence), n)
    except OverflowError:
        return trivial
    # D with dependence vectors as columns, matching Pi D > 0.
    d_mat = dep_cols.T
    cols_sorted = sorted(map(tuple, dep_cols.tolist()))
    abs_cols_sorted = sorted(map(tuple, np.abs(dep_cols).tolist()))
    s_rows = [[int(x) for x in row] for row in space]
    s_arr = np.array(s_rows, dtype=np.int64).reshape(len(s_rows), n)
    s_rank = _exact_rank(s_rows)

    mats: list[np.ndarray] = [identity]
    sign_choices = list(itertools.product((1, -1), repeat=n))
    for perm in itertools.permutations(range(n)):
        if any(mu[j] != mu[perm[j]] for j in range(n)):
            continue
        # Column j of P carries +-1 at row perm[j]: (pi P)_j = s_j * pi_perm[j].
        base = np.zeros((n, n), dtype=np.int64)
        for j, i in enumerate(perm):
            base[i, j] = 1
        # Cheap pre-screen: if even |P D| cannot match |D| column-wise,
        # no sign assignment can fix it (signs never change magnitudes).
        if sorted(map(tuple, np.abs(base @ d_mat).T.tolist())) != abs_cols_sorted:
            continue
        for signs in sign_choices:
            mat = base * np.array(signs, dtype=np.int64)[np.newaxis, :]
            if (mat == identity).all():
                continue
            # Candidates transform as row vectors: Pi' = Pi @ mat, so the
            # dependence products are Pi (mat @ D); check mat @ D's columns.
            pd = mat @ d_mat
            if sorted(map(tuple, pd.T.tolist())) != cols_sorted:
                continue
            if s_rows:
                stacked = s_rows + (s_arr @ mat).tolist()
                if _exact_rank(stacked) != s_rank:
                    continue
            mats.append(mat)
            if len(mats) >= _MAX_GROUP_ORDER:
                return SymmetryGroup(mats)
    return SymmetryGroup(mats)


def symmetry_group_for(algorithm, space_rows) -> SymmetryGroup:
    """The cached symmetry group for an algorithm/space pair."""
    mu = tuple(int(m) for m in algorithm.mu)
    deps = tuple(
        tuple(int(x) for x in d) for d in algorithm.dependence_vectors()
    )
    space = tuple(tuple(int(x) for x in row) for row in space_rows)
    return symmetry_group(mu, deps, space)
