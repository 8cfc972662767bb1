"""Cross-check of the level generator against exhaustive brute force.

For every signature of dimension at most 4 and every edge count, the
inverse-smoothing generator must produce exactly the classes found by
filtering all multigraphs on at most k+1 vertices with all genus
assignments (helpers.oracle_strata), matched through the oracle's own
permutation-search canonical form.
"""

from __future__ import annotations

import pytest

from strata import GnSignature
from helpers import oracle_canon, oracle_strata, raw

SMALL_SIGNATURES = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 0), (2, 1),
]

CELLS = [
    (g, n, k)
    for g, n in SMALL_SIGNATURES
    for k in range(1, GnSignature(g, n).dim + 1)
]


@pytest.mark.parametrize("g,n,k", CELLS)
def test_generator_matches_brute_force(store, g, n, k):
    sig = GnSignature(g, n)
    expected = oracle_strata(g, n, k)
    level = store.level(sig, k)
    assert len(level) == len(expected)
    got = {oracle_canon(*raw(G)) for G in level.values()}
    assert got == set(expected)


def test_dimension_zero_has_no_levels():
    assert GnSignature(0, 3).dim == 0
