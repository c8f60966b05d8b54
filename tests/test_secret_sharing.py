"""The (N, N) secret-sharing property, tested on the engine's kept rounds.

At sifting, Alice's basis family j and the parity of the shuffle sum S
are public. A coalition, a strict subset of the receivers, also holds
the sum of its own shuffles mod 4 (the hiding angles cancel) and, when
receiver 1 is in it, both arms' outcome codes; the empty coalition is
an eavesdropper with the public information alone. The shuffles a
coalition misses sum to a value uniform on Z4 whatever it sees, so given
the parity the key angle is one of two angles half a turn apart, which
carry opposite bits in basis j. Alice's bit is therefore independent of
every strict coalition's view, while all N receivers decode it.
"""

from itertools import combinations

import numpy as np
import pytest
from scipy import stats
from session_records import recorded

from sqss.config import SimConfig
from sqss.optics import VACUUM


def coalition_views(table, kept, coalition):
    """Each kept round's view for ``coalition`` (0-based receiver indices), as
    one int: j, the parity of S, the coalition's shuffle sum mod 4 and, with
    receiver 1 in it, both arm codes."""
    view = (table.basis_choice[kept].astype(np.int64) - 1) * 2 + (table.shuffle_sum[kept] & 1)
    view = view * 4 + (table.shuffles[kept][:, list(coalition)].sum(axis=1, dtype=np.int64) & 3)
    if 0 in coalition:
        view = (view * 6 + table.rect[kept]) * 6 + table.diag[kept]
    return view


@pytest.mark.parametrize("receivers", [3, 5])
def test_only_every_receiver_together_learns_the_bit(receivers):
    result, table = recorded(SimConfig(receivers=receivers, rounds=200_000, parity_block=0,
                                       seed=5))
    kept = np.flatnonzero(table.sifted < VACUUM)
    assert len(kept) == result.kept_rounds > 0
    bit = table.bit[kept].astype(np.int64)
    # every strict coalition, the empty one included, tested as one family
    coalitions = [c for size in range(receivers) for c in combinations(range(receivers), size)]
    for coalition in coalitions:
        _, view = np.unique(coalition_views(table, kept, coalition), return_inverse=True)
        width = view.max() + 1
        counts = np.bincount(bit * width + view, minlength=2 * width).reshape(2, width)
        _, pvalue, _, expected = stats.chi2_contingency(counts, correction=False)
        assert expected.min() >= 20, (coalition, expected.min())
        assert pvalue > 1e-4 / len(coalitions), (coalition, pvalue)

    # everyone: receiver 1's sifted arm less the sum of all shuffles is the key angle
    parity = (table.basis_choice[kept] - 1 + table.shuffle_sum[kept]) & 1
    measured = np.where(parity == 0, table.rect[kept], table.diag[kept])
    total = table.shuffles[kept].sum(axis=1, dtype=np.int64)
    assert np.array_equal(((measured - total) & 3) // 2, bit)
