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

The property is tested twice: exactly, by enumerating every round of a
small ring under Rec-1's outcome law, and statistically, on the engine's
kept rounds.
"""

from itertools import combinations, product

import numpy as np
import pytest
from scipy import stats
from session_records import counted_dark, recorded

from sqss.adversary import pns_dark
from sqss.config import SimConfig
from sqss.optics import _REC1_CODES, VACUUM, _rec1_bounds, coherent_dark, rec1_law, rec1_measure
from sqss.protocol import RoundTable, _decode, _key_angle, sift


def coalition_views(table, kept, coalition):
    """Each kept round's view for ``coalition`` (0-based receiver indices), as
    one int: j, the parity of S, the coalition's shuffle sum mod 4 and, with
    receiver 1 in it, both arm codes."""
    view = (table.basis_choice[kept].astype(np.int64) - 1) * 2 + (table.shuffle_sum[kept] & 1)
    view = view * 4 + (table.shuffles[kept][:, list(coalition)].sum(axis=1, dtype=np.int64) & 3)
    if 0 in coalition:
        view = (view * 6 + table.rect[kept]) * 6 + table.diag[kept]
    return view


def joint_law(view, bit, weight):
    """P(view, bit) from rounds of probability ``weight``: one row per view
    of positive probability, one column per bit."""
    _, view = np.unique(view, return_inverse=True)
    joint = np.bincount(view * 2 + bit, weight, minlength=2 * (view.max() + 1)).reshape(-1, 2)
    return joint[joint.sum(axis=1) > 0]


# Rec-1's dark tables, one class per column: pulses counted at 1, 2 and 5
# photons, the coherent pulse, and both columns of Eve's reading
DARK_TABLES = {
    "counted": counted_dark(np.array([1, 2, 5]), 0.35)[0],
    "coherent": np.array(coherent_dark(3.0)),
    "eve_reading": np.array(pns_dark(5.4, 0.35)),
}


@pytest.mark.parametrize("receivers", [1, 2, 3, 4])
def test_exact_law_hides_the_bit_from_every_strict_coalition(receivers):
    # every (bit, j, shuffle tuple, Rec-1 cell) at once, each with its probability
    tuples = np.array(list(product(range(4), repeat=receivers)), dtype=np.int64)
    bit, j, index, cell = (a.ravel() for a in np.meshgrid(
        np.arange(2), np.arange(1, 3), np.arange(len(tuples)), np.arange(8), indexing="ij"))
    shuffles = tuples[index]
    shuffle_sum = shuffles.sum(axis=1) & 3
    arrived = (_key_angle(bit, j) + shuffle_sum) & 3
    # each round's Rec-1 uniform at the middle of its cell, in a law where
    # every cell has width; the arms are ranked from it, as a session does
    (dark, bound), column = rec1_law(coherent_dark(3.0)), np.zeros(1, dtype=np.intp)
    edges = np.concatenate(([0.0], _rec1_bounds(dark)[:, 0], [1.0]))
    assert (np.diff(edges) > 0.0).all()
    u = (edges[cell] + edges[cell + 1]) / 2
    rect, diag = rec1_measure(arrived, dark, column, u)
    assert np.array_equal(np.array([rect, diag]), _REC1_CODES[:, arrived * 8 + cell])
    table = RoundTable(shuffle_sum.astype(np.int8), j, bit, rec1_uniform=u)
    kept = sift(table, dark, bound, column)
    public = (j[kept] - 1) * 2 + (shuffle_sum[kept] & 1)
    for name, dark in DARK_TABLES.items():
        # the engine's cell code: a cell counts the bounds at or below a uniform
        bounds = _rec1_bounds(dark)
        assert (bounds >= 0.0).all() and (bounds <= 1.0).all(), name
        assert (np.diff(bounds, axis=0) >= 0.0).all(), name
        for column in np.diff(bounds, axis=0, prepend=0.0, append=1.0).T:
            weight = column[cell[kept]] / (4 * len(tuples))
            assert weight.sum() > 0.0, name
            for size in range(receivers):
                for coalition in combinations(range(receivers), size):
                    view = public * 4 + (shuffles[kept][:, list(coalition)].sum(axis=1) & 3)
                    if 0 in coalition:
                        view = (view * 6 + rect[kept]) * 6 + diag[kept]
                    joint = joint_law(view, bit[kept], weight)
                    share = joint[:, 0] / joint.sum(axis=1)
                    assert np.abs(share - 0.5).max() <= 1e-12, (name, coalition)
            # everyone together: the view fixes the bit, which the decode reads
            view = ((public * 4 + shuffle_sum[kept]) * 6 + rect[kept]) * 6 + diag[kept]
            assert (joint_law(view, bit[kept], weight).min(axis=1) == 0.0).all(), name
            assert np.array_equal(_decode(table.sifted[kept], shuffle_sum[kept]) // 2, bit[kept])


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
