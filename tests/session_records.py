"""A session's records, joined into one table for the tests that read every round,
and both of Rec-1's arms ranked behind a round as a session with records does."""

from dataclasses import fields

import numpy as np

from sqss.config import SimConfig
from sqss.optics import rec1_measure
from sqss.protocol import RoundTable, SessionResult, _arrived, _light, _rec1_dark, run_session


def recorded(config: SimConfig) -> tuple[SessionResult, RoundTable]:
    """Run ``config`` with a records callback; returns the result and every
    chunk it was handed, joined column by column into one table."""
    chunks: list[RoundTable] = []
    result = run_session(config, chunks.append)
    columns = zip(*([getattr(t, f.name) for f in fields(RoundTable)] for t in chunks))
    table = RoundTable(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else c[0]
                         for c in columns))
    return result, table


def ranked(table: RoundTable, config: SimConfig) -> RoundTable:
    """Fill in ``table``'s ``rect`` and ``diag`` from its own Rec-1 uniforms,
    against the law of ``config``'s ring; returns the table."""
    dark, column = _rec1_dark(_light(config), table.eve_event)
    table.rect, table.diag = rec1_measure(_arrived(table), dark, column, table.rec1_uniform)
    return table
