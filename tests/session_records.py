"""A session's records, joined into one table for the tests that read every round."""

from dataclasses import fields

import numpy as np

from sqss.config import SimConfig
from sqss.protocol import RoundTable, SessionResult, run_session


def recorded(config: SimConfig) -> tuple[SessionResult, RoundTable]:
    """Run ``config`` with a records callback; returns the result and every
    chunk it was handed, joined column by column into one table."""
    chunks: list[RoundTable] = []
    result = run_session(config, chunks.append)
    columns = zip(*([getattr(t, f.name) for f in fields(RoundTable)] for t in chunks))
    table = RoundTable(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else c[0]
                         for c in columns))
    return result, table
