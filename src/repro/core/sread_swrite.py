"""SRead / SWrite: the sparse data-rearrangement primitives (Section 3.1).

SRead loads sparsely located micro-tiles from global memory into the dense
tile layout in shared memory; SWrite scatters output micro-tiles back to
their original coordinates.  The rearrangement is piggybacked on the loads
and stores a tensor kernel performs anyway, so the only surcharge is the
difference between streaming and transaction-granular (gather) bandwidth —
zero once a micro-tile fills a 32-byte transaction.

Functionally these are gathers/scatters; this module implements them with
numpy fancy indexing so generated kernels compute real values.  The
latency surcharge lives in the cost layer
(:func:`~repro.hw.memory.gather_efficiency`).
"""

from __future__ import annotations

import numpy as np


def sread_rows(data: np.ndarray, row_index: np.ndarray) -> np.ndarray:
    """Gather whole rows (micro-tiles of shape ``(1, width)``).

    Returns the gathered rows *in index order* — which is unordered; the
    caller's SWrite undoes the permutation.  This is the m-axis SRead of the
    Figure 4 example.
    """
    return data[np.asarray(row_index, dtype=np.int64)]


def swrite_rows(
    out_shape: tuple, row_index: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Scatter computed rows back to their original coordinates.

    The inverse permutation is implicit: row ``i`` of ``rows`` goes to
    ``out[row_index[i]]``, so any SRead order round-trips correctly.
    Unindexed rows stay zero (they correspond to all-zero inputs).  The
    output takes ``rows``' dtype.
    """
    idx = np.asarray(row_index, dtype=np.int64)
    if idx.size != rows.shape[0]:
        raise ValueError(
            f"row_index has {idx.size} entries but rows has {rows.shape[0]}"
        )
    out = np.zeros(out_shape, dtype=rows.dtype)
    out[idx] = rows
    return out


def sread_cols(data: np.ndarray, col_index: np.ndarray) -> np.ndarray:
    """Gather columns (micro-tiles of shape ``(height, 1)``) — k-axis SRead."""
    return data[:, np.asarray(col_index, dtype=np.int64)]


def swrite_cols(
    out_shape: tuple, col_index: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Scatter computed columns back — n-axis SWrite."""
    idx = np.asarray(col_index, dtype=np.int64)
    if idx.size != cols.shape[1]:
        raise ValueError(
            f"col_index has {idx.size} entries but cols has {cols.shape[1]} columns"
        )
    out = np.zeros(out_shape, dtype=cols.dtype)
    out[:, idx] = cols
    return out
