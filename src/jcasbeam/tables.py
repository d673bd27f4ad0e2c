"""CSV result tables with a stable numeric format.

Integer columns are written bare, all others with 6 significant digits
(``"%.6g"``), so reading a table back and writing it again reproduces the
same bytes. Line endings are always "\\n" regardless of platform.
"""

from __future__ import annotations

import numpy as np


def write_table(path, columns) -> None:
    """Write ``{name: array}`` columns of equal length to ``path``, one row per index."""
    arrays = [np.asarray(c) for c in columns.values()]
    fmt = ["%d" if np.issubdtype(a.dtype, np.integer) else "%.6g" for a in arrays]
    rows = np.column_stack(arrays)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=",", header=",".join(columns), comments="")
