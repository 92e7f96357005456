"""CSV rows whose float fields are written as their Python ``repr``.

``repr`` is the shortest string that parses back to the same double, so a
file written this way reads back bit for bit.  Writers format a block of
rows in one call and write it at once.
"""

from itertools import repeat

import numpy as np


def reprs(values):
    """The ``repr`` of each value as a Python float, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def csv_block(*columns):
    """CSV lines, one per row.  A column is a sequence of field strings, or
    one string shared by every row; at least one column is a sequence."""
    cols = [repeat(c) if isinstance(c, str) else c for c in columns]
    return "".join([",".join(row) + "\n" for row in zip(*cols)])
