"""The one summation rule of the batched kernels.

Every sum over an axis of a batched kernel adds its terms in index order,
whatever the memory layout or the batch size, so a row's result does not
depend on the rows stored next to it.
"""

from __future__ import annotations

import numpy as np


def ordered_sum(a, axis):
    """Sum of `a` over `axis`, adding the terms in index order.

    np.sum adds in index order below 8 terms in any layout.  From 8 terms
    on it adds pairwise along an innermost axis, so a running sum is taken
    instead.
    """
    if a.shape[axis] < 8:
        return a.sum(axis=axis)
    return np.cumsum(a, axis=axis).take(-1, axis=axis)
