"""Sums that keep the bits of numpy's innermost-axis sum in other layouts.

The class-major Gaussian-mixture kernels (`prior`) and the dual solver
(`solvers`) keep a batch axis innermost in memory, and sum along a
leading or middle axis what a C-ordered layout summed along its
innermost one.  `pairwise_sum` adds those terms in numpy's innermost
order, so the results keep the C-ordered layout's bits.
"""

from __future__ import annotations

import numpy as np


def pairwise_sum(a):
    """Sum over the leading axis of `a`, bit for bit as np.sum adds the
    same terms along the innermost axis of a C-ordered array.

    np.sum adds along any other axis in index order, as it does here below
    8 terms.  Along the innermost axis (the last one longer than 1) it adds
    8 or more terms pairwise: 8 interleaved partial sums over blocks of at
    most 128 terms, halving longer runs at a multiple of 8.
    (numpy adds the sum to a zero-initialized output, which only turns a
    -0.0 sum into 0.0; only an all-zero run of terms can give -0.0.)
    """
    n = len(a)
    if n < 8:
        return np.sum(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(a[:half]) + pairwise_sum(a[half:])
    # order K: the partial sums keep the caller's memory layout
    part = a[:8].copy(order="K")
    for i in range(8, n - n % 8, 8):
        part += a[i:i + 8]
    total = ((part[0] + part[1]) + (part[2] + part[3])) \
        + ((part[4] + part[5]) + (part[6] + part[7]))
    for i in range(n - n % 8, n):
        total += a[i]
    return total
