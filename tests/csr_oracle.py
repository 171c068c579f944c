"""scipy as the tests' view of the generator's entries."""

import scipy.sparse as sp


def csr(restricted):
    """`LindbladGenerator.restrict`'s (pairs, (rows, cols, vals)) as (pairs,
    the scipy CSR array of L on the pairs)."""
    pairs, (rows, cols, vals) = restricted
    return pairs, sp.csr_array((vals, (rows, cols)), shape=(len(pairs),) * 2)
