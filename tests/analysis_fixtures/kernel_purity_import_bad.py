"""Trips kernel-purity once: a kernel imports the interning tables.

Loaded masquerading as a ``src/repro/core/kernels/`` module.
"""

import repro.traces.columnar


def first_prefix(pool, wd_prefix):
    return repro.traces.columnar.InternPool.prefix_at(pool, wd_prefix[0])
