"""Quiet under kernel-purity: stdlib imports only, read-only columns.

Loaded masquerading as a ``src/repro/core/kernels/`` module.
"""

from bisect import bisect_left


def count_kinds(times, kinds):
    total = 0
    for kind in kinds:
        total += 1 if kind else 0
    return total + len(times) + bisect_left(times, 0.0)
