"""Trips kernel-purity once: a package module imports numpy.

Loaded masquerading as ``src/repro/core/fit_score.py``.
"""

import numpy


def total_of(counts):
    return int(numpy.sum(counts))
