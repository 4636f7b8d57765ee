"""Quantized Access-Counter values (Table 5).

A block's attribute is the quantized number of accesses counted during the
last residency of its ST entry in the STC:

====== ==========================
Value  Meaning
====== ==========================
0      previously unseen block (default)
1      1-7 accesses
2      8-31 accesses
3      32 or more accesses
====== ==========================

The boundaries are configurable (``MDMConfig.qac_boundaries``) so the
``ablation-qac`` experiment can perturb them.
"""

from __future__ import annotations

from typing import Sequence
from repro.common.errors import InvalidValueError


def quantize_access_count(
    count: int, boundaries: Sequence[int] = (1, 8, 32)
) -> int:
    """Map an access count to its QAC value.

    ``boundaries[i]`` is the smallest count mapping to QAC value ``i+1``;
    counts below ``boundaries[0]`` map to 0.  Boundaries must be strictly
    increasing.
    """
    if count < 0:
        raise InvalidValueError(f"negative access count {count}")
    value = 0
    for index, lower_bound in enumerate(boundaries):
        if count >= lower_bound:
            value = index + 1
        else:
            break
    return value


def bucket_midpoint(
    qac_value: int, boundaries: Sequence[int] = (1, 8, 32)
) -> float:
    """Representative access count for a QAC bucket.

    Interior buckets use their midpoint; the open top bucket uses 1.5x its
    lower bound.  Used only for the cold-start prior of the expected-count
    predictor (before any transitions have been observed).
    """
    if not 1 <= qac_value <= len(boundaries):
        raise InvalidValueError(f"QAC value {qac_value} has no bucket")
    lower = boundaries[qac_value - 1]
    if qac_value == len(boundaries):
        return 1.5 * lower
    upper = boundaries[qac_value]
    return (lower + upper) / 2.0
