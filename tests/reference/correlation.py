"""Scalar reference scan for :func:`repro.analysis.correlation.cluster_by_peaks`.

Each server, in descending peak order, is compared with the
representatives one at a time through :func:`envelope_similarity`; the
library computes the same integer Jaccard counts for all
representatives at once.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.correlation import (
    PeakClusters,
    envelope_similarity,
    peak_envelope,
)
from repro.workloads.trace import TraceSet

__all__ = ["cluster_by_peaks_reference"]


def cluster_by_peaks_reference(
    trace_set: TraceSet,
    *,
    body_quantile: float = 0.9,
    similarity_threshold: float = 0.25,
) -> PeakClusters:
    """What ``cluster_by_peaks`` must return, one similarity at a time."""
    envelopes = {
        trace.vm_id: peak_envelope(trace.cpu_rpe2, body_quantile)
        for trace in trace_set
    }
    order = sorted(
        trace_set,
        key=lambda trace: float(trace.cpu_rpe2.max()),
        reverse=True,
    )
    assignment: dict = {}
    representative_envelopes: List[np.ndarray] = []
    for trace in order:
        envelope = envelopes[trace.vm_id]
        chosen = None
        for index, representative in enumerate(representative_envelopes):
            if envelope_similarity(envelope, representative) >= (
                similarity_threshold
            ):
                chosen = index
                break
        if chosen is None:
            chosen = len(representative_envelopes)
            representative_envelopes.append(envelope)
        assignment[trace.vm_id] = chosen
    vm_ids = tuple(trace.vm_id for trace in trace_set)
    return PeakClusters(
        vm_ids=vm_ids,
        cluster_of=tuple(assignment[vm] for vm in vm_ids),
    )
