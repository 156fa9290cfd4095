"""Independent reference for the age integrator: the sawtooth integrated
over arrays of the cell's length, one full-length operation at a time.

``backhaul_sim.average_aoi`` goes over the deliveries a chunk at a time
and carries its state from chunk to chunk; this version keeps every
delivery's generation time, age and segment in memory at once, so the
chunked pass has a second opinion to be checked against.
"""
import math

import numpy as np

from leoiot.backhaul_sim import AoiSummary


def fresh_deliveries(gen: np.ndarray) -> np.ndarray:
    """Which deliveries are not stale: an update no newer than the
    freshest one already delivered never resets the age.  Stale ones
    happen on access feeds, whose departure order is not their generation
    order."""
    keep = np.ones(len(gen), dtype=bool)
    keep[1:] = gen[1:] > np.maximum.accumulate(gen)[:-1]
    return keep


def sawtooth_stats(anchor_t: np.ndarray, anchor_age: np.ndarray):
    """Integrate a sawtooth described by reset anchors from the first
    anchor to the last.

    The age equals ``anchor_age[j] + (t - anchor_t[j])`` between anchor j
    and anchor j+1.  Returns (area, peak_sum, peak_count); peaks are the
    pre-reset ages of every anchor but the first.
    """
    seg = np.diff(anchor_t)
    area = float(np.sum(anchor_age[:-1] * seg + 0.5 * seg ** 2))
    return area, float(np.sum(anchor_age[:-1] + seg)), len(seg)


def average_aoi(trace, warmup_fraction: float = 0.0) -> AoiSummary:
    """Time-average of the sawtooth age from the first delivery to the
    last fresh one.  With a ``warmup_fraction``, the deliveries of the
    first ceil(warmup_fraction n) of the n offered updates, by index, are
    masked out of the delay mean and the sawtooth, which then starts at
    the first fresh delivery of a later update; freshness and the
    delivered fraction still count them.  The same contract as
    ``backhaul_sim.average_aoi``."""
    if trace.n_delivered < 2:
        raise ValueError("need at least two deliveries for an age average")
    all_gen = trace.gen_times[trace.delivered_index]
    first = math.ceil(warmup_fraction * trace.n_offered)
    past = trace.delivered_index >= first
    anchors = fresh_deliveries(all_gen) & past
    if first and anchors.sum() < 2:
        raise ValueError("warm-up discards all deliveries")
    system_time = float(np.mean((trace.delivery_times - all_gen)[past]))
    gen, deliv = all_gen[anchors], trace.delivery_times[anchors]
    duration = float(deliv[-1] - deliv[0])
    if duration <= 0:
        raise ValueError("empty observation window")
    area, peak_sum, peak_n = sawtooth_stats(deliv, deliv - gen)
    return AoiSummary(
        n_delivered=trace.n_delivered,
        delivered_fraction=trace.delivered_fraction,
        mean_system_time=system_time,
        mean_aoi=area / duration,
        peak_aoi_mean=peak_sum / peak_n if peak_n else float("nan"),
    )
