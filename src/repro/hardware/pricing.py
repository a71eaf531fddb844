"""Rental-price accounting.

The paper's headline claim is *cost efficiency*: given the same hourly budget,
renting many heterogeneous cloud GPUs and scheduling them well beats a smaller
number of top-end homogeneous GPUs.  This module provides the price accounting used
by those comparisons — cluster price per hour and price parity checks between the
cloud and in-house environments.  The per-request phase prices behind Figure 1
live in :mod:`repro.costmodel.price`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.hardware.cluster import Cluster


def cluster_price_per_hour(cluster: "Cluster") -> float:
    """Total rental price of a cluster's available GPUs in USD/hour."""
    return cluster.price_per_hour


def price_parity_ratio(cluster_a: "Cluster", cluster_b: "Cluster") -> float:
    """Ratio of cluster A's hourly price to cluster B's.

    The paper compares the $13.542/hour cloud environment against the
    $14.024/hour 8xA100 in-house environment; the ratio should be close to 1.
    """
    return cluster_a.price_per_hour / cluster_b.price_per_hour


__all__ = [
    "cluster_price_per_hour",
    "price_parity_ratio",
]
