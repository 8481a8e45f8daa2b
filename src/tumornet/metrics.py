"""Output metrics: volume ratios and growth-curve classification."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # Annotations only: engine imports this module for volume_ratio.
    from .engine import TimeSeries
    from .graph_core import Graph


# The relative change of the volume ratio that tci_classify counts as stable.
TCI_BAND = 0.1


class TciClass(enum.Enum):
    """Tumor control index: how the growth curve ended relative to its start."""

    PROGRESSION = "progression"
    REJECTION = "rejection"
    STABILIZATION = "stabilization"


def volume_ratio(g: Graph) -> float:
    """Edges per node, the graph proxy for tumor volume."""
    if g.n_nodes == 0:
        raise ValueError("volume ratio is undefined for an empty graph")
    return g.n_edges / g.n_nodes


def tci_classify(series: TimeSeries) -> TciClass:
    """Classify a growth curve by its final/initial volume ratio.

    A relative change beyond TCI_BAND in either direction is progression or
    rejection; anything inside the band is stabilization. Needs at least
    two records and a positive initial ratio.
    """
    records = series.records
    if len(records) < 2:
        raise ValueError("classification needs at least two records")
    initial = records[0].volume_ratio
    if initial <= 0:
        raise ValueError("initial volume ratio must be positive")
    r = records[-1].volume_ratio / initial
    if r > 1.0 + TCI_BAND:
        return TciClass.PROGRESSION
    if r < 1.0 - TCI_BAND:
        return TciClass.REJECTION
    return TciClass.STABILIZATION
