"""Splitter Service: split the dataset into parts for the workers.

"The splitter service will import the dataset from the actual location and
split it into a pre-configured number of approximately equal parts ...
Once the dataset is split through the splitter service, the individual
parts of dataset will be transferred using Grid FTP protocol to the
analysis worker nodes" (§3.4).

This service holds the split geometry (:meth:`SplitterService.plan_parts`)
and the split cost model; the session service runs the staging pipeline
(fetch, split pass, scatter) in simulated time.  The split itself "must
iterate through the entire dataset in all cases and only has a very small
input/output overhead for the number of split files" (§4) — modelled as a
serial pass at ``split_rate`` seconds per MB on the storage element, plus
a small per-file overhead, reproducing Table 2's nearly-flat split column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.services.locator import DatasetLocation


class SplitterError(Exception):
    """Raised on invalid split requests."""


@dataclass(frozen=True)
class PartDescriptor:
    """One split part: which events, how big, and where it was delivered."""

    part_index: int
    start_event: int
    stop_event: int
    size_mb: float
    worker: str

    @property
    def n_events(self) -> int:
        """Events in this part."""
        return self.stop_event - self.start_event


class SplitterService:
    """Plans split geometries and prices the serial split pass.

    Parameters
    ----------
    split_rate:
        Seconds per MB for the serial split pass (paper fit: 0.25 s/MB).
    per_file_overhead:
        Extra seconds per produced part file ("very small input/output
        overhead for the number of split files", §4).
    """

    #: Per-part range-query planning cost (seconds) of a database location.
    DEFAULT_PER_QUERY_OVERHEAD = 0.5

    def __init__(
        self, split_rate: float = 0.25, per_file_overhead: float = 0.2
    ) -> None:
        if split_rate < 0 or per_file_overhead < 0:
            raise ValueError("rates/overheads must be >= 0")
        self.split_rate = split_rate
        self.per_file_overhead = per_file_overhead

    def split_seconds_for(self, location: DatasetLocation, n_parts: int) -> float:
        """Cost of the serial split pass for *n_parts* (the §4 model).

        The pass "must iterate through the entire dataset in all cases",
        so the cost is the same whether every part is needed or only a
        few are missing — staging charges exactly this whenever any part
        of a geometry has to be (re)produced.
        """
        return location.size_mb * self.split_rate + n_parts * self.per_file_overhead

    def plan_parts(
        self,
        location: DatasetLocation,
        workers: Sequence[str],
        strategy: str = "by-events",
        event_weights: Optional[np.ndarray] = None,
    ) -> List[PartDescriptor]:
        """Assign contiguous event ranges (and sizes) to workers.

        ``by-events`` gives equal event counts; ``by-bytes`` balances a
        per-event weight profile (uniform weights when not provided, in
        which case the two strategies coincide).
        """
        n_parts = len(workers)
        if n_parts < 1:
            raise SplitterError("need at least one worker")
        n_events = location.n_events
        if strategy == "by-events":
            bounds = np.linspace(0, n_events, n_parts + 1).astype(int)
            if event_weights is not None and n_events:
                # Equal event counts, but actual byte sizes follow the
                # per-event weight profile (this is exactly the skew the
                # by-bytes strategy exists to avoid).
                weights = np.asarray(event_weights, dtype=float)
                if len(weights) != n_events:
                    raise SplitterError("event_weights length mismatch")
                cumulative = np.concatenate([[0.0], np.cumsum(weights)])
                total = cumulative[-1]
                sizes = np.array(
                    [
                        location.size_mb
                        * (cumulative[bounds[i + 1]] - cumulative[bounds[i]])
                        / total
                        if total
                        else 0.0
                        for i in range(n_parts)
                    ]
                )
            else:
                sizes = (
                    np.diff(bounds) / n_events * location.size_mb
                    if n_events
                    else np.zeros(n_parts)
                )
        elif strategy == "by-bytes":
            weights = (
                np.ones(n_events)
                if event_weights is None
                else np.asarray(event_weights, dtype=float)
            )
            if len(weights) != n_events:
                raise SplitterError("event_weights length mismatch")
            cumulative = np.concatenate([[0.0], np.cumsum(weights)])
            targets = np.linspace(0, cumulative[-1], n_parts + 1)
            bounds = np.searchsorted(cumulative, targets, side="left")
            bounds[0], bounds[-1] = 0, n_events
            bounds = np.maximum.accumulate(bounds)
            total = cumulative[-1]
            sizes = np.array(
                [
                    location.size_mb
                    * (cumulative[bounds[i + 1]] - cumulative[bounds[i]])
                    / total
                    if total
                    else 0.0
                    for i in range(n_parts)
                ]
            )
        else:
            raise SplitterError(f"unknown split strategy {strategy!r}")
        return [
            PartDescriptor(
                part_index=index,
                start_event=int(bounds[index]),
                stop_event=int(bounds[index + 1]),
                size_mb=float(sizes[index]),
                worker=workers[index],
            )
            for index in range(n_parts)
        ]
