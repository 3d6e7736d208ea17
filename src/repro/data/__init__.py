"""Data-integration substrate (Section 2 of the paper).

This package models the paper's integration scenario: several overlapping
data sources each mention some real-world entities; the mentions are cleaned
and fused into a single *multiset* sample ``S`` (entities with duplicate
observations across sources) plus the deduplicated integrated database ``K``
the analyst actually queries.

The central object is :class:`~repro.data.sample.ObservedSample`: the
immutable statistical summary every estimator consumes.
"""

from repro.data.records import Entity, Observation
from repro.data.sources import DataSource, SourceRegistry
from repro.data.cleaning import FusionStrategy, MeanFusion, MedianFusion, FirstValueFusion, clean_observations
from repro.data.sample import ObservedSample
from repro.data.integration import IntegrationPipeline, IntegrationResult, integrate
from repro.data.lineage import LineageTracker
from repro.data.io import (
    read_observations_csv,
    read_sample_csv,
    read_sources_csv,
    write_estimates_csv,
)

__all__ = [
    "Entity",
    "Observation",
    "DataSource",
    "SourceRegistry",
    "FusionStrategy",
    "MeanFusion",
    "MedianFusion",
    "FirstValueFusion",
    "clean_observations",
    "ObservedSample",
    "IntegrationPipeline",
    "IntegrationResult",
    "integrate",
    "LineageTracker",
    "read_observations_csv",
    "read_sample_csv",
    "read_sources_csv",
    "write_estimates_csv",
]
