"""Numerical substrate: root finding, generic NLP, and k-means.

This subpackage replaces the proprietary IMSL numerical libraries the
paper used.  It contains:

* :mod:`repro.numerics.roots` — scalar root finding (bisection,
  Newton with bisection fallback).
* :mod:`repro.numerics.optimize` — a generic projected-gradient solver
  for concave maximization under a single linear constraint.  This is
  the "black-box NLP package" stand-in whose superlinear cost in the
  number of variables motivates the paper's heuristics.
* :mod:`repro.numerics.kmeans` — a seeded Lloyd's-algorithm k-means
  used by the cluster-refinement step (paper §4.1.3).
* :mod:`repro.numerics.waterfill` — generic water-filling machinery
  for separable concave resource allocation: a safeguarded Newton
  search on the KKT multiplier.
* :mod:`repro.numerics.sorting` — stable O(n) radix argsorts for
  event times and dense element ids, bit-identical to a direct
  stable ``np.argsort``.
"""

from repro.numerics.kmeans import KMeansResult, kmeans, kmeans_iterate
from repro.numerics.optimize import NlpResult, ProjectedGradientSolver
from repro.numerics.roots import bisect, newton_bisect_increasing
from repro.numerics.sorting import stable_id_argsort, stable_time_argsort
from repro.numerics.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
    t_critical_value,
)
from repro.numerics.waterfill import WaterfillResult, waterfill

__all__ = [
    "bisect",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "t_critical_value",
    "newton_bisect_increasing",
    "stable_id_argsort",
    "stable_time_argsort",
    "ProjectedGradientSolver",
    "NlpResult",
    "kmeans",
    "kmeans_iterate",
    "KMeansResult",
    "waterfill",
    "WaterfillResult",
]
