"""Incremental re-solving with warm-started multipliers.

The paper's operational concern: "for large real-world problems for
which the contents of the mirror or the user interests might change,
we would need to periodically solve the Core Problem" — repeatedly.
Successive problems are *nearly identical*: the profile drifts a few
percent, a handful of rates are re-estimated, an element or two is
added.  The KKT multiplier μ moves correspondingly little.

:class:`IncrementalSolver` exploits that: it remembers the last μ and
hands the exact solver a narrow bracket around it, skipping the cold
start of the search; when the warm bracket misses (the problem
jumped), it falls back to a cold solve.  Warm and cold paths share
the identical allocation code (including threshold-degeneracy
handling), so the solutions agree to solver tolerance — asserted by
the tests.  The micro-benchmarks quantify the saving at catalog
scale.
"""

from __future__ import annotations

from repro.contracts import check_multiplier_in_bracket, contracts_enabled
from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.core.solver import ScheduleSolution, solve_weighted_problem
from repro.errors import InfeasibleProblemError, ValidationError
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog

__all__ = ["IncrementalSolver"]


class IncrementalSolver:
    """Warm-started Core-Problem solver for slowly changing inputs.

    Args:
        model: Freshness model (Fixed-Order by default).
        warm_window: Half-width of the warm μ bracket as a relative
            factor: the first attempt brackets
            ``[μ_prev/(1+w), μ_prev·(1+w)]``.
        budget_rtol: Relative budget tolerance.
    """

    def __init__(self, *, model: FreshnessModel | None = None,
                 warm_window: float = 0.5,
                 budget_rtol: float = 1e-10) -> None:
        if warm_window <= 0.0:
            raise ValidationError(
                f"warm_window must be > 0, got {warm_window}")
        self._model = model if model is not None else FixedOrderPolicy()
        self._warm_window = warm_window
        self._budget_rtol = budget_rtol
        self._last_multiplier: float | None = None
        self._warm_hits = 0
        self._cold_solves = 0

    @property
    def warm_hits(self) -> int:
        """Solves completed inside the warm window."""
        return self._warm_hits

    @property
    def cold_solves(self) -> int:
        """Solves that fell back to the cold bracket."""
        return self._cold_solves

    def solve(self, catalog: Catalog,
              bandwidth: float) -> ScheduleSolution:
        """Solve the Core Problem, warm-starting from the last μ.

        Args:
            catalog: Workload description.
            bandwidth: Budget ``B > 0``, in size units per period.

        Returns:
            The optimal :class:`ScheduleSolution` — identical (to
            solver tolerance) to a cold
            :func:`~repro.core.solver.solve_core_problem`.
        """
        if bandwidth <= 0.0:
            raise InfeasibleProblemError(
                f"bandwidth must be positive, got {bandwidth!r}")
        if self._last_multiplier is not None and self._last_multiplier > 0.0:
            window = 1.0 + self._warm_window
            bracket = (self._last_multiplier / window,
                       self._last_multiplier * window)
            try:
                solution = solve_weighted_problem(
                    catalog.access_probabilities, catalog.change_rates,
                    catalog.sizes, bandwidth, model=self._model,
                    budget_rtol=self._budget_rtol, bracket=bracket)
            except ValidationError:
                solution = None  # bracket missed: problem jumped
                obs.counter_add("incremental.warm_misses")
            if solution is not None:
                if contracts_enabled():
                    # ROADMAP contract: a reused bracket must have
                    # straddled the budget, which (waterfill's cost
                    # curve being monotone) pins the resolved μ inside
                    # it.
                    check_multiplier_in_bracket(
                        solution.multiplier, bracket,
                        where="IncrementalSolver.solve")
                self._warm_hits += 1
                self._last_multiplier = solution.multiplier
                obs.counter_add("incremental.warm_hits")
                obs.gauge_set("incremental.last_multiplier",
                              solution.multiplier)
                return solution
        self._cold_solves += 1
        solution = solve_weighted_problem(
            catalog.access_probabilities, catalog.change_rates,
            catalog.sizes, bandwidth, model=self._model,
            budget_rtol=self._budget_rtol)
        self._last_multiplier = solution.multiplier
        obs.counter_add("incremental.cold_solves")
        obs.gauge_set("incremental.last_multiplier", solution.multiplier)
        return solution
