"""Exact solver for the Core Problem (paper §2.2 and Appendix).

The Core Problem is

    max  Σᵢ wᵢ · F̄(λᵢ, fᵢ)    s.t.  Σᵢ cᵢ·fᵢ = B,  fᵢ ≥ 0

where ``wᵢ`` is the objective weight (the access probability pᵢ for
Perceived Freshening, 1/N for General Freshening, or nₖ·p̄ₖ for the
transformed partition problem) and ``cᵢ`` the per-sync bandwidth cost
(the object size sᵢ, or nₖ·s̄ₖ for partitions).

Because every F̄ is strictly concave and increasing in f, the KKT
conditions (the paper's Equations 5/6) characterize the optimum: a
single multiplier μ with

    (wᵢ/cᵢ)·∂F̄/∂f(λᵢ, fᵢ) = μ   if fᵢ > 0,
    (wᵢ/cᵢ)·∂F̄/∂f(λᵢ, 0⁺) ≤ μ   if fᵢ = 0.

The paper solved this with a generic NLP package and reports it
intractable beyond ~10³ elements; this module instead exploits the
separable structure.  Live elements are sorted once by activation
ceiling, so the active set at any μ is a prefix; each pass inverts
that prefix in closed form (a fixed four-step Halley iteration, see
:func:`repro.core.freshness.invert_marginal_gain`) and returns the
analytic slope of the total cost, and the water-filling search takes
Newton steps on μ.  Tie groups of identical ceilings — the norm for
learned profiles — get an exact local model of their own.  A cold
solve typically takes 5–9 passes: ~0.1–0.2 s at 10⁵ elements and
~1.4 s at 10⁶ on one core of a 2-core x86 host.  The solver is used
both directly (the "best_case"/ideal curves) and as the optimization
step of every heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.contracts import (
    check_budget_feasible,
    check_kkt_stationarity,
    check_nonnegative,
    check_simplex,
    postcondition,
)
from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.errors import InfeasibleProblemError, ValidationError
from repro.numerics.waterfill import Allocation, waterfill
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog

__all__ = ["ScheduleSolution", "solve_core_problem", "solve_weighted_problem",
           "kkt_residual"]

_DEFAULT_MODEL = FixedOrderPolicy()

#: A last active tie group carrying at least this share of a pass's
#: slope gets the group-exact local model (see :func:`_group_proposal`).
_GROUP_SHARE = 0.05
#: Newton steps on that scalar model.
_GROUP_NEWTON_STEPS = 6


@dataclass(frozen=True)
class ScheduleSolution:
    """An optimal (or heuristic) bandwidth allocation.

    Attributes:
        frequencies: Sync frequency per element, ``f ≥ 0``.
        multiplier: The KKT multiplier μ at the solution (0 when the
            problem was degenerate and nothing was allocated).
        bandwidth: Total bandwidth consumed, ``Σ cᵢ·fᵢ``.
        objective: Objective value ``Σ wᵢ·F̄(λᵢ, fᵢ)``.
        iterations: Outer search steps used on μ.
    """

    frequencies: np.ndarray
    multiplier: float
    bandwidth: float
    objective: float
    iterations: int


def _check_weighted_solution(solution: "ScheduleSolution",
                             arguments: Mapping[str, object]) -> None:
    """Postcondition: the paper's feasibility + stationarity invariants."""
    where = "solve_weighted_problem"
    costs = np.asarray(arguments["costs"], dtype=float)
    bandwidth = float(arguments["bandwidth"])  # type: ignore[arg-type]
    model = arguments.get("model")
    check_nonnegative(solution.frequencies, name="frequencies",
                      where=where)
    check_budget_feasible(costs, solution.frequencies, bandwidth,
                          where=where)
    residual = kkt_residual(solution, np.asarray(arguments["weights"]),
                            np.asarray(arguments["change_rates"]),
                            costs,
                            model=model if isinstance(model,
                                                      FreshnessModel)
                            else None)
    check_kkt_stationarity(residual, solution.multiplier, where=where)


@postcondition(_check_weighted_solution)
def solve_weighted_problem(weights: np.ndarray, change_rates: np.ndarray,
                           costs: np.ndarray, bandwidth: float, *,
                           model: FreshnessModel | None = None,
                           budget_rtol: float = 1e-10,
                           bracket: tuple[float, float] | None = None,
                           ) -> ScheduleSolution:
    """Solve ``max Σ wᵢ·F̄(λᵢ, fᵢ)`` s.t. ``Σ cᵢ·fᵢ = B``, ``f ≥ 0``.

    Args:
        weights: Nonnegative objective weights ``w``.
        change_rates: Poisson change rates ``λ ≥ 0``, in changes per
            period.
        costs: Strictly positive bandwidth cost per sync, in size
            units.
        bandwidth: Budget ``B > 0``, in size units per period.
        model: Freshness model (Fixed-Order by default).
        budget_rtol: Relative tolerance on the consumed budget.
        bracket: Optional warm-start multiplier bracket ``(μ_lo,
            μ_hi)`` known to straddle the budget (see
            :class:`repro.core.incremental.IncrementalSolver`); a
            :class:`~repro.errors.ValidationError` is raised if it
            does not.

    Returns:
        The optimal :class:`ScheduleSolution`.  Elements with zero
        weight or zero change rate receive zero frequency (syncing
        them cannot raise the objective).

    Raises:
        InfeasibleProblemError: If the budget is not positive.
        ValidationError: On malformed inputs.
    """
    with obs.span("solver.solve_weighted"):
        solution = _solve_weighted(weights, change_rates, costs,
                                   bandwidth, model=model,
                                   budget_rtol=budget_rtol,
                                   bracket=bracket)
    if obs.telemetry_enabled():
        _record_solver_telemetry(solution, weights, change_rates, costs,
                                 model)
    return solution


def _record_solver_telemetry(solution: ScheduleSolution,
                             weights: np.ndarray,
                             change_rates: np.ndarray, costs: np.ndarray,
                             model: FreshnessModel | None) -> None:
    """Record one solve outcome (μ, iterations, KKT residual).

    The KKT residual is recomputed here — one vectorized derivative
    pass — so it is only paid while telemetry is on.  All quantities
    are per period / dimensionless, matching the solver's units.
    """
    residual = kkt_residual(solution, weights, change_rates, costs,
                            model=model)
    obs.counter_add("solver.calls")
    obs.counter_add("solver.iterations", solution.iterations)
    obs.observe("solver.iterations", solution.iterations)
    obs.gauge_set("solver.multiplier", solution.multiplier)
    obs.gauge_set("solver.kkt_residual", residual)
    obs.gauge_set("solver.objective", solution.objective)
    obs.event("solver.solve",
              n_elements=int(np.asarray(weights).shape[0]),
              iterations=solution.iterations,
              multiplier=solution.multiplier,
              bandwidth=solution.bandwidth,
              objective=solution.objective,
              kkt_residual=residual)


def _solve_weighted(weights: np.ndarray, change_rates: np.ndarray,
                    costs: np.ndarray, bandwidth: float, *,
                    model: FreshnessModel | None,
                    budget_rtol: float,
                    bracket: tuple[float, float] | None,
                    ) -> ScheduleSolution:
    """The undecorated solve (see :func:`solve_weighted_problem`)."""
    weights = np.asarray(weights, dtype=float)
    change_rates = np.asarray(change_rates, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if not (weights.shape == change_rates.shape == costs.shape):
        raise ValidationError(
            "weights, change_rates and costs must have matching shapes, "
            f"got {weights.shape}, {change_rates.shape}, {costs.shape}")
    if weights.ndim != 1:
        raise ValidationError("solver inputs must be 1-D")
    if (weights < 0.0).any():
        raise ValidationError("weights must be nonnegative")
    if (change_rates < 0.0).any():
        raise ValidationError("change rates must be nonnegative")
    if (costs <= 0.0).any():
        raise ValidationError("costs must be strictly positive")
    if bandwidth <= 0.0:
        raise InfeasibleProblemError(
            f"bandwidth must be positive, got {bandwidth!r}")

    chosen = model if model is not None else _DEFAULT_MODEL
    frequencies = np.zeros_like(weights)

    # Only elements that are both interesting (w > 0) and volatile
    # (λ > 0) can benefit from bandwidth.
    live = (weights > 0.0) & (change_rates > 0.0)
    if not live.any():
        objective = float(weights @ chosen.freshness(change_rates,
                                                     frequencies))
        return ScheduleSolution(frequencies=frequencies, multiplier=0.0,
                                bandwidth=0.0, objective=objective,
                                iterations=0)

    # Marginal objective per unit *bandwidth* at f→0⁺ is
    # (w/c)·∂F̄/∂f(λ, 0⁺); an element is active at μ below this
    # ceiling.  Sorted by ceiling, highest first, the active set at
    # any μ is a prefix, so each pass slices instead of gathering.
    live_index = np.flatnonzero(live)
    w = weights[live_index]
    lam = change_rates[live_index]
    c = costs[live_index]
    ceilings = w * chosen.derivative(lam, np.zeros_like(lam)) / c
    order = np.argsort(-ceilings, kind="stable")
    live_index = live_index[order]
    ceilings = ceilings[order]
    lam = lam[order]
    c = c[order]
    price = c / w[order]  # marginal target per unit of μ
    negated_ceilings = -ceilings  # ascending, for searchsorted
    mu_max = float(ceilings[0])
    passes = 0

    def allocate_at(mu: float) -> Allocation:
        nonlocal passes
        passes += 1
        active = int(np.searchsorted(negated_ceilings, -mu, side="left"))
        freqs = np.zeros_like(c)
        if not active:
            return Allocation(freqs, 0.0, 0.0)
        freqs[:active], slopes = chosen.invert_marginal(
            lam[:active], mu * price[:active])
        head = c[:active]
        cost = float(head @ freqs[:active])
        # Each target scales with μ, so d(Σcf)/dμ = Σ c·(m ∂f/∂m)/μ.
        weighted = head * slopes
        slope = float(weighted.sum())
        # The last active tie group sits closest to its ceiling, where
        # its frequency is steepest in μ.  When it carries a fair share
        # of the slope, propose the root of a local model that keeps
        # the group exact instead of the power-law Newton step.
        lowest = float(ceilings[active - 1])
        group = int(np.searchsorted(negated_ceilings, -lowest,
                                    side="left"))
        group_slope = float(weighted[group:].sum())
        proposal: float | None = None
        if slope < 0.0 and group_slope <= _GROUP_SHARE * slope:
            proposal = _group_proposal(
                chosen, mu, cost, slope, lowest, bandwidth,
                scale=float(head[group:] @ lam[group:active]),
                group_cost=float(head[group:] @ freqs[group:active]),
                group_slope=group_slope)
        return Allocation(freqs, cost, slope / mu, proposal)

    # Start where the small-target asymptote f ≈ K·√(λ/m) of every
    # element (K read off the model) would spend the budget.
    unit, _ = chosen.invert_marginal(np.ones(1), np.full(1, 1e-12))
    scale = float(unit[0]) * 1e-6 * float(c @ np.sqrt(lam / price))
    result = waterfill(allocate_at, bandwidth, mu_max,
                       budget_rtol=budget_rtol, snap=False,
                       bracket=bracket, start=(scale / bandwidth) ** 2)
    obs.counter_add("solver.inner_passes", passes)
    live_freqs = result.allocations.copy()
    mu = result.multiplier
    if mu > 0.0 and abs(result.cost - bandwidth) > budget_rtol * bandwidth:
        # Degenerate optimum: μ sits on an element's activation
        # ceiling, where the inverted frequency jumps (at float
        # resolution of the marginal kernel) between ~λ/40 and 0, so
        # the search cannot meet the budget.  The KKT-correct
        # resolution: elements *at* the ceiling absorb exactly the
        # leftover bandwidth — their marginal stays ≈ μ for any small
        # frequency.
        threshold = np.abs(ceilings - mu) <= 1e-6 * mu
        if threshold.any():
            obs.counter_add("solver.threshold_degeneracies")
            live_freqs[threshold] = 0.0
            gap = bandwidth - float(c @ live_freqs)
            if gap > 0.0:
                indices = np.flatnonzero(threshold)
                live_freqs[indices] = (gap / indices.size) / c[indices]
    # Snap exactly onto the budget (a no-op up to rounding).
    cost = float(c @ live_freqs)
    if cost > 0.0:
        live_freqs *= bandwidth / cost
    frequencies[live_index] = live_freqs
    objective = float(weights @ chosen.freshness(change_rates, frequencies))
    return ScheduleSolution(frequencies=frequencies,
                            multiplier=result.multiplier,
                            bandwidth=float(costs @ frequencies),
                            objective=objective,
                            iterations=result.iterations)


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` for ``base > 0``, saturating instead of
    overflowing."""
    return math.exp(min(max(exponent * math.log(base), -700.0), 700.0))


def _group_proposal(model: FreshnessModel, mu: float, cost: float,
                    slope: float, ceiling: float, budget: float, *,
                    scale: float, group_cost: float,
                    group_slope: float) -> float:
    """The μ′ solving ``P·(μ′/μ)^e + S·φ(μ′/ceiling) = budget``.

    The local cost model of a pass at ``μ`` whose last active tie
    group (ceiling ``ceiling``) sits near its threshold: the rest of
    the cost ``P`` as a power law with its measured elasticity ``e``,
    plus the group exactly.  Every group element has the same
    normalized frequency ``φ = f/λ`` — a function of ``t = μ/ceiling``
    alone — so the group costs ``S·φ`` with ``S = Σ cλ``.  Newton runs
    on ``φ``, in which that term is linear; ``t(φ)`` is the model's
    marginal at λ = 1 (``F̄`` depends on ``f/λ`` only).  When the
    group drops out before the budget is met, the rest alone continues
    past ``ceiling``; when even that is under budget, the root is the
    group's activation jump, and the proposal is the last float below
    ``ceiling``.

    ``slope`` and ``group_slope`` are ``d cost/d ln μ`` of the whole
    pass and of the group.
    """
    rest = cost - group_cost
    elasticity = (slope - group_slope) / rest if rest > 0.0 else 0.0
    phi = group_cost / scale
    phi_slope = group_slope / scale  # dφ/d ln t
    edge = math.nextafter(ceiling, 0.0)  # the last μ the group is on at
    proposal = mu
    for _ in range(_GROUP_NEWTON_STEPS):
        rest_now = rest * _power(proposal / mu, elasticity)
        residual = rest_now + scale * phi - budget
        growth = elasticity * rest_now + scale * phi_slope  # dF/d ln t
        if not growth < 0.0:
            break
        phi -= residual * phi_slope / growth  # dF/dφ = growth/phi_slope
        proposal = (ceiling * float(model.derivative(
            np.ones(1), np.full(1, phi))[0]) if phi > 0.0 else ceiling)
        if proposal >= edge:
            # The group cannot absorb the excess while it is on.
            # Past its ceiling only the rest is left, as a power law;
            # if that alone is under budget there, the budget falls
            # inside the group's activation jump, just below ceiling.
            if rest > 0.0 and elasticity < 0.0:
                beyond = mu * _power(budget / rest, 1.0 / elasticity)
                if beyond > ceiling:
                    return beyond
            return edge
        _, unit_slope = model.invert_marginal(np.ones(1),
                                              np.full(1, proposal / ceiling))
        phi_slope = float(unit_slope[0])
    return proposal


def _check_core_inputs(solution: "ScheduleSolution",
                       arguments: Mapping[str, object]) -> None:
    """Postcondition: the catalog's profile is simplex-valid.

    Feasibility and stationarity of ``solution`` are already checked
    by the inner :func:`solve_weighted_problem` contract; this adds
    the access-profile invariant Definition 4 relies on (Σp = 1 makes
    perceived freshness a true expectation).
    """
    catalog: Catalog = arguments["catalog"]  # type: ignore[assignment]
    check_simplex(catalog.access_probabilities,
                  where="solve_core_problem")


@postcondition(_check_core_inputs)
def solve_core_problem(catalog: Catalog, bandwidth: float, *,
                       model: FreshnessModel | None = None,
                       budget_rtol: float = 1e-10,
                       bracket: tuple[float, float] | None = None
                       ) -> ScheduleSolution:
    """Optimal Perceived-Freshening schedule for a catalog.

    Maximizes ``Σ pᵢ·F̄(λᵢ, fᵢ)`` subject to ``Σ sᵢ·fᵢ = B`` — the
    paper's Core Problem (equations 1–2), or its variable-size
    extension (equation 4) when the catalog has non-uniform sizes.

    Args:
        catalog: Workload description (profile, change rates, sizes).
        bandwidth: Sync bandwidth budget per period.
        model: Freshness model (Fixed-Order by default).
        budget_rtol: Relative tolerance on the consumed budget.
        bracket: Optional warm-start multiplier bracket ``(μ_lo,
            μ_hi)`` from a neighbouring solve; a
            :class:`~repro.errors.ValidationError` is raised if it
            does not straddle the budget.

    Returns:
        The optimal :class:`ScheduleSolution`; its ``objective`` is
        the achieved perceived freshness contribution of volatile
        elements plus the always-fresh mass.
    """
    return solve_weighted_problem(catalog.access_probabilities,
                                  catalog.change_rates, catalog.sizes,
                                  bandwidth, model=model,
                                  budget_rtol=budget_rtol,
                                  bracket=bracket)


def kkt_residual(solution: ScheduleSolution, weights: np.ndarray,
                 change_rates: np.ndarray, costs: np.ndarray, *,
                 model: FreshnessModel | None = None) -> float:
    """Maximum violation of the KKT stationarity conditions.

    For every element with positive frequency the scaled marginal
    ``(wᵢ/cᵢ)·∂F̄/∂f`` must equal the multiplier μ; for every element
    at zero it must not exceed μ.  This is the paper's Equation 6
    invariant ("all solutions lie on the same marginal locus") and is
    exercised by the property-based tests.

    Args:
        solution: A solution from this module's solvers.
        weights: Objective weights used in the solve.
        change_rates: Change rates used in the solve, in changes per
            period.
        costs: Costs used in the solve.
        model: Freshness model used in the solve.

    Returns:
        The largest absolute stationarity violation (0 at a perfect
        optimum).
    """
    chosen = model if model is not None else _DEFAULT_MODEL
    weights = np.asarray(weights, dtype=float)
    change_rates = np.asarray(change_rates, dtype=float)
    costs = np.asarray(costs, dtype=float)
    marginals = chosen.derivative(change_rates, solution.frequencies)
    scaled = weights * marginals / costs
    positive = solution.frequencies > 0.0
    residual = 0.0
    if positive.any():
        residual = float(np.abs(scaled[positive] - solution.multiplier).max())
    at_zero = ~positive & (weights > 0.0) & (change_rates > 0.0)
    if at_zero.any():
        overshoot = float((scaled[at_zero] - solution.multiplier).max())
        residual = max(residual, overshoot, 0.0)
    return residual
