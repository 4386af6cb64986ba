"""Ablations of the stopping rule and the accuracy parameter.

Two knobs of the primal-dual machinery are ablated on a fixed contended
workload:

* **Stopping rule** — the dual-budget threshold ``e^{beta * eps * (B-1)}``.
  ``beta = 1`` is Algorithm 1; ``beta = -ln(1 - 1/e) ~ 0.459`` reproduces the
  BKV-style ``e`` guarantee; smaller ``beta`` stops even earlier.  The
  achieved value should be non-decreasing in ``beta`` (a larger budget can
  only admit more requests), which is exactly why the paper's threshold —
  the largest one that still guarantees feasibility — is the right choice.
* **Accuracy parameter** ``eps`` — smaller ``eps`` tightens the guarantee but
  requires a larger ``B``; the sweep shows the achieved value as ``eps``
  varies on an instance whose ``B`` satisfies the assumption for all of them.
"""

from __future__ import annotations

import pytest

from repro.baselines.briest import BKV_STOP_FRACTION, briest_style_ufp
from repro.core import bounded_ufp
from repro.flows import random_instance
from repro.lp import solve_fractional_ufp
from repro.utils.tables import Table


@pytest.fixture(scope="module")
def contended_workload():
    return random_instance(
        num_vertices=6, edge_probability=0.5, capacity=40.0,
        num_requests=380, demand_range=(0.7, 1.0), seed=17,
    )


def test_ablation_stopping_rule(benchmark, contended_workload):
    """Sweep the stopping-rule fraction beta; value must grow with beta."""
    epsilon = 0.3
    betas = [0.25, BKV_STOP_FRACTION, 0.7, 1.0]

    def run_sweep():
        return [briest_style_ufp(contended_workload, epsilon, stop_fraction=b).value for b in betas]

    values = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    bound = solve_fractional_ufp(contended_workload).objective

    table = Table(columns=["beta", "value", "ratio vs frac opt"],
                  title="\nstopping-rule ablation (beta = 1 is Algorithm 1)")
    for beta, value in zip(betas, values):
        table.add_row([beta, value, bound / max(value, 1e-12)])
    print(table.render())

    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 1e-9
    # beta = 1 coincides with Bounded-UFP.
    assert values[-1] == pytest.approx(bounded_ufp(contended_workload, epsilon).value)


def test_ablation_epsilon_sensitivity(benchmark, contended_workload):
    """Sweep the accuracy parameter eps of Algorithm 1 on the same workload."""
    epsilons = [0.15, 0.25, 0.35, 0.5]

    def run_sweep():
        return [bounded_ufp(contended_workload, eps).value for eps in epsilons]

    values = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    bound = solve_fractional_ufp(contended_workload).objective

    table = Table(columns=["eps", "B >= ln(m)/eps^2", "value", "ratio vs frac opt"],
                  title="\nepsilon-sensitivity ablation")
    for eps, value in zip(epsilons, values):
        table.add_row([
            eps,
            contended_workload.meets_capacity_assumption(eps),
            value,
            bound / max(value, 1e-12),
        ])
    print(table.render())

    # Every run is feasible by construction; just check values are sane.
    assert all(0.0 <= v <= bound + 1e-6 for v in values)
