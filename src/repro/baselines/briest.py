"""A Briest–Krysta–Vöcking style primal-dual baseline (approximation ~ e).

The paper compares its ``e/(e-1)`` guarantee against the previously best
truthful mechanism of Briest, Krysta and Vöcking (STOC 2005), described only
as "a monotone primal-dual based algorithm, motivated by the work of Garg and
Könemann, achieving an approximation guarantee that approaches e".  The
original algorithm is not reproduced verbatim here (the STOC'05 paper is a
separate artifact); instead this module reconstructs a member of the same
family with the same guarantee:

* it is the identical iterative normalized-shortest-path minimizer with the
  identical exponential weight update ``y_e *= exp(eps B d / c_e)``, but
* it stops at the **more conservative dual budget**
  ``sum_e c_e y_e <= e^{beta * eps * (B - 1)}`` with
  ``beta = -ln(1 - 1/e) ≈ 0.4587``.

Feasibility holds a fortiori (the budget is smaller than Algorithm 1's), the
algorithm is monotone by the same argument as Lemma 3.4, and rerunning the
Lemma 3.8 analysis with threshold ``e^{beta eps (B-1)}`` gives
``D/P <= 1 / (1 - e^{-beta}) + o(1) = e + o(1)`` — the BKV-type guarantee.
The reconstruction therefore preserves exactly the property the comparison
experiments need: a truthful primal-dual mechanism whose guarantee (and
empirical behaviour on the adversarial workloads) is a constant factor worse
because it commits to stopping earlier.

Both functions run the production bodies of ``bounded_ufp`` and
``bounded_muca`` — the lazy pricing engines and
:func:`~repro.core.pricing_engine.greedy_rounds` — with a
:class:`_ConservativeDuals` state in place of the plain one.  With the same
updates and only the limit scaled, a run is the longest prefix of the
``Bounded-UFP(eps)`` (``Bounded-MUCA(eps)``) run whose budget before each
round stays within ``e^{beta eps (B - 1)}``; ``tests/test_baselines.py``
checks that prefix against the :mod:`repro.core.reference` oracles.  The
run statistics are the production ones (``shortest_path_calls`` counts the
trees the engine built) plus ``extra["stop_fraction"]``.
"""

from __future__ import annotations

import math
from functools import partial

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.core.bounded_muca import _greedy_bundle_run
from repro.core.bounded_ufp import _greedy_path_run
from repro.core.dual_state import DualWeights
from repro.flows.allocation import Allocation
from repro.flows.instance import UFPInstance

__all__ = ["BKV_STOP_FRACTION", "briest_style_ufp", "briest_style_muca"]

#: The stopping-threshold fraction ``beta`` for which the Lemma 3.8 analysis
#: yields a guarantee of ``1 / (1 - e^{-beta}) = e``.
BKV_STOP_FRACTION: float = -math.log(1.0 - 1.0 / math.e)


class _ConservativeDuals(DualWeights):
    """Dual weights whose budget limit is scaled down by ``beta``."""

    __slots__ = ("_beta",)

    def __init__(self, capacities, epsilon, *, beta: float) -> None:
        super().__init__(capacities, epsilon)
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        self._beta = float(beta)

    @property
    def budget_limit(self) -> float:  # noqa: D401 - same semantics, scaled
        """The conservative threshold ``e^{beta * eps * (B - 1)}``."""
        return math.exp(self._beta * self.epsilon * (self.capacity_bound - 1.0))


def _with_beta(allocation, name: str, epsilon: float, beta: float):
    """Label a run of the production body as the baseline's."""
    allocation.algorithm = f"{name}(eps={float(epsilon):g}, beta={beta:.3f})"
    allocation.stats = allocation.stats.merged(stop_fraction=beta)
    return allocation


def briest_style_ufp(
    instance: UFPInstance,
    epsilon: float,
    *,
    stop_fraction: float = BKV_STOP_FRACTION,
) -> Allocation:
    """Run the reconstructed BKV-style primal-dual UFP algorithm.

    Parameters
    ----------
    instance:
        The B-bounded instance (demands in ``(0, 1]``).
    epsilon:
        Accuracy parameter in ``(0, 1]``.
    stop_fraction:
        The fraction ``beta`` of the Algorithm 1 budget exponent at which to
        stop; the default reproduces the ``e``-type guarantee.  ``1.0``
        recovers ``Bounded-UFP`` exactly, which makes this function the
        natural vehicle for the stopping-rule ablation of experiment E8.
    """
    beta = float(stop_fraction)
    allocation = _greedy_path_run(
        instance,
        epsilon,
        label="BKV-style-UFP",
        remove_selected=True,
        default_cap=lambda: instance.num_requests,
        max_iterations=None,
        trace=None,
        make_duals=partial(_ConservativeDuals, beta=beta),
    )
    return _with_beta(allocation, "BKV-style-UFP", epsilon, beta)


def briest_style_muca(
    instance: MUCAInstance,
    epsilon: float,
    *,
    stop_fraction: float = BKV_STOP_FRACTION,
) -> MUCAAllocation:
    """The auction analogue of :func:`briest_style_ufp`."""
    beta = float(stop_fraction)
    allocation = _greedy_bundle_run(
        instance,
        epsilon,
        max_iterations=None,
        trace=None,
        make_duals=partial(_ConservativeDuals, beta=beta),
    )
    return _with_beta(allocation, "BKV-style-MUCA", epsilon, beta)
