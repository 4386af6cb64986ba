"""Online streaming auctions: incremental ``Bounded-UFP`` over arrivals.

The offline mechanisms of the paper clear one sealed-bid auction; the
scenarios that motivate them (ISP bandwidth, ad-style request streams) are
online — requests arrive over time and admission is irrevocable.  This
subsystem streams arrivals through the same primal-dual machinery:

* :mod:`repro.online.arrivals` — pluggable arrival processes (Poisson,
  bursty, adversarial orders, trace replay of stored instances);
* :mod:`repro.online.auction` — the :class:`OnlineAuction` driver: one
  dual-weight state and one pricing engine for the whole stream, cached
  shortest-path trees reused across batches, greedy or posted-price
  threshold admission, and per-batch critical-value payments
  (:func:`batch_critical_values`: the offline payments of the batch's
  drain from its dual snapshot);
* :mod:`repro.online.muca` — the auction specialization:
  :class:`OnlineMUCAAuction` streams single-minded bids through the
  incremental :class:`~repro.core.pricing_engine.BundlePricingEngine`.

Quickstart
----------
>>> from repro import flows, online
>>> instance = flows.isp_instance(num_requests=40, seed=7)
>>> auction = online.OnlineAuction(instance.graph, epsilon=0.3)
>>> result = auction.run(online.poisson_arrivals(instance.requests, seed=7))
>>> result.is_feasible()
True
"""

from repro.online.arrivals import (
    Batch,
    adversarial_arrivals,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.online.auction import OnlineAuction, batch_critical_values, drain_engine
from repro.online.muca import BidAdmission, OnlineMUCAAuction

__all__ = [
    "Batch",
    "poisson_arrivals",
    "bursty_arrivals",
    "adversarial_arrivals",
    "trace_arrivals",
    "OnlineAuction",
    "OnlineMUCAAuction",
    "BidAdmission",
    "drain_engine",
    "batch_critical_values",
]
