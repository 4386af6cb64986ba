"""repro — a reproduction of "Truthful Unsplittable Flow for Large Capacity Networks".

Azar, Gamzu and Gutner (SPAA 2007) design monotone deterministic primal-dual
algorithms — and hence truthful mechanisms — for the large-capacity
unsplittable flow problem and the multi-unit combinatorial auction, prove
that their ``e/(e-1)`` ratio is optimal for the natural family of iterative
path-minimizing algorithms, and show that allowing repetitions admits a
``(1+eps)``-approximation.

This package implements the complete system: the graph and LP substrates,
the three algorithms, the mechanism layer (critical-value payments,
truthfulness audits), the baselines they improve upon, the adversarial
lower-bound instances, and the experiment harness that reproduces every
quantitative claim.  The README's "Layout" section is the package
inventory; :mod:`repro.experiments` lists the experiments.

Quickstart
----------
>>> from repro import flows, core, lp
>>> instance = flows.random_instance(num_vertices=12, num_requests=30, seed=7)
>>> allocation = core.bounded_ufp(instance, epsilon=0.2)
>>> allocation.is_feasible()
True
>>> bound = lp.solve_fractional_ufp(instance).objective
>>> allocation.value <= bound + 1e-6
True
"""

from repro import (
    auctions,
    baselines,
    core,
    flows,
    graphs,
    lp,
    mechanism,
    online,
    partition,
    scenarios,
)
from repro.auctions import Bid, MUCAAllocation, MUCAInstance
from repro.core import bounded_muca, bounded_ufp, bounded_ufp_repeat
from repro.exceptions import ReproError
from repro.flows import Allocation, Request, UFPInstance
from repro.graphs import CapacitatedGraph
from repro.mechanism import run_truthful_muca_mechanism, run_truthful_ufp_mechanism
from repro.types import E_OVER_E_MINUS_1

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "E_OVER_E_MINUS_1",
    # Subpackages
    "graphs",
    "flows",
    "auctions",
    "lp",
    "core",
    "mechanism",
    "baselines",
    "online",
    "partition",
    "scenarios",
    # Most-used types and entry points
    "CapacitatedGraph",
    "Request",
    "UFPInstance",
    "Allocation",
    "Bid",
    "MUCAInstance",
    "MUCAAllocation",
    "bounded_ufp",
    "bounded_muca",
    "bounded_ufp_repeat",
    "run_truthful_ufp_mechanism",
    "run_truthful_muca_mechanism",
]
