"""Baseline algorithms the paper compares against (or motivates against).

* :mod:`repro.baselines.greedy` — greedy by value / by density for UFP and
  MUCA: simple, monotone-in-value but with no constant-factor guarantee in
  the large-capacity regime.
* :mod:`repro.baselines.briest` — a reconstruction of the Briest, Krysta and
  Vöcking (STOC'05) style primal-dual baseline whose guarantee approaches
  ``e``: the ``Bounded-UFP`` / ``Bounded-MUCA`` run with a smaller dual
  budget; see the module docstring for exactly what is reconstructed and why.
* :mod:`repro.baselines.randomized_rounding` — the Raghavan–Thompson
  randomized rounding of the fractional LP: near-optimal for large B but
  *not monotone*, which is the paper's motivation for a different technique.
* :mod:`repro.baselines.exact` — exact (exponential-time) solvers for small
  instances, used as ground truth in tests and small-scale experiments.
"""

from repro.baselines.greedy import (
    greedy_ufp_by_value,
    greedy_ufp_by_density,
    greedy_muca_by_value,
    greedy_muca_by_density,
)
from repro.baselines.briest import briest_style_ufp, briest_style_muca
from repro.baselines.randomized_rounding import (
    randomized_rounding_ufp,
    randomized_rounding_muca,
)
from repro.baselines.exact import exact_ufp, exact_muca

__all__ = [
    "greedy_ufp_by_value",
    "greedy_ufp_by_density",
    "greedy_muca_by_value",
    "greedy_muca_by_density",
    "briest_style_ufp",
    "briest_style_muca",
    "randomized_rounding_ufp",
    "randomized_rounding_muca",
    "exact_ufp",
    "exact_muca",
]
