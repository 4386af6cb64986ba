"""Linear-programming substrate.

Everything LP-shaped in the reproduction goes through this package:

* :mod:`repro.lp.model` — the solver-form program record
  (:class:`AssembledLP`: objective, bounds, CSR constraint blocks) and the
  solution record.
* :mod:`repro.lp.solver` — :func:`solve_lp`, the HiGHS solve wrapper: it
  hands the program to the HiGHS binding scipy vendors
  (``scipy.optimize._highspy._core``) with linprog's model and options, and
  returns normalized statuses and duals.
* :mod:`repro.lp.fractional_ufp` — the relaxation of the Figure 1 ILP
  (edge-flow formulation, one flow per commodity root), used as the
  fractional optimum / upper bound in every UFP experiment, with a
  "repetitions" mode matching Figure 5.  Its optimum decomposes into
  per-request path distributions, which randomized rounding samples.
* :mod:`repro.lp.fractional_muca` — the relaxation of the auction ILP.
* :mod:`repro.lp.duality` — helpers for checking weak duality and building
  dual objective values from ``(y, z)`` variable sets.

Every model is assembled directly as sparse arrays, one function per model
(``edge_flow_program``, ``bid_packing_program``), and handed to
:func:`solve_lp` as one :class:`AssembledLP`.
"""

from repro.lp.model import AssembledLP, LPSolution
from repro.lp.solver import solve_lp
from repro.lp.fractional_ufp import FractionalUFPResult, solve_fractional_ufp
from repro.lp.fractional_muca import FractionalMUCAResult, solve_fractional_muca
from repro.lp.duality import ufp_dual_objective, check_weak_duality

__all__ = [
    "AssembledLP",
    "LPSolution",
    "solve_lp",
    "FractionalUFPResult",
    "solve_fractional_ufp",
    "FractionalMUCAResult",
    "solve_fractional_muca",
    "ufp_dual_objective",
    "check_weak_duality",
]
