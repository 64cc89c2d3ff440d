"""Mixed-integer linear programming substrate.

The paper solves its per-sample buffer-minimisation problems with Gurobi.
Gurobi is not available offline, so this subpackage provides a
self-contained replacement with the small API surface the flow needs:

* :mod:`repro.milp.expr` — linear expressions and constraints built with
  natural Python operators;
* :mod:`repro.milp.model` — the :class:`Model` front end (variables,
  constraints, objective, ``solve``);
* :mod:`repro.milp.simplex` — a dense two-phase primal simplex solver for
  the LP relaxations (pure numpy);
* :mod:`repro.milp.backends` — optional scipy ``linprog`` (HiGHS) backend
  used when scipy is installed (cross-validated against the built-in
  simplex in the test suite);
* :mod:`repro.milp.branch_bound` — best-first branch & bound on integer
  and binary variables with warm-start incumbents.

``Model`` and branch & bound serve the ``solver="milp"`` validation path,
the only user of the LP engines: the default graph solver concentrates
its tuning values without an LP (:mod:`repro.core.sample_solver`).

The solver targets the small and medium problems produced by the
sampling-based flow (tens of variables); it is exact, deterministic and
dependency-light rather than industrial-strength.
"""

from repro.milp.expr import Constraint, LinExpr, Sense
from repro.milp.model import Model, Objective, Var, VarType
from repro.milp.solution import Solution
from repro.milp.status import SolveStatus

__all__ = [
    "LinExpr",
    "Constraint",
    "Sense",
    "Model",
    "Var",
    "VarType",
    "Objective",
    "Solution",
    "SolveStatus",
]
