"""Evaluation harness: the paper's test problems, tables and figures.

* :mod:`repro.experiments.problems` — synthetic analogues of the eight
  matrices of Table 1 (the real collections are not redistributable and not
  available offline), with the same symmetric/unsymmetric split and the same
  structural regimes;
* :mod:`repro.experiments.tables` — regenerates Tables 1–6 through a
  :class:`~repro.session.Session`;
* :mod:`repro.experiments.figures` — regenerates the illustrative Figures 1–8
  as ascii/structured data.
"""

from repro.experiments.problems import ProblemSpec, PROBLEMS, get_problem, SYMMETRIC_PROBLEMS, UNSYMMETRIC_PROBLEMS
from repro.experiments import tables
from repro.experiments.tables import ORDERING_NAMES
from repro.experiments import figures

__all__ = [
    "ProblemSpec",
    "PROBLEMS",
    "get_problem",
    "SYMMETRIC_PROBLEMS",
    "UNSYMMETRIC_PROBLEMS",
    "ORDERING_NAMES",
    "tables",
    "figures",
]
