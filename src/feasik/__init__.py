"""feasik: finitely convergent overrelaxed projection methods for convex
feasibility problems, with certificate checks for the descent inequalities
that drive the finite-convergence argument."""

from .model import (Affine, AbsCoordMinusC, Ball, Box, Constraint, Halfspace,
                    MaxAffine, OuterSet, Problem, QuadCoordMinusC,
                    SquaredDistToBall, Sublevel, as_vector, feasible,
                    violated_indices)
from .operators import (CutterEval, check_cutter_property, evaluate_cutter,
                        project_subgradient)
from .controls import (Cyclic, Explicit, Intermittent, MaxDisplacement,
                       MaxViolation, RandomSets, RemotestSet, Repetitive,
                       empirical_well_matched, positivity_diagnostic)
from .schedules import (ConstantOverrelaxation, ConstantRelaxation,
                        ExplicitTable, FromFunction, Geometric, Harmonic,
                        MergedDecreasing, OverrelaxationList, PhiCustom,
                        PhiOne, PhiSubgradNorm, RelaxationList,
                        UniformOverActive, UniformOverViolated, beta)
from .engine import (CsvStream, QuietSpan, RunConfig, RunResult, Trace,
                     TraceRecord, solve, step, trace_csv_text, write_trace_csv)
from .certificates import (DescentMonitor, check_descent,
                           check_single_operator, oracle_a1, oracle_a2,
                           reproduce_a1, reproduce_a1_bracketed, reproduce_a2,
                           reproduce_a2_bracketed, slater_delta)
from .errors import (CertificateError, ConfigError, ControlError, FeasikError,
                     InconsistentConstraintError, PoolIndexError)
from .instances import random_slater_polyhedron

__version__ = "0.1.0"
