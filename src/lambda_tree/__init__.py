"""Three-state spin interactions on the rooted binary tree.

Ground-state classification by coupling region, finite-volume boundary-field
measures with their level recursion, and fixed-point phase analysis
(translation-invariant root counting and 2-periodic discriminant tests) on
the invariant line of the ratio recursion.
"""

from .errors import (CapacityError, DomainError, InternalConsistencyError,
                     LambdaTreeError)
from .tree import TreeCoord, TreeShape, successors
from .model import (Configuration, LambdaParams, RegionReport, SPINS,
                    classify_region, min_ball_energy)
from .ground import (FamilyDescriptor, GroundStateCatalog, LevelSequence,
                     REPRESENTATIVE_PARAMS, brute_force_minima, generators_for,
                     is_ground_state, realize, sample_family, verify_generators)
from .gibbs import (BoundaryFields, ConsistencyReport, FieldRatios,
                    FiniteVolumeMeasure, boltzmann_matrix, check_enumerable,
                    fields_from_ratios, finite_volume_measure, is_consistent,
                    measure_to_csv, propagate_ratios, push_forward)
from .solver import (BoltzmannWeights, CanonicalParams, FixedPointReport,
                     PeriodicReport, SweepRow, count_ti_roots, sweep,
                     sweep_to_csv, ti_thresholds, two_periodic_report,
                     weights_from)

__version__ = "0.1.0"
