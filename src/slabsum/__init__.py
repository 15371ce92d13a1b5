"""Approximate balanced subset-sum decisions with exact certificates.

The decision engine quantizes the constraint normal to few bits, scans a
small window of integer targets with a pseudo-polynomial DP, and certifies
either a vertex-free inner slab or a found vertex with its exact quality
numbers.  A simultaneous-constraint solver relaxes several hyperplanes to
spherical shells, merges them pairwise, and grid-searches the discarded
cross terms.  A brute-force vertex oracle backs every claim at desk scale.
"""

from .dp import BudgetError, FamilyScan, TargetFamily, dp_decide, dp_run, family_window, solve_family
from .instance import (ParseError, PartitionInstance, SspInstance, SsspInstance,
                       gen_planted, gen_random, gen_sssp_random, read_instance,
                       write_instance)
from .numerics import Surd, floor_div_sqrt, sqrt_diff_within
from .oracle import (OracleReport, SlabPopulation, enumerate_partition, eval_L0,
                     min_vertex_L0, slab_population)
from .quantize import (QuantizationUnderflow, QuantizedNormal, ShiftBound,
                       quantize, shift_bound_report, unit_gap_bound)
from .slab import (EmptyInner, SlabVerdict, VertexFound, decide, decide_epsilon,
                   dump_verdict, slab_contains, verdict_to_json)
from .sssp import (GridBudgetError, LevelGrid, MergeTree, Shell,
                   SsspCertificate, build_shells, correction_grids, cross_sum,
                   curvature_term, exact_l0, merge_pair, merge_tree, solve,
                   telescoped_l0)

__version__ = "0.1.0"
