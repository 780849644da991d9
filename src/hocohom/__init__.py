"""Exact higher-order group cohomology of finite groups.

The chain of objects: a finite group G with a normal subgroup S, the group
algebra A = R[G] over an exact field, the ideals J_q = I^q + A*I_S built
from the augmentation ideals, and the derived functors
H_q^p = Ext_A^p(A/J_q, V) computed through certified-exact free
resolutions.  Level q = 1 recovers ordinary group cohomology, checked
against an independent brute-force cochain oracle; degree p = 1 is checked
against the ideal-cocycle model Hom_A(J_q, V)/alpha(V); and the long exact
sequence linking consecutive levels is materialized and verified node by
node.
"""

__version__ = "0.1.0"

from .linalg import Field, Matrix, Subspace, QuotientMap
from .groups import (
    Permutation, FiniteGroup, NormalSubgroup, close_generators, subgroup_closure,
)
from .algebra import (
    GroupAlgebra, IdealFiltration,
    augmentation_ideal, sigma_ideal, j_filtration, i_power_by_products,
)
from .modules import (
    GammaModule, ModuleMap,
    trivial_module, make_module, regular_module, coinduced_module,
    h_q0_annihilator, h_q0_inductive,
)
from .resolution import (
    FreeResolution,
    free_amodule, quotient_amodule, free_cover, build_resolution, ext,
    higher_cohomology, bar_dimension,
)
from .cocycle import hom_a_space, alpha_map, h_q1_cocycle
from .les import (
    ShortExactSequence, LongExactSequenceReport,
    quotient_ses, trivial_action_witness, horseshoe, long_exact_sequence,
    power_identification, vanishing_check,
)
from .problem import ProblemSpec, SpecError, parse_problem, load_problem
