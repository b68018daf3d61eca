"""Finite involutive quantales, Q-sets, Hilbert Q-modules, and groupoid sheaves."""

from .lattice import NotALattice, NotAPoset, SupLattice, chain_lattice, powerset_lattice
from .quantale import (BNotLocale, NotUnital, PropertyReport, Quantale,
                       are_isomorphic, base_locale, classify, modular_law,
                       partial_units, support, validate_quantale)
from .qmatrix import (QMatrix, QSet, completion, is_qset, is_strict,
                      quantal_set_conditions, random_qset, singletons)
from .hilbert import (ModuleHom, PreHilbertModule, adjoint,
                      hilbert_sections, is_hilbert_basis, is_module_hom,
                      local_sections, module_from_qset, module_over_self,
                      module_support, validate_prehilbert)
from .groupoid import (FiniteGroupoid, GroupoidAction, bisections,
                       disjoint_union, group_groupoid, module_from_action,
                       objects_action, pair_groupoid,
                       regular_action, sheafify, verify_equivalence)
from .search import BudgetExceeded, SearchSpec, search
from .catalog import catalog_entries, catalog_get, egger8, group_quantale, quantale_r4, relq

__version__ = "0.1.0"
