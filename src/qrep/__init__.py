"""Verified character tables of GL2 and SL2 over small finite fields.

Everything is built twice: once by the structural construction
(parabolic induction, the Heisenberg/Weil representation, cuspidal
extraction) and once by a brute-force or closed-form oracle, and the
two are compared numerically.  Nothing is returned unverified.
"""

from .config import DEFAULT_TOL, get_tol
from .errors import (CharMismatch, DerivativeVanishes, EvenExponent, EvenQ,
                     GroupMismatch, IoError, NonIntegral, NonPrime,
                     NotInGroup, NotIrreducible, NotPrimitive, NotSL2,
                     NotSplitting, QrepError, SizeExceeded, SizeMismatch,
                     Singular, VerificationFailed)
from .ff import (AddChar, ExtCtx, FieldCtx, MultChar, NormOneChar,
                 dual_pairing, fourier_transform, is_primitive, make_ext,
                 make_field)
from .repcore import (ClassFunction, FiniteGroupView, MatrixRep,
                      MonomialImages, SubgroupEmbedding,
                      character_table_bruteforce, hom_dim, induce,
                      inner_product, rep_character, subgroup_view)
from .gl2 import ConjClass, GroupCtx, bruhat, make_group, sl2_split_test
from .parabolic import (BorelChar, build_induced_rep, decompose_gl2,
                        delta_kernels, delta_relation_defect,
                        epsilon_swap_defect, induced_character,
                        intertwiner_idempotents, intertwiner_mismatches,
                        predicted_intertwiner_dim, split_rho_pm)
from .weil import (CuspidalModule, HeisenbergCtx, averaging_check,
                   fourier_intertwines, gl2_cuspidal_family,
                   heisenberg_from_ext, heisenberg_group, heisenberg_rep,
                   pi_omega_character, pi_omega_characters,
                   sl2_cuspidal_family, svn_check, symplectic_defect,
                   verify_ordinary, weil_matrix)
from .chartab import CharacterTable, SUPPORTED, build_table, emit, verify_table
from .simclass import (SimilarityType, centralizer, charpoly, companion,
                       count_irreducible_monics, count_similarity_classes,
                       cuspidal_count_identity, hensel_lift, jordan_form,
                       similarity_type)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
