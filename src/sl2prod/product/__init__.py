"""The tensor product construction and its verification suites.

Public surface: the product representation (:func:`build_product`) and its
construction gate (:func:`check_construction`), the model bimodule elements,
the structure maps (``x̃``, ``τ̃``, ``σ̃``, the pairings and the mixed
component ``omega3``) with independent oracle recomputations, and the
commutator maps with two certification routes.  Every check returns its
verdicts as :func:`~sl2prod.bimodcat.record` dicts.
"""

from .elements import (Elt, NotInModelError, apply_map, basis_elt, elem_tensor,
                       join, solve_op, zero_elt)
from .models import (ModelElt, G1Elt, G2Elt, G3Elt, L2Elt, UElt, one_G1,
                     one_at, compose_G1, compose_U, compose_L2_after_G2,
                     compose_G1_after_L2, compose_L2_after_U, act_G1_on_G2,
                     act_G1_on_U, tau22, decompose_first)
from .core import (ProductRep, build_product, check_construction, c_basis,
                   c_mult, tilde_x_pow, tilde_x_step_21, tilde_x_step_22, tau21,
                   tilde_tau, tilde_sigma_closed, eps_xi_F_closed,
                   F_xi_eta_closed)
from .gammas import omega3_map, omega3_apply
from .oracles import (OracleClaimError, pair_basis, tilde_sigma_oracle,
                      eps_xi_F_oracle, F_xi_eta_oracle, check_product_hecke,
                      check_eta22_identity, check_omega3_linearity)
from .rho import RhoMap, tilde_rho, triangular_certificate

__all__ = [
    "Elt", "NotInModelError", "apply_map", "basis_elt", "elem_tensor",
    "join", "solve_op", "zero_elt",
    "ModelElt", "G1Elt", "G2Elt", "G3Elt", "L2Elt", "UElt", "one_G1",
    "one_at",
    "compose_G1", "compose_U", "compose_L2_after_G2", "compose_G1_after_L2",
    "compose_L2_after_U", "act_G1_on_G2", "act_G1_on_U", "tau22",
    "decompose_first",
    "ProductRep", "build_product", "check_construction", "c_basis", "c_mult",
    "tilde_x_pow", "tilde_x_step_21", "tilde_x_step_22", "tau21",
    "tilde_tau", "tilde_sigma_closed", "eps_xi_F_closed", "F_xi_eta_closed",
    "omega3_map", "omega3_apply",
    "OracleClaimError", "pair_basis", "tilde_sigma_oracle",
    "eps_xi_F_oracle", "F_xi_eta_oracle", "check_product_hecke",
    "check_eta22_identity", "check_omega3_linearity",
    "RhoMap", "tilde_rho", "triangular_certificate",
]
