"""Exact computation in limits of Baumslag-Solitar groups.

The package computes with the marked groups determined by a nonzero
integer m and an m-adic parameter: digit sequences, the HNN model over a
free abelian base of countable rank, word and conjugacy decision
procedures, distances in the space of marked groups, isomorphism
classification, and the standard quotient onto the wreath product Z wr Z.
"""

from .errors import (
    BslError,
    GcdMismatch,
    InvalidAutSpec,
    NonInvertibleDenominator,
    NoUnitRealization,
    OracleInconsistent,
    ParseError,
    PinchDomainViolation,
    PreconditionViolated,
    RDigitBudgetExceeded,
    SameGroup,
    ShapeMismatch,
    SizeLimitExceeded,
    UndecidableSpec,
    UnsupportedSpecKind,
    WitnessCheckFailed,
    ZeroElement,
)
from .madic import (
    IntPoly,
    LaurentPoly,
    MarkedGroupSpec,
    RDigitStream,
    XiRat,
    XiSeq,
    XiSpec,
    format_xi,
    parse_xi,
    project_unit,
    xi_from_prefix,
)
from .lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    a_conjugate,
    fixed_interval,
    format_evec,
    p_polys,
    parse_evec,
    phi_apply,
    q_poly,
    subgroup_membership,
)
from .group import (
    ALetter,
    BaseLetter,
    GroupWord,
    NormalForm,
    ReducedForm,
    are_conjugate,
    base_conjugacy_solve,
    britton_reduce,
    commutator,
    cyclic_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
    sigma_and_tlength,
)
from .bsclassic import BSSpec, bs_is_trivial, bs_n_of_k, parse_bs_word
from .markedspace import (
    DistanceBounds,
    b_i_word,
    distance_bounds,
    isomorphic,
    recover_parameters,
    relator,
    shortest_distinguishing,
    v_k_word,
    w_word,
    win_e_word,
    word_problem_oracle,
    word_to_compact,
)
from .morphisms import (
    EmbedD,
    HomCheckResult,
    J,
    PhiE,
    ThetaK,
    WreathElem,
    apply_automorphism,
    hom_check,
    wreath_image,
)

__all__ = [name for name in dir() if not name.startswith("_")]
