"""Exact arithmetic for multidimensional p-adic continued fraction
algorithms: digit arithmetic on rationals, number-field arithmetic with an
admissible generator, Hensel embeddings, the p-reduced matrix normal form,
the expansion engine, and the experiment harness.
"""

from .rationals import (
    BACKEND,
    ORD_INF,
    Q,
    absp,
    head_tail,
    height,
    omega,
    ordp,
    qformat,
    qparse,
)
from .field import (
    FieldElement,
    MinPoly,
    VectorElement,
    coeff_matrix,
    denom_z,
    element_minpoly,
    height_z,
    independent_with_one,
    validate_minpoly,
)
from .hensel import Embedding, hensel_lift
from .preduce import RationalMatrix, is_p_reduced, p_reduce
from .cfrac import (
    ALGORITHMS,
    CMapStep,
    ExpansionRecord,
    Status,
    convergent,
    expand,
    forward_step,
    g_map,
    h_map,
    in_E,
    inverse_step,
    lookahead_phi2,
    step_phi0,
    step_phi1,
    step_phi2,
    step_phi3,
)
from .lab import (
    BitStream,
    RunConfig,
    TableRow,
    TestSuite,
    build_test_set,
    build_z_set,
    byte_stream,
    emit_table,
    irrational_bits,
    parse_table,
    run_batch,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
