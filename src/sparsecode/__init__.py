"""Measurement matrices from error-correcting codes, exhaustively certified.

Construction pipelines turn codes into compressed-sensing and group-testing
matrices (spherical/Boolean embeddings, designs, Kautz-Singleton); the
certifiers verify every claimed property — bias, coherence, RIP-2, flat RIP,
L-wise distance, disjunctness, list-decodability — by complete enumeration
at desk scale with explicit constants.
"""

from .words import Word
from .codes import (
    Code,
    LinearCode,
    DistanceReport,
    enumerate_codewords,
    min_distance,
    lwise_distance,
    lwise_bias,
    is_balanced,
    balance_closure,
    quotient_by_ones,
    code_bias,
    min_distance_epsilon,
    random_linear_code_gv,
    reed_solomon,
    read_code_file,
    write_code_file,
)
from .embeddings import sph_word, bool_word, sph_code, bool_code, sph_inverse_binary
from .certify import (
    coherence,
    rip2_constant,
    rip2_profile,
    flat_rip_constant,
    kernel_injectivity,
    translate_flat_to_rip,
    FLAT_FROM_RIP_FACTOR,
    bias_factor_from_flat,
)
from .bounds import (
    q_ary_entropy,
    gv_rate,
    gv_critical_expansion,
    mrrw_rate_bound,
    coherence_lower_indicator,
    row_bound_indicators,
)
from .group_testing import (
    Design,
    design_from_code,
    verify_design,
    verify_disjunct,
    max_disjunct_order,
    gt_encode,
    gt_decode_cover,
    kautz_singleton,
)
from .listdecode import (
    list_size_at_radius,
    johnson_check,
    converse_check,
    rip_to_listdecoding_report,
)
from .recovery import (
    vandermonde_matrix,
    unit_circle_nodes,
    cs_encode,
    cs_decode_exhaustive,
    uniqueness_certificate,
)
from .matrixio import read_matrix, write_matrix

__version__ = "0.1.0"
