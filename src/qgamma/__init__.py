"""q-Gamma function family with certified series truncation, plus a
property-based harness for the ratio inequalities it satisfies."""

from .errors import (
    AlphaBelowRoot,
    BracketFailure,
    DomainError,
    NonConvergence,
    Overflow,
    QGammaError,
)
from .qcore import (
    Evaluation,
    QParam,
    q_bracket,
    q_bracket_derivative,
    q_pow,
    sum_geometric_decay,
)
from .qspecial import (
    PsiRoot,
    euler_gamma_q,
    gamma_q,
    ln_gamma_q,
    psi_q,
    psi_q_m,
    psi_q_root,
)
from .classical import (
    EULER_GAMMA,
    ln_gamma_classical,
    psi_classical,
)
from .bounds import (
    BoundPair,
    DomainSpec,
    INEQUALITY_IDS,
    cached_psi_root,
    cor_half_shift_bounds,
    cor_mu_lambda_bounds,
    cor_one_half_bounds,
    default_domain,
    keckic_vasic_bounds,
    remark_rearranged_bounds,
    thm_alpha_bounds,
    thm_main_bounds,
    thm_mvt_bounds,
    zhang_xu_situ_bounds,
)
from .propcheck import (
    ALL_CHECK_IDS,
    CertificateReport,
    SampleBatch,
    certify,
    check_geometric_convexity,
    check_lemma_monotone_slope,
    check_limits,
    evaluate_point,
    report_to_dict,
    report_to_text,
    run_check,
    sample,
)

__version__ = "0.1.0"
