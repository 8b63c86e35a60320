"""Exact sensitivity analysis for contingency tables under generic-bias confounding.

The package tests Fisher's sharp null on an I x J (or stratified I x J x K)
contingency table while allowing treatment assignment to be tilted by an
unmeasured binary confounder, bounded on the odds-ratio scale by
Gamma = exp(gamma).  It computes exact worst-case p-values by scanning a
finite candidate set of confounder classes, with the heavy lifting done by
closed-form assignment-counting kernels instead of raw permutation
enumeration.  Sampling estimators, normal approximations, stratified evidence
combining, and power/size simulation drivers round out the toolkit.
"""

from exactsens.tables import (
    ContingencyTable,
    Margins,
    collapse,
    crosscut,
    enumerate_fixed_margin_tables,
)
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityModel
from exactsens.stats import (
    TestFamily,
    TestStatistic,
    cell_statistic,
    chi2_statistic,
    g2_statistic,
    ordinal_statistic,
    sign_score_statistic,
)
from exactsens.exactdist import (
    brute_force_alpha,
    exact_alpha,
    exact_alpha_grid,
    kernel_alpha,
    kernel_q,
    kernel_t_q,
    mvehg_pmf,
)
from exactsens.worstcase import (
    WorstCaseResult,
    candidates_ordinal,
    candidates_pi,
    signscore_u_plus,
    worst_case_pvalue,
    worst_case_multi_delta,
)
from exactsens.moments import cell_moments, dist_q, normal_approx_pvalue, test_moments
from exactsens.stratified import (
    StratifiedStudy,
    closed_testing,
    combined_pvalue,
    stratified_worst_case,
    truncated_product,
)

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "Margins",
    "collapse",
    "crosscut",
    "enumerate_fixed_margin_tables",
    "SensitivityModel",
    "ConfounderClass",
    "RawConfounder",
    "TestFamily",
    "TestStatistic",
    "ordinal_statistic",
    "sign_score_statistic",
    "chi2_statistic",
    "g2_statistic",
    "cell_statistic",
    "kernel_q",
    "kernel_t_q",
    "exact_alpha",
    "exact_alpha_grid",
    "kernel_alpha",
    "brute_force_alpha",
    "mvehg_pmf",
    "candidates_pi",
    "candidates_ordinal",
    "signscore_u_plus",
    "worst_case_pvalue",
    "worst_case_multi_delta",
    "WorstCaseResult",
    "dist_q",
    "cell_moments",
    "test_moments",
    "normal_approx_pvalue",
    "StratifiedStudy",
    "stratified_worst_case",
    "truncated_product",
    "combined_pvalue",
    "closed_testing",
    "__version__",
]
