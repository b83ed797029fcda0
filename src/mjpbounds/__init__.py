"""Concentration bounds for time averages of finite-state Markov jump processes.

The library validates a rate-matrix model, analyzes the generator's
pi-weighted spectral data, evaluates a family of exponential tail bounds for
P_nu(A_t/t >= u) where A_t integrates a centered observable along the path,
and estimates the same tail probabilities by exact trajectory simulation.
"""

from .bounds import (
    FAMILIES,
    BoundPoint,
    FSobolevVerdict,
    ModelAnalysis,
    analyze,
    bound_table,
    check_f_sobolev,
    evaluate_family,
    iid_sum_bound,
)
from .combinatorics import (
    SeriesCoefficients,
    beta,
    beta_total,
    lambda0_coefficients,
    motzkin,
    phi,
)
from .markov import (
    MJPModel,
    center_observable,
    check_detailed_balance,
    flip_observable,
    invariant_distribution,
    is_irreducible,
    make_model,
    pi_expectation,
    probability_vector,
    stationary_model,
    transition_matrix,
    validate_q_matrix,
)
from .modelio import ModelFile, load_model, read_model_file, save_model
from .simulate import (
    TailEstimate,
    empirical_variance_rate,
    tail_estimate,
    time_averages,
)
from .spectral import (
    SpectralData,
    adjoint_generator,
    pi_inner,
    pi_variance,
    resolvent_power,
    sigma_hat_sq,
    spectral_decomposition,
    symmetrized_generator,
)
from .tilting import (
    BernsteinParams,
    ConjugateResult,
    bernstein_conjugate,
    chi2_prefactor,
    lambda0,
    lambda0_star,
)

__version__ = "0.1.0"
