"""Multiplicative functions on k-free integers and their exact partial sums.

The package builds real Dirichlet characters and their completely
multiplicative +-1 modifications, restricts them to the k-free integers,
and computes the resulting summatory functions exactly at scale -- by
direct segmented sieving and, independently, by the Dirichlet hyperbola
identity -- together with envelope and growth-exponent analysis of the
observed cancellation.
"""

from .characters import RealCharacter, build_real_character, character_table, kronecker_symbol
from .constructions import (
    BudgetReport,
    DeviationBudget,
    GrowthReport,
    ModificationPlan,
    completed_character,
    deviation_sum,
    greedy_plan,
    growth_report,
    modified_character,
    pretentious_distance,
    verify_deviation_budget,
)
from .convolution import (
    ConvolutionTable,
    deviation_factor,
    dirichlet_convolve,
    dirichlet_inverse,
    kfree_factor,
    pointwise_product,
)
from .analysis import (
    EnvelopeSpec,
    ExponentFit,
    envelope_ratio,
    figure1,
    fit_exponent,
    power_envelope,
    synthetic_power_series,
)
from .errors import (
    CapacityError,
    CharacterConstructionError,
    ConfigError,
    FitError,
    KfreesumsError,
    MethodMismatchError,
    NonInvertibleError,
    OracleDomainError,
    PlanError,
    RangeError,
    ShapeError,
)
from .experiment import (
    CompareReport,
    ExperimentConfig,
    compare_methods,
    load_config,
    parse_config,
    run_experiment,
)
from .rules import MultiplicativeRule, character_rule, mobius_rule, one_rule
from .sieve import (
    DenseValueTable,
    SpfTable,
    build_spf,
    introot,
    sieve_kfree_segment,
    sieve_mobius_segment,
    sieve_primes,
)
from .summatory import (
    HyperbolaSplit,
    PartialSumSeries,
    PrefixSummatory,
    SmoothSummatory,
    checkpoint_schedule,
    direct_summatory,
    direct_value,
    explicit_split,
    hyperbola_sum,
    kfree_hyperbola_sum,
    mertens,
    mertens_recursive,
    optimal_split,
    sqrt_split,
    stream_summatory,
    streamed_summatory_map,
    summatory_mu_chi,
)

__version__ = "0.1.0"
