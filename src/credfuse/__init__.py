"""Credible evidence fusion over Dempster-Shafer mass functions.

The package splits into:

* :mod:`credfuse.core` — frames, mass functions, belief/plausibility,
  pignistic probabilities, and Dempster's combination rule;
* :mod:`credfuse.divergence` — evidence-difference measures (the
  plausibility-belief arithmetic-geometric divergence and a mass-level
  Jensen-Shannon baseline) plus demonstration curve generators;
* :mod:`credfuse.credibility` — pairwise and event-evaluation matrices and
  the credibility vectors derived from them;
* :mod:`credfuse.fusion` — open-loop weighted fusion (Murphy and friends)
  and the closed-loop iterative credible fusion;
* :mod:`credfuse.classify` — an interval-number base classifier and
  benchmark harnesses;
* :mod:`credfuse.documents` / :mod:`credfuse.cli` — evidence-set files and
  the command-line surface.
"""

from .classify import (
    Dataset,
    EvaluationReport,
    IntervalModel,
    attribute_evidence,
    classify_sample,
    fit_interval_model,
    interval_distance,
    load_dataset,
    monte_carlo_evaluate,
    sweep_evaluate,
)
from .core import (
    EmptySetFocalError,
    Frame,
    FrameMismatchError,
    InvalidMassValueError,
    LengthMismatchError,
    MassFunction,
    MassFunctionError,
    NegativeMassError,
    NotNormalizedError,
    TooFewPiecesError,
    TotalConflictError,
    dcr_n,
    dcr_pair,
    event_evidence,
    self_fuse,
    superset_mobius,
    superset_zeta,
    vacuous,
    validate_masses,
)
from .credibility import (
    EventEvaluationMatrix,
    PairwiseDifferenceMatrix,
    average_support_credibility,
    build_edmm,
    build_eem,
    conditional_credibility,
    eigenvalue_credibility,
    initial_prob_from_eem,
    initial_prob_uniform,
    support_matrix,
)
from .divergence import (
    BJS,
    PBAGD,
    DivergenceMeasure,
    MassJensenShannon,
    PBAGDivergence,
    ag_divergence,
    bjs,
    get_measure,
    pb_transform,
    pbagd,
    register_measure,
    span_imbalance_grid,
    span_overlap_series,
    subset_bel_pl,
)
from .documents import (
    BUILTIN_DOCUMENTS,
    EvidenceDocument,
    builtin_document,
    dump_evidence_document,
    load_evidence_document,
    parse_evidence_document,
)
from .fusion import (
    FUSION_METHODS,
    FusionResult,
    IcefConfig,
    IcefStep,
    IcefTrace,
    InvalidConfigError,
    cef_fuse,
    dcr_fuse,
    decide,
    fuse,
    icef,
    murphy_fuse,
    weighted_average,
)

__version__ = "0.1.0"
