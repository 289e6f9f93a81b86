"""polykit: polynomial regression with collinearity diagnostics and
network-to-polynomial analysis tools."""

from .dataset import (
    ColumnSpec,
    Dataset,
    DummyGroups,
    Schema,
    dataset_from_arrays,
    encode_design,
    load_csv,
    split,
)
from .diagnostics import VIFReport, probe_layers, vif, vif_summary
from .equivalence import (
    SymbolicPoly,
    degree_growth_report,
    equivalence_check,
    extract_polynomial,
    poly_add,
    poly_mul,
    poly_pow,
)
from .errors import (
    DataError,
    MemoryBudgetError,
    ModelFormatError,
    PolykitError,
    TrainingDiverged,
)
from .fitcore import (
    PCABasis,
    PolyModel,
    corr,
    fit_logistic_ova,
    fit_ols,
    fit_poly_model,
    fit_ridge,
    mape,
    pca_fit,
    pca_transform,
    pcc,
    predict,
)
from .mlp import MLP, MLPConfig, forward, layer_activations, train_mlp
from .modelio import load_model, save_model
from .polyterms import (
    Monomial,
    PolySpec,
    TermSet,
    count_terms_bound,
    enumerate_terms,
    expand,
    thinned_terms,
)
from .stepwise import FSRConfig, FSRResult, fsr

__version__ = "0.1.0"
