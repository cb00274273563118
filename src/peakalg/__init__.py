"""peakalg: peak statistics of ordinary and signed permutation windows.

The package covers, with exact arithmetic throughout:

- window statistics (interior/left/signed/right/exterior peaks, descents)
  and stable enumeration of both window groups (`permutations`);
- labeled and centrally symmetric orders with linear-extension enumeration
  (`posets`);
- enriched alphabets, chain maps, censuses, and pair-alphabet factorization
  (`alphabets`, `enriched`);
- quasisymmetric series in the monomial/fundamental bases, peak series,
  quasi-shuffle products, and exact span ranks (`qsym`);
- group-algebra convolution, class sums, structure tables, closure / ideal /
  containment checks (`group_algebra`, `linalg`);
- counting polynomials, orthogonal idempotents and their peak-number span,
  and the battery of statistics whose class sums fail closure (`eulerian`);
- a reporting verification suite and a command-line front end (`verify`,
  `cli`).
"""

from .permutations import (
    Composition,
    Permutation,
    SignedPermutation,
    StatSet,
    compose,
    descent_set,
    enumerate_group,
    enumerate_peak_sets,
    enumerate_stat_sets,
    fibonacci,
    peak_set,
    rank,
    stat_set,
    unrank,
)
from .posets import LabeledPoset, SignedPoset, parse_poset, zigzag_poset
from .alphabets import Alphabet
from .enriched import epp_census, epp_count, epp_maps, factorization_census
from .qsym import (
    QSymElement,
    evaluate,
    f_to_m,
    m_to_f,
    peak_function,
    peak_function_F,
    peak_function_b,
    peak_function_b_F,
    peak_series,
    quasi_shuffle,
    rank_of_span,
)
from .group_algebra import (
    AlgebraElement,
    StructureTable,
    class_sums,
    closure_check,
    convolve,
    ideal_check,
    multiplicative_closure,
    structure_table,
    verify_duality,
)
from .eulerian import (
    RationalPolynomial,
    negative_battery,
    order_polynomial,
    rho,
    rho_idempotents,
    verify_rho_multiplicativity,
)
from .verify import Bounds, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlgebraElement",
    "Bounds",
    "CheckResult",
    "Composition",
    "LabeledPoset",
    "Permutation",
    "QSymElement",
    "RationalPolynomial",
    "SignedPermutation",
    "SignedPoset",
    "StatSet",
    "StructureTable",
    "class_sums",
    "closure_check",
    "compose",
    "convolve",
    "descent_set",
    "enumerate_group",
    "enumerate_peak_sets",
    "enumerate_stat_sets",
    "epp_census",
    "epp_count",
    "epp_maps",
    "evaluate",
    "f_to_m",
    "factorization_census",
    "fibonacci",
    "ideal_check",
    "m_to_f",
    "multiplicative_closure",
    "negative_battery",
    "order_polynomial",
    "parse_poset",
    "peak_function",
    "peak_function_F",
    "peak_function_b",
    "peak_function_b_F",
    "peak_series",
    "peak_set",
    "quasi_shuffle",
    "rank",
    "rank_of_span",
    "rho",
    "rho_idempotents",
    "run_suite",
    "stat_set",
    "structure_table",
    "unrank",
    "verify_duality",
    "verify_rho_multiplicativity",
    "zigzag_poset",
]
