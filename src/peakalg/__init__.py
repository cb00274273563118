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
- exact sparse vectors and their spans (`linalg`), the one arithmetic and
  elimination of the group-algebra and quasisymmetric elements;
- group-algebra convolution, class sums, structure tables, closure / ideal /
  containment checks (`group_algebra`);
- counting polynomials, orthogonal idempotents and their peak-number span,
  and the battery of statistics whose class sums fail closure (`eulerian`);
- a reporting verification suite and a command-line front end (`verify`,
  `cli`).

The namespace resolves names on first use (PEP 562): `import peakalg` loads
no submodule, and the first access to an exported name or a submodule
imports its home module and binds the name here, so later accesses are plain
lookups.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "permutations": (
        "Composition", "Permutation", "SignedPermutation", "StatSet", "compose", "descent_set",
        "enumerate_group", "enumerate_peak_sets", "enumerate_stat_sets", "fibonacci", "peak_set",
        "rank", "stat_set", "unrank",
    ),
    "posets": ("LabeledPoset", "SignedPoset", "parse_poset", "zigzag_poset"),
    "alphabets": ("Alphabet",),
    "enriched": ("epp_census", "epp_count", "epp_maps", "factorization_census"),
    "qsym": (
        "QSymElement", "evaluate", "f_to_m", "m_to_f", "peak_series", "quasi_shuffle", "rank_of_span",
    ),
    "group_algebra": (
        "AlgebraElement", "StructureTable", "class_sums", "closure_check", "ideal_check",
        "multiplicative_closure", "structure_table", "verify_duality",
    ),
    "eulerian": (
        "RationalPolynomial", "negative_battery", "order_polynomial", "rho", "rho_idempotents",
        "verify_rho_multiplicativity",
    ),
    "verify": ("Bounds", "CheckResult", "run_suite"),
}
_SUBMODULES = (*_EXPORTS, "linalg", "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return [*__all__, *_SUBMODULES, "__version__"]
