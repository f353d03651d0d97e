"""continuantlab: bounded-partial-quotient continued fractions at desk scale.

Subpackages by theme:

  cfcore    exact words, 2x2 integer matrices, Perron spectral data
  orbits    pruned enumeration, multiplicities, exceptions, sum-set checks
  dimension transfer-operator Hausdorff dimensions, sector counts
  products  near-multiplicativity estimates and product ensembles
  modular   continuants mod q, admissibility, nu_q, singular series
  qmc       lattice point sets and exact star discrepancy
  expsum    exponential sums, representation numbers, arc profiles
  cli       command-line interface over all of the above
"""

__version__ = "0.1.0"

from .cfcore import (Alphabet, SpectralData, cf_expand, cf_value,
                     even_normalize, matrix_to_fraction, norm_frobenius,
                     spectral, trace, word_to_matrix)
from .dimension import hensley_asymptotic, hull  # binds the module continuantlab.dimension
from .errors import (ConstructionError, InputError, NumericalError,
                     ResourceError)
from .modular import (closure_mod_q, is_admissible, nu_q,
                      primitive_root_witness, singular_series)
from .orbits import (enumerate_orbit, exceptions, hensley_exponent,
                     multiplicity_table, sumset_check)
from .products import build_omega, build_xi, mult_defect, vplus_drift
from .qmc import schmidt_floor, star_discrepancy, zaremba_bound, zn_points

__all__ = [
    "Alphabet", "SpectralData", "cf_expand", "cf_value", "even_normalize",
    "matrix_to_fraction", "norm_frobenius", "spectral", "trace",
    "word_to_matrix", "dimension", "hensley_asymptotic", "hull",
    "closure_mod_q", "is_admissible", "nu_q", "primitive_root_witness",
    "singular_series", "enumerate_orbit", "exceptions", "hensley_exponent",
    "multiplicity_table", "sumset_check", "build_omega", "build_xi",
    "mult_defect", "vplus_drift", "schmidt_floor", "star_discrepancy",
    "zaremba_bound", "zn_points", "InputError", "ResourceError",
    "NumericalError", "ConstructionError", "__version__",
]
