"""Ore localization of involutive algebras at denominators 1 + p'p,
representations built from moment tables, and a calculus of banded
operators with certified truncated inversion.

The symbolic layers (presentations, fractions, certificates, moment
tables, band formulas) are exact over the Gaussian rationals; floating
point appears only where operators act on concrete vectors, always with
an a-posteriori residual check.
"""

from .algebra import (AlgebraElement, Presentation, PRESETS, format_element,
                      load_preset, random_element, random_scalar)
from .errors import (ConfigError, DegreeOverflow, ExpressionError,
                     FormulaDomainError, InsufficientDegree,
                     IrregularDenominator, OresError, OreWitnessNotFound,
                     PresentationError, PresentationMismatch, StateAxiomError,
                     TruncationLimit)
from .exprparse import (ParseError, ast_to_element, fraction_to_text, parse,
                        parse_element, parse_fraction_text,
                        parse_sproduct_text)
from .formulas import CPoly, Formula, QPoly
from .gns import GnsRepresentation, gns
from .localization import (DEFAULT_BUDGET, EqResult, Fraction, OreBudget,
                           SProduct, embed, eq_fraction, frac_add,
                           frac_dagger, frac_mul, ore_solve_left,
                           ore_solve_right, remark_mult_property_check)
from .operators import (BandedOperator, ChainSolveResult, ExtensionResult,
                        FockAssignment, InversionResult, chain_solve,
                        core_density_probe, extend_representation,
                        fock_assignment, invert_one_plus_AstarA,
                        lemma_pis_equals_S_check, one_plus_AstarA,
                        pi_s_surjectivity_probe, sproduct_operator)
from .positivity import (CofinalityResult, PositivityCertificate,
                         cofinal_dominator, square_expansion_certificate,
                         verify_certificate)
from .scalars import IMAG, ONE, Scalar, ZERO
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario, \
    write_scenario_report
from .states import (MomentFunctional, check_state_axioms, dirac_state,
                     from_numeric, gaussian_state)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
