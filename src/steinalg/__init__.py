"""Exact-arithmetic models of two ample groupoids and their convolution
algebras: a self-similar action groupoid built from commuting free factors
and a bundle of groups over a convergent sequence space.

Submodules:

- groups: free words, the acting groups, spheres and word homomorphisms
- selfsim: letters, finite and eventually periodic words, the inverse
  semigroup of partial bisections, germs
- steinberg: formal convolution elements over the action groupoid,
  singularity verdicts, open-support witnesses
- bundle: the group-bundle groupoid, its convolution algebra and the
  scattering elements
- repnorm: certified two-sided reduced-norm estimates
- syntax: parsers for the expression and unit-set grammars, into which
  every value prints back
- cli: the `steinalg` command (verify / scatter / eval)
"""

from .bundle import (
    barrow,
    bstein_conv,
    bstein_eval,
    bundle_a,
    bundle_bn,
    bundle_chi,
    bundle_chiB,
    bundle_is_singular,
    bundle_sup_dist,
    buset,
)
from .groups import GElt, KElt, ball, free_word, hom_pi, hom_tau, hom_zeta, sphere
from .repnorm import (
    bundle_norm_bound, cauchy_profile, haagerup_bound, rho_estimate, stein_H_norm_bound
)
from .selfsim import (
    effectiveness_witness,
    finword,
    omega,
    strongly_fixed_spectrum,
    yl,
    zl,
)
from .steinberg import (
    st_a,
    st_bn,
    st_chiB,
    st_chi_cylinder,
    st_conv,
    st_eval,
    st_is_singular,
    st_open_witness,
    st_sup_dist,
)
from .syntax import parse_buset, parse_selt

__all__ = [
    "GElt",
    "KElt",
    "ball",
    "barrow",
    "bstein_conv",
    "bstein_eval",
    "bundle_a",
    "bundle_bn",
    "bundle_chi",
    "bundle_chiB",
    "bundle_is_singular",
    "bundle_norm_bound",
    "bundle_sup_dist",
    "buset",
    "cauchy_profile",
    "effectiveness_witness",
    "finword",
    "free_word",
    "haagerup_bound",
    "hom_pi",
    "hom_tau",
    "hom_zeta",
    "omega",
    "parse_buset",
    "parse_selt",
    "rho_estimate",
    "sphere",
    "st_a",
    "st_bn",
    "st_chiB",
    "st_chi_cylinder",
    "st_conv",
    "st_eval",
    "st_is_singular",
    "st_open_witness",
    "st_sup_dist",
    "stein_H_norm_bound",
    "strongly_fixed_spectrum",
    "yl",
    "zl",
]
