"""Exact intersection theory on projectivised tangent bundles.

The package re-derives, in exact rational arithmetic, the divisor-class and
intersection-number computations behind positivity certificates for tangent
bundles of del Pezzo surfaces, Fano hypersurfaces and del Pezzo threefolds:
a pushforward engine over finite intersection profiles, Picard-lattice
curve enumeration, Schur functor dimension calculus, and a claim registry
that re-checks every pinned constant.  The package root imports no layer:
import each name from its module, as in ``from tautclass.chow import eval_top``.
"""

__version__ = "0.1.0"
