"""Geometry of finite mixtures on the unit simplex.

Simplex samplers, convex-hull extremal sets and growth experiments, unique
barycentric (Choquet) weight recovery over simplex frames, Polya tree
posterior weight estimation, and a two-stage admixture fitting pipeline that
prunes a generous component budget down to the identifiable ones.

The package re-exports the ``__all__`` of each module below; those lists are
the one declaration of the public names.  ``cli`` is the console entry point
and is not re-exported.
"""

__version__ = "0.1.0"

from . import admixture, asymptotics, choquet, hull, polya, simplex
from .admixture import *
from .asymptotics import *
from .choquet import *
from .hull import *
from .polya import *
from .simplex import *

__all__ = ["__version__"]
for _module in (admixture, asymptotics, choquet, hull, polya, simplex):
    __all__ += _module.__all__
del _module
