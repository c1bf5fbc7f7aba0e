"""Adaptive P1 finite elements for 2D elliptic obstacle problems."""

from . import adapt, boundary, estimator, fem, mesh, problems, vi
from .adapt import *
from .boundary import *
from .estimator import *
from .fem import *
from .mesh import *
from .problems import *
from .vi import *

__version__ = "0.1.0"
__all__ = [name for module in (adapt, boundary, estimator, fem, mesh,
                               problems, vi) for name in module.__all__]
__all__.append("__version__")
