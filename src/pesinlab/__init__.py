"""Certified non-uniform hyperbolicity for torus maps.

Block certificates over orbit windows, quasi-hyperbolic partitions of long
segments, periodic shadowing of pseudo-orbits, and specification-style
gluing of orbit pieces into approximating periodic measures.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import cocycle, errors, pesin, quasihyp, shadow, specmeas, systems
from .errors import *
from .systems import *
from .cocycle import *
from .pesin import *
from .quasihyp import *
from .shadow import *
from .specmeas import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + systems.__all__ + cocycle.__all__ + pesin.__all__
           + quasihyp.__all__ + shadow.__all__ + specmeas.__all__)
