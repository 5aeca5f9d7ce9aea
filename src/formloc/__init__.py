"""Relative localization and distance-based formation control for planar
agent networks.

Agents measure squared distances to their graph neighbors plus their own
heading, estimate the neighbors' relative positions with a Kalman filter
whose prediction runs on a matrix Lie group of stacked planar offsets, and
feed those estimates to gradient-style formation controllers.  The package
bundles the group/filter/controller layers, observability rank tests, the
paper's scenarios, a deterministic closed-loop engine, and a CLI.

Each public name is declared once, in the `__all__` of the module that
defines it; the package re-exports every name of `controller`, `estimator`,
`lie_group`, `network`, `observability`, `scenario` and `sim`, so
`formloc.X` is `formloc.<module>.X`.  The CLI (`formloc.cli`) is not
re-exported.
"""

from . import controller, estimator, lie_group, network, observability, scenario, sim
from .controller import *
from .estimator import *
from .lie_group import *
from .network import *
from .observability import *
from .scenario import *
from .sim import *

__version__ = "0.1.0"

__all__ = [*controller.__all__, *estimator.__all__, *lie_group.__all__, *network.__all__,
           *observability.__all__, *scenario.__all__, *sim.__all__, "__version__"]
