"""Exact canonical and log-canonical thresholds of hypersurface
singularities from their Newton diagrams, with realizing weight vectors."""

from .lattice import *
from .newton import *
from .engine import *
from .brieskorn import *
from .blowup import *

__version__ = "0.1.0"
