"""Spin-orbit photon pairs: state construction, Stokes textures, topology.

The package models a heralded two-photon source in which one photon's
polarization steers the transverse polarization texture of its partner.
`hilbert` builds the states, `stokesfield` renders conditional Stokes maps,
`topology` integrates and segments the resulting skyrmion densities,
`tomography` and `bell` cover state verification, and `cli` exposes the
whole pipeline as a command-line tool.

The package namespace is the union of the library modules' ``__all__``
lists: each public name is declared once, in its own module.
"""

__version__ = "0.1.0"

from . import bell, errors, hilbert, modes, stokesfield, tomography, topology
from .bell import *
from .errors import *
from .hilbert import *
from .modes import *
from .stokesfield import *
from .tomography import *
from .topology import *

__all__ = ["__version__"] + [
    name
    for module in (bell, errors, hilbert, modes, stokesfield, tomography, topology)
    for name in module.__all__
]
