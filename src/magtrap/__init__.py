"""Two identical trapped ions in a magnetic field: relative-motion toolkit.

Spectra, probability currents and wave-packet dynamics of the planar
relative motion of two identically charged particles held in a harmonic
trap and threaded by a homogeneous axial magnetic field.  Everything is
expressed in trap units through two dimensionless knobs: the field-to-trap
frequency ratio nu and the Coulomb coupling b.

Modules
-------
params       unit conventions, dimensionless parameters, effective potential
radial       variational eigensolver for the angular-momentum sectors
observables  densities, azimuthal currents, velocity expectations
dynamics     split-operator propagation and grid sector ground states
io_utils     headered CSV / JSON / grid-dump artifact files
cli          the `magtrap` command line front end

Each module's `__all__` is its list of public names.  The package
re-exports those of params, radial, observables and dynamics.
"""

from .io_utils import ARTIFACT_VERSION as __version__
from .params import *  # noqa: F401,F403
from .radial import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from . import dynamics, observables, params, radial

__all__ = ["__version__", *params.__all__, *radial.__all__,
           *observables.__all__, *dynamics.__all__]
