"""Point cloud registration toolkit.

Rigid motions and descriptors come in through the readers in
:mod:`lidarreg.io`, pairs get matched, filtered, robustly estimated, and
refined by the pipeline, and the benchmark side builds balanced
registration sets from posed trajectories.  Everything here is seeded and
deterministic; the command line in :mod:`lidarreg.cli` wraps the same
calls for file-to-file use.

Each module's ``__all__`` is its public API, and this package re-exports
all of them; :mod:`lidarreg.cli` is not re-exported.
"""

from . import benchgen, geom, gpf, icp, io, match, metrics, pipeline, ransac, synth

# read before the star imports, which rebind ``gpf`` to the function
_MODULES = (benchgen, geom, gpf, icp, io, match, metrics, pipeline, ransac, synth)
__all__ = [name for module in _MODULES for name in module.__all__]

from .benchgen import *  # noqa: E402, F403
from .geom import *  # noqa: E402, F403
from .gpf import *  # noqa: E402, F403
from .icp import *  # noqa: E402, F403
from .io import *  # noqa: E402, F403
from .match import *  # noqa: E402, F403
from .metrics import *  # noqa: E402, F403
from .pipeline import *  # noqa: E402, F403
from .ransac import *  # noqa: E402, F403
from .synth import *  # noqa: E402, F403

__version__ = "0.1.0"
