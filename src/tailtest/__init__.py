"""tailtest: decide from samples whether a monotone continuous
distribution on [0, inf) is light-tailed (non-decreasing hazard rate)
or heavy-tailed (hazard rate dropping by at least alpha over mass rho).

The pipeline: analytic families and seeded sampling
(``distributions``), order-statistic bucket statistics (``empirical``),
the exact tail proxy and its discretization (``proxy``), the decision
procedures and budget calculators (``tester``), and experiment
replication plus file I/O (``harness``).  The package re-exports each
module's ``__all__``, in that order.  ``tailtest.cli`` wires it all
into a command-line tool.
"""

from . import distributions, empirical, proxy, tester, harness
from .distributions import *  # noqa: F401,F403
from .empirical import *  # noqa: F401,F403
from .proxy import *  # noqa: F401,F403
from .tester import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*distributions.__all__, *empirical.__all__, *proxy.__all__,
           *tester.__all__, *harness.__all__]
