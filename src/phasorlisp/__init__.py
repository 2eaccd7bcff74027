"""Vector-symbolic Lisp: every value is a complex phasor hypervector.

The package layers four pieces: a phasor algebra (bind, unbind,
superpose, similarity), residue-coded integers with carry-free modular
arithmetic and resonator decoding, a cleanup memory holding symbols and
role-filler chunks, and a small Lisp evaluated entirely over vectors.
A benchmark module compares addition cost against nested-list numerals.
"""

from . import bench, errors, fhrr, lisp, memory, reader, residue, resonator

# Each module's ``__all__`` is the one list of its public names; the
# package republishes them all.
from .bench import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fhrr import *  # noqa: F401,F403
from .lisp import *  # noqa: F401,F403
from .memory import *  # noqa: F401,F403
from .reader import *  # noqa: F401,F403
from .residue import *  # noqa: F401,F403
from .resonator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (bench, errors, fhrr, lisp, memory, reader, residue, resonator)
        for name in module.__all__
    ),
]
