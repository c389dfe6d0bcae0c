"""QC-LDPC-lattice joint encryption, channel coding and modulation.

The package root re-exports the session entry points; everything else is
imported from its module (``qclattice.cipher``, ``qclattice.decoder``, ...).
"""

from .cipher import CipherParams, CipherSession, keygen
from .rdfcode import rdf_search

__version__ = "1.0.0"
