"""Coordination rates and protocol simulation for separable quantum states.

Subpackage map:

* ``quantum`` — density-operator algebra (tensor, partial trace, spectra,
  trace distance, entropy, Born statistics).
* ``classical`` — joint pmfs, Shannon quantities in bits, and the
  typicality radii of the coding scheme.
* ``coordination`` — target ensembles, candidate extensions, validation,
  and the closed-form rate expressions for the two-node, cascade and
  isolated-node networks.
* ``optimizer`` — atom proposal and convex minimization of the rate
  objectives over admissible conditionals.
* ``protocol`` — finite-blocklength simulation of the random-binning
  scheme, seed derandomization, and the measurement-based converse check.
* ``config`` / ``cli`` — JSON experiment configs and the batch front end.
"""

__version__ = "0.1.0"

from . import classical, coordination, optimizer, protocol, quantum  # noqa: F401
