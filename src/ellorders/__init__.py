"""Orders of reductions of elliptic curves over Q and quadratic fields.

The package is organised bottom-up:

- arith: primes, Legendre symbols, modular square roots, valuations
- curve: Weierstrass models over Q, invariants, twists, families, and
  curves over real and imaginary quadratic fields
- reduction: Kodaira types, point counts mod p and over extensions
- walk: prime walks, through one store of Frobenius traces per twist class
- torsion: division polynomials, rational and quadratic torsion
- survey: congruence-class statistics of point counts, gcd scans
- catalog: the bundled curve corpus and the label resolver
- cli: the ``ellorders`` command
"""

__version__ = "0.1.0"
