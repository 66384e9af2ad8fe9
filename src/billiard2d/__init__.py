"""Quantum particle in a two-dimensional dilating and deforming box.

The moving-boundary problem is mapped onto the fixed unit disk with a
time-dependent effective Hamiltonian.  Modules: special-function kernel
(`specfun`), boundary geometry and the unitary picture map (`domain`), exact
shape-preserving dynamics (`pantograph`), first-order deformation dynamics
(`perturbation`), grid-based ground truth (`oracle`), the one-dimensional
reference problem (`oned`) and the batch CLI (`cli`).  Import each by
name: importing the package itself loads none of them.
"""

__version__ = "0.1.0"
