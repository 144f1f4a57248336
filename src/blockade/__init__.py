"""Exact short-time dynamics of perfectly blockaded Rydberg chains.

The package has five computational layers:

- `blockade.words`: exact symbolic algebra of site-local operator words and
  nested commutators with the blockaded drive Hamiltonian.
- `blockade.series`: exact rational Taylor coefficients of observable
  expectation values on rings, open chains and the infinite chain, with
  universality certificates and open-boundary deficits.
- `blockade.basis`: the blockade-constrained occupation basis (Fibonacci
  dimensional on open chains) and exact integer matrix representations.
- `blockade.dynamics`: exact time evolution via dense eigendecomposition,
  an independent exact-integer Taylor oracle (multi-modular, in
  `blockade._residues`), and spectral diagnostics.
- `blockade.bounds`: rigorous coefficient bounds and certified truncation /
  finite-size error envelopes.

`blockade.verify` runs the package's acceptance checks (also exposed through
the ``blockade verify`` command line).
"""

from .words import (
    Letter,
    LOWER,
    RAISE,
    NUM,
    PROJ,
    letter_mul,
    make_word,
    word_mul,
    word_adjoint,
    word_length,
    single_count,
    ModelSpec,
    ring,
    line,
    infinite_chain,
    OperatorSum,
    single_site,
    number_operator,
    adjoint,
    hamiltonian_terms,
    commutator_H,
    ad_power,
    vacuum_expectation,
    AdOrderBudgetError,
    dumps_operator,
    loads_operator,
)

__version__ = "0.1.0"
