"""The tensor product construction and its verification suites.

Each name is imported from the module that defines it:

* ``core``: the product representation (``build_product``), its
  construction gate (``check_construction``) and the closed-form structure
  maps (``x̃``, ``τ̃``, ``σ̃`` and the pairings);
* ``elements`` and ``models``: the model bimodule elements;
* ``gammas``: the mixed component ``omega3``;
* ``oracles``: independent recomputations of the closed forms, and the
  product-level checks;
* ``rho``: the commutator maps with two certification routes.

Every check returns its verdicts as :func:`~sl2prod.bimodcat.record` dicts.
"""
