"""Referees: routines no command runs, which the tests compare the
package's results against.

Each module mirrors the package module its referees came from.  They
re-derive a float or exact result by another route (a Fraction
elimination, a literal Kronecker product, the Faddeev-LeVerrier
recursion, a closed form), so none of them may share the kernel it
checks: no referee here calls ``chainsense.exact``'s ``det``, ``solve``
or its elimination.  ``tests/test_surface.py`` checks both that and that
every referee has a test that loads it.
"""
