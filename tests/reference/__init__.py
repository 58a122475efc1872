"""Scalar reference implementations, kept as equivalence oracles.

Each module here is the straightforward per-VM version of a library
planner or scan; the equivalence suites pin the library's single engine
to it decision for decision.  None of it is library code.
"""
