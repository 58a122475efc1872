"""Scalar reference implementations, kept as equivalence oracles.

Each module here is the straightforward per-VM version of a library
stage — a planner, the clustering scan, ``pack()``'s bin scan (with
``Bin``, the scalar bin the reference planners pack and fold onto), the
emulator's replay, the trace generator, peak prediction or size
estimation; the equivalence suites pin the library's single engine to
it decision for decision (bit for bit for the emulator, the generator,
prediction and sizing).  None of it is library code, and
no library module may import it.
"""
