"""Differential-testing subsystem: the aot engine vs the interpreter.

The aot engine (:mod:`repro.rv64.aot`) claims to be an *exact* drop-in
for the reference interpreter on straight-line kernels: identical result
limbs, identical retired-instruction counts, identical cycle counts,
identical final register state and memory image.  This package proves
the claim operand-by-operand — the paper's machine-checked-equivalence
story extended to our own optimisation — and pins per-kernel cycle
counts in ``tests/golden_cycles.json`` so future changes to the
pipeline model or kernel generators cannot silently drift the Table 4
numbers.
"""
