"""Optimal q-composite key distribution for sensor networks.

Given a proximity graph and a key pool, the package finds key rings that
maximize the number of adjacent node pairs sharing at least q keys, subject
to per-node memory, per-neighborhood reuse, and global usage limits. It
ships a seeded instance generator, an exact branch-and-bound solver, MPS/LP
export of the linearized model, assignment analysis, and a benchmark
harness with a CLI.
"""

__version__ = "0.1.0"
