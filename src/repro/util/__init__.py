"""Shared low-level utilities: seeded RNG plumbing, distributions, rendering.

Nothing in this package knows about social networks, ads, or farms; it is
deliberately generic so every other subpackage can depend on it without
cycles.
"""
