"""Artifact provenance of the kernel path: every kernel is numpy."""


def using_numba() -> bool:
    """Always False: every kernel is numpy (kept for artifact provenance)."""
    return False
