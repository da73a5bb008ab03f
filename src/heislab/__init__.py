"""Heisenberg-like projection groups and their heat-kernel inequality checks."""

__version__ = "0.1.0"
