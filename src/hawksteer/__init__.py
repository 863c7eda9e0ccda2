"""Fermionic EPR-steering measures for two-qubit X-states under Hawking radiation."""

__version__ = "0.1.0"
