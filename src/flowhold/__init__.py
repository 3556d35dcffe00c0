"""Optical-flow position hold: vision pipeline, controller, and hover simulator."""

__version__ = "0.1.0"
