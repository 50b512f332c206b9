"""mfed: eating detection from wrist accelerometry, EMA scheduling, and a
deterministic family-eating simulator."""

__version__ = "0.1.0"
