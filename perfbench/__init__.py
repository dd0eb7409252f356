"""Seeded end-to-end and per-layer benchmark of the legquad command line."""
