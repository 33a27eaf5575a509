"""Simulation lab for quantum information erasure experiments."""
