"""Simulated single-joint stiffness-discrimination experiments.

Weighted 1-up/3-down staircases over virtual torsion springs, simulated
observers, a 1-DoF forearm/device plant, a synthetic-EMG envelope pipeline,
and a deterministic, replayable session runner.
"""
