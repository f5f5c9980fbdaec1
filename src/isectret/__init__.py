"""Feasibility-preserving retractions for affine-times-sphere intersection sets."""
