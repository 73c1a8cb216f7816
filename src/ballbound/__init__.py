"""Eigenvalue bounds for geodesic balls from the area of their geodesic spheres.

The bound comes from rotating the metric into a model with the same sphere
areas and driving a recursive moment hierarchy whose ratio sequences converge
to the model's first Dirichlet eigenvalue.  Independent shooting and 2-D
finite-volume oracles validate every estimate.
"""
