"""Quadratic-tower engine for regular n-gons with Fermat-prime n.

The pipeline: partition the pairs p_k = 2cos(2k pi / n) into invariant sets,
derive the quadratic equation for every split with exact integer coefficients,
resolve root signs numerically, evaluate the tower at arbitrary precision down
to p_1 = 2cos(2 pi / n), and lower the result to a straightedge/compass
instruction program with SVG output.
"""

__version__ = "0.1.0"
