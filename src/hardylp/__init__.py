"""Numerical toolkit for Hardy-type inequalities on periodic grids.

Spectral transforms and fractional operators (spectral_core), the dyadic
frequency decomposition with Besov / Triebel-Lizorkin norms
(littlewood_paley), the dyadic Schur test (schur), Hardy quotients and
their proof chains (hardy), the two-weight Riesz-potential machinery
(stein_weiss), empirical sharp-constant estimation (extremal), and a CLI
front end (cli).
"""

__version__ = "0.1.0"
