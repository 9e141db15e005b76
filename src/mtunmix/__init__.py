"""Multitemporal hyperspectral unmixing with Kalman-smoothed endmember variability.

Importing the package loads none of its modules; import each name from the
module that defines it (see the README's library table).
"""

__version__ = "0.1.0"
