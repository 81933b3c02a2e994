"""Exact enumeration of three-step lattice paths in a bounded table.

Paths advance one column per step and move up, flat or down one row;
they may be confined to a table with a fixed number of rows.  Each
module is imported by name: ``core`` holds the shared types, ``dp`` the
column-marching engine for every counting family, ``formulas`` the
closed-form evaluators, ``oracle`` the brute-force oracle, ``verify``
the differential identity verifier and ``cli`` the command line front
end.  The package root loads none of them.
"""

__version__ = "0.1.0"
