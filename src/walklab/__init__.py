"""walklab: exact walk-count analytics and walk-aware graph networks.

The library half (``graphs``, ``walks``, ``wl``) counts closed walks,
triangles and 4-cycles exactly, extracts walk-bounded aggregation regions
and runs colour refinement. The lab half (``models``, ``training``,
``data``, ``experiments``, ``cli``) trains small gated graph networks on
those signals; ``autodiff`` is a reference tape that only the tests use.
Import from the submodules; the package itself exports only
``__version__``.
"""

__version__ = "0.1.0"
