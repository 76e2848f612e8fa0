"""rotwidth: exact lattice widths of rational polygons, rotation-set
estimation for shear-built torus maps, translation-length bounds with
no-root certificates, and slowdown-flow experiments."""

__version__ = "0.1.0"
