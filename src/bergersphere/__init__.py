"""Curvature, Laplace spectra and Jacobi stability tables for Berger spheres."""

from .geometry import (BergerParam, GeometryDomainError, RoundSphereUnsupportedError,
                       ambient_mean_curvature, scalar_curvature)
from .models import (MODELS, CircleCover, CliffordHypersurface, IndexReport, JacobiMode,
                     ModelSubmanifold, TotallyGeodesicBergerSphere, TotallyRealSphere,
                     TruncationError, VeroneseRP3, VeroneseS3, circle_stability,
                     clifford_index_nullity, enumerate_index, jacobi_modes,
                     tg_berger_index_nullity, totally_real_sphere_index_nullity,
                     veronese_index_nullity)
from .spectra import (CliffordMode, LaplaceMode, berger_eigenvalue, berger_modes,
                      berger_multiplicity, bidegree_dimension, clifford_eigenvalue,
                      clifford_modes, clifford_multiplicity, round_eigenvalue,
                      round_multiplicity, sphere_harmonic_multiplicity)
from .stability import (CliffordTorus, MinimalSphere, ModuliVector, OtherSurface,
                        StabilityVerdict, Verdict, clifford_moduli_vector,
                        dimension_instability, genus_index_bound,
                        hypersurface_first_eigenvalue_bound, index_lower_bound,
                        moduli_curve, proof_polynomial_P, s1_bundle_stability,
                        surface_index_one_classification)

__version__ = "2.0.0"
