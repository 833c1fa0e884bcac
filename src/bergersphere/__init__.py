"""Curvature, Laplace spectra and Jacobi stability tables for Berger spheres."""

from .geometry import (AmbientPoint, BergerParam, GeometryDomainError, HermitianMatrix,
                       ProjectivePoint, RoundSphereUnsupportedError, TangentVector,
                       ambient_mean_curvature, berger_inner, connection_correction,
                       curvature_tensor, fubini_study_inner, geodesic_sphere_embed,
                       horizontal_frame, killing_field, killing_flow, metric_eval,
                       ricci, scalar_curvature, sectional_curvature,
                       sff_geodesic_sphere, tai_embed, tai_sff_inner)
from .models import (MODELS, CircleCover, CliffordHypersurface, IndexReport, JacobiMode,
                     ModelSubmanifold, TotallyGeodesicBergerSphere, TotallyRealSphere,
                     TruncationError, VeroneseRP3, VeroneseS3, circle_stability,
                     clifford_index_nullity, enumerate_index, jacobi_modes,
                     tg_berger_index_nullity, totally_real_sphere_index_nullity,
                     veronese_index_nullity)
from .spectra import (BidegreeSpace, CliffordMode, LaplaceMode, berger_eigenvalue,
                      berger_modes, berger_multiplicity, bidegree_dimension,
                      clifford_eigenvalue, clifford_modes,
                      clifford_multiplicity, round_eigenvalue, round_multiplicity,
                      sphere_harmonic_multiplicity)
from .stability import (CliffordTorus, MinimalSphere, ModuliVector, OtherSurface,
                        StabilityVerdict, Verdict, clifford_moduli_vector,
                        dimension_instability, genus_index_bound,
                        hypersurface_first_eigenvalue_bound, index_lower_bound,
                        moduli_curve, proof_polynomial_P, s1_bundle_stability,
                        surface_index_one_classification)

__version__ = "1.0.0"
