"""steerkit: explicit bases of steerable convolution kernels.

Constructs, verifies and exports bases of G-steerable kernels for SO(2),
O(2), SO(3), O(3) and the proper orthochronous Lorentz group by solving the
stabilizer constraint at an orbit base point and steering the solutions over
the orbit.  An SVD nullspace oracle independently recomputes every
intertwiner space and cross-checks the closed forms.
"""

from .analytic_bases import (KernelBasisElement, basis_for,
                             basis_lorentz_massless, basis_o2, basis_o3,
                             basis_so2, basis_so3, lorentz_massive_basis)
from .groups import (Circle, MassiveHyperboloid, NullCone, OrbitPoint,
                     Sphere, base_point, circle_point, cone_point,
                     massive_point, sphere_point)
from .irreps import (IrrepLabel, dirac_irrep, o2_irrep, o3_irrep,
                     real_change_of_basis, so2_irrep, so3_irrep,
                     spinor_vector_irrep, tensor_irrep)
from .numerics import kron, principal_angle_distance
from .stabilizer_solver import (IntertwinerSpace, predicted_dimension,
                                solve_basepoint)
from .steering import kernel_at, steer
from .verify import check_case, check_projectors, equivariance_demo, run_suite

__version__ = "0.1.0"

__all__ = [
    "KernelBasisElement", "basis_for", "basis_lorentz_massless", "basis_o2",
    "basis_o3", "basis_so2", "basis_so3", "lorentz_massive_basis",
    "Circle", "MassiveHyperboloid", "NullCone", "OrbitPoint", "Sphere",
    "base_point", "circle_point", "cone_point", "massive_point",
    "sphere_point",
    "IrrepLabel", "dirac_irrep", "o2_irrep", "o3_irrep",
    "real_change_of_basis", "so2_irrep", "so3_irrep", "spinor_vector_irrep",
    "tensor_irrep",
    "kron", "principal_angle_distance",
    "IntertwinerSpace", "predicted_dimension", "solve_basepoint",
    "kernel_at", "steer",
    "check_case", "check_projectors", "equivariance_demo", "run_suite",
    "__version__",
]
