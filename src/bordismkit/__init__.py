"""bordismkit: exact combinatorial machinery for torus-manifold bordism.

Faithful character polynomials over GF(2) and Z with dualization and the
deletion differential; kernel (bordism group) dimensions and weight-bounded
integer kernel windows; colored simple polytopes, colored graphs, and torus
graphs with their polynomials; fixed-point localization sums with exact
integrality checks and equivariant Chern numbers; and a small graded-ring
interface for bordism classes with the mod-2 reduction homomorphism.

All arithmetic is exact and the package needs only the standard library.
Set BORDISMKIT_MAX_N to raise the rank cap of ``kernel_space``.
"""

from .algebra import (DUAL, PRIMAL, ExtPolynomial, Gf2Polynomial, differential,
                      dual, ext_polynomial, gf2_polynomial, in_image,
                      in_image_unitary, in_image_verdict, is_faithful,
                      mod2_reduce)
from .bordism import (UNITARY, UNORIENTED, BordismClass, ProbeReport, add,
                      multiply, reduce, surjectivity_probe, swap_conjugate)
from .bott import (BottGenerator, SpanningReport, bott_generators,
                   dual_span_rank, iter_bott_generators, spanning_rank)
from .errors import (BordismError, InputFormatError, ResourceLimitError,
                     ValidationError)
from .graphs import (ColoredGraph, TorusGraph, graph_coloring_polynomial,
                     graphs_equivalent, one_skeleton, torus_graph_from_pair,
                     torus_polynomial)
from .kernels import (KernelSpace, WindowKernel, kernel_sample_unitary,
                      kernel_space, support_floor)
from .localization import (FixedPoint, FixedPointData, SymmetricFunction,
                           equivariant_chern_number, integrality_check_gf2,
                           integrality_check_z, vanishing_test)
from .polytopes import (Coloring, SimplePolytope, coloring_polynomial,
                        connected_sum, product, product_of_simplices,
                        random_gf2_coloring, random_z_coloring, simplex,
                        standard_z_coloring)

__version__ = "0.1.0"

__all__ = [
    "BordismClass", "BordismError", "BottGenerator", "ColoredGraph",
    "Coloring", "DUAL", "ExtPolynomial", "FixedPoint", "FixedPointData",
    "Gf2Polynomial", "InputFormatError", "KernelSpace", "PRIMAL",
    "ProbeReport", "ResourceLimitError", "SimplePolytope",
    "SpanningReport", "SymmetricFunction", "TorusGraph", "UNITARY",
    "UNORIENTED", "ValidationError", "WindowKernel", "add",
    "bott_generators", "coloring_polynomial",
    "connected_sum", "differential", "dual", "dual_span_rank",
    "equivariant_chern_number", "ext_polynomial", "gf2_polynomial",
    "graph_coloring_polynomial", "graphs_equivalent", "in_image",
    "in_image_unitary", "in_image_verdict",
    "integrality_check_gf2", "integrality_check_z", "is_faithful",
    "iter_bott_generators", "kernel_sample_unitary", "kernel_space",
    "mod2_reduce", "multiply", "one_skeleton",
    "product", "product_of_simplices", "random_gf2_coloring",
    "random_z_coloring", "reduce", "simplex", "spanning_rank",
    "standard_z_coloring", "support_floor", "surjectivity_probe",
    "swap_conjugate", "torus_graph_from_pair", "torus_polynomial",
    "vanishing_test",
]
