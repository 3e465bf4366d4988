"""Sphere-of-influence realizations of graphs under the sup-norm.

Pipeline: maximum matching -> induced star-triangle factor -> ordered vertex
picking -> pseudo-neighborhoods and radius schedule -> exact rational
coordinates -> independent recomputation and certification.
"""

from .embedding import Embedding, assign_block, dimension_bound, embed
from .errors import GraphInputError, PipelineError
from .factor import StarTriangleFactor, star_triangle_factor, validate_factor
from .graphs import Graph, generate_exhaustive, generate_random, parse_graph, sample_gnp
from .matching import Matching, maximum_matching
from .picking import PickClass, PickedSet, PickSequence, pick_vertices, validate_picks
from .pseudo import (PseudoNeighborhood, RadiusSchedule, build_pseudo,
                     default_radius, radius_schedule)
from .sig import PointSet, compute_radii, compute_sig, oracle_embed_2ia
from .verify import VerificationReport, check_inequalities, verify

__all__ = [
    "Embedding", "Graph", "GraphInputError", "Matching", "PickClass",
    "PickSequence", "PickedSet", "PipelineError", "PointSet",
    "PseudoNeighborhood", "RadiusSchedule", "StarTriangleFactor",
    "VerificationReport", "assign_block", "build_pseudo", "check_inequalities",
    "compute_radii", "compute_sig", "default_radius", "dimension_bound", "embed",
    "generate_exhaustive", "generate_random", "maximum_matching",
    "oracle_embed_2ia", "parse_graph", "pick_vertices", "radius_schedule",
    "sample_gnp", "star_triangle_factor", "validate_factor", "validate_picks",
    "verify",
]
