"""polyscribe: exact inscribability/circumscribability analysis of 3-polytopes,
sphere-scribedness of realizations, and spherical cap/separator experiments."""

from .errors import (BudgetExceeded, DegenerateConfiguration, DegenerateSpan,
                     MapValidationError, MonteCarloOnly, ParseError,
                     PointInsideBall, PolyscribeError)
from .maps import (CombinatorialMap, dual_map, parse_map_json,
                   serialize_map_json, validate_map)
from .corpus import CORPUS_NAMES, named_coordinates, named_polytope
from .points import (PointConfiguration, SphereRef, parse_points_json,
                     serialize_points_json)
from .hull import FaceLattice, build_face_lattice, enumerate_facets
from .verdicts import Answer, CertKind, Certificate, Verdict, recheck_certificate
from .graphs import (degree_range_check, hamiltonian_cycle,
                     independent_set_obstruction, is_one_supertough,
                     is_one_tough, max_independent_set,
                     simple_polytope_characterization, steinitz_paint_test,
                     vertex_connectivity)
from .hrs import (decide_circumscribable, decide_inscribable,
                  decide_quadric_inscribable, enumerate_simple_circuits,
                  solve_max_margin, verify_angle_assignment, verify_certificate,
                  verify_dual_witness)
from .geometry import (check_ij_scribed, check_k_scribed, face_avoids,
                       generate_cyclic_moment, generate_cyclic_trig,
                       min_norm_sq_over_face, on_sphere_check,
                       verify_face_lattice)
from .caps import (CapSystem, SphericalCap, cap_intersection_graph,
                   near_uniform_system, parse_caps_json, ply_depth, ply_depth_sampling,
                   random_hyperplane_separator, random_visibility_system,
                   serialize_caps_json, visibility_cap, visibility_system)

__version__ = "0.1.0"
