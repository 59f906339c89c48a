"""rdslink: exact construction and verification of relative difference
sets, partial difference sets, Schur rings, and closed linked systems
over explicit finite groups."""

from .ff import Field, FieldError, field_make, least_nonsquare, pell_solutions
from .groups import (Automorphism, FiniteGroup, GroupError, Subgroup,
                     center, central_product, cyclic, direct_product,
                     elementary_abelian, extraspecial_mp3, heisenberg,
                     orbits, quaternion8)
from .groupring import Basis, BasisError, GroupRingElement, GroupRingError
from .schur import SchurPartition, SRingError, amorphic_latin, cyclotomic, \
    verify_sring
from .rds import (IntersectionArray, PdsCertificate, RdsCertificate,
                  RdsError, cayley_drg_check, dev, rds_product, rds_to_pds,
                  thas_somma, verify_pds, verify_rds)
from .linked import (AssociatedGroup, LinkedCertificate, LinkedError,
                     associated_group, linked_product, munu_branches,
                     munu_by_sign, verify_linked)
from .constructions import (ConstructionError, DpsSystem, ExtraspecialSystem,
                            HeisenbergSystem, dps_system, extraspecial_rds,
                            heisenberg_system, heisenberg_system_2r,
                            q8_system, q8_system_2r, theorem_1_2_rds)

__version__ = "1.0.0"

__all__ = [
    "Field", "FieldError", "field_make", "least_nonsquare", "pell_solutions",
    "Automorphism", "FiniteGroup", "GroupError", "Subgroup", "center",
    "central_product", "cyclic", "direct_product", "elementary_abelian",
    "extraspecial_mp3", "heisenberg", "orbits", "quaternion8",
    "Basis", "BasisError", "GroupRingElement", "GroupRingError",
    "SchurPartition", "SRingError", "amorphic_latin", "cyclotomic",
    "verify_sring",
    "IntersectionArray", "PdsCertificate", "RdsCertificate", "RdsError",
    "cayley_drg_check", "dev", "rds_product", "rds_to_pds", "thas_somma",
    "verify_pds", "verify_rds",
    "AssociatedGroup", "LinkedCertificate", "LinkedError",
    "associated_group", "linked_product", "munu_branches", "munu_by_sign",
    "verify_linked",
    "ConstructionError", "DpsSystem", "ExtraspecialSystem",
    "HeisenbergSystem", "dps_system", "extraspecial_rds", "heisenberg_system",
    "heisenberg_system_2r", "q8_system", "q8_system_2r", "theorem_1_2_rds",
]
