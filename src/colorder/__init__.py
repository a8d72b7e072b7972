"""Edge-colored linear orders without monochromatic triangles: structures,
one-point types, the level-raising extension functor, a generic-limit
engine, and refutation certificates for purported homogeneous extensions."""

from .core import (Amalgam, CanonicalCode, ColorTerm, Embedding, FinStruct,
                   InputError, Verdict, amalgamate, canonical_code,
                   color_less, format_struct, is_embedding, parse_struct,
                   validate)
from .katetov import (ExtendedStructure, apply_K, apply_K_morphism,
                      compare_types, format_extended, iterate_K, pair_color)
from .limit import Approximation, PartialIso, embed, extend_partial_iso, grow, saturation_check
from .refuter import (ExtensionStrategy, RefutationCertificate, check_certificate,
                      control_lo, refute)
from .types import (OnePointType, enumerate_types, format_type, parse_type,
                    realize_type, transport, type_of_point)

__all__ = [name for name in dir() if not name.startswith("_")]
