"""Kodaira curves: combinatorial models, invariants, partner checks."""

from .catalog import (
    KodairaType,
    Subclass,
    TypeSpecError,
    build,
    catalog_types,
    classify,
    parse_type,
    subclass_of,
)
from .curves import (
    Component,
    ConfigurationError,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
    fiber_obstruction,
)
from .document import DocumentError, parse_document, serialize_document
from .invariants import (
    DsgStatus,
    InvariantProfile,
    PicardDescriptor,
    invariant_profile,
)
from .partner import PartnerVerdict, VerdictKind, Witness, compare

__all__ = [
    "Component",
    "ConfigurationError",
    "CurveConfiguration",
    "DocumentError",
    "DsgStatus",
    "IntrinsicType",
    "InvariantProfile",
    "KodairaType",
    "LocalType",
    "PartnerVerdict",
    "PicardDescriptor",
    "SingularPoint",
    "Subclass",
    "TypeSpecError",
    "VerdictKind",
    "Witness",
    "build",
    "catalog_types",
    "classify",
    "compare",
    "fiber_obstruction",
    "invariant_profile",
    "parse_document",
    "parse_type",
    "serialize_document",
    "subclass_of",
]
