"""Error detection: CFD-to-SQL compilation, batch and incremental detection."""

from .detector import ErrorDetector
from .incremental import IncrementalDetector
from .sqlgen import (
    DETECT_PLANS,
    DetectionSqlGenerator,
    default_detect_plan,
    resolve_detect_plan,
)
from .violations import MULTI, SINGLE, Violation, ViolationReport

__all__ = [
    "ErrorDetector",
    "IncrementalDetector",
    "DetectionSqlGenerator",
    "DETECT_PLANS",
    "default_detect_plan",
    "resolve_detect_plan",
    "Violation",
    "ViolationReport",
    "SINGLE",
    "MULTI",
]
