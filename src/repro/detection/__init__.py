"""Error detection: CFD-to-SQL compilation, batch and incremental detection."""

from .detector import ErrorDetector
from .incremental import IncrementalDetector
from .sqlgen import DetectionSqlGenerator
from .violations import MULTI, SINGLE, Violation, ViolationReport

__all__ = [
    "ErrorDetector",
    "IncrementalDetector",
    "DetectionSqlGenerator",
    "Violation",
    "ViolationReport",
    "SINGLE",
    "MULTI",
]
