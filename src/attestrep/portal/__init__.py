"""Journal-side submission portal: archive packages, issue and serve proofs."""

from attestrep.portal.audit import AuditCheck, AuditEntry, AuditLog, AuditLogBroken, audit_check
from attestrep.portal.core import (
    DuplicateSubmission,
    Portal,
    PortalConfig,
    PortalError,
    PortalVerification,
    Submission,
    UnknownSubmission,
    UnknownToken,
    WrongState,
)
from attestrep.portal.http import PortalHTTPServer, make_server
from attestrep.portal.store import BlobCorrupt, BlobMissing, BlobStore

__all__ = [
    "AuditCheck",
    "AuditEntry",
    "AuditLog",
    "AuditLogBroken",
    "BlobCorrupt",
    "BlobMissing",
    "BlobStore",
    "DuplicateSubmission",
    "Portal",
    "PortalConfig",
    "PortalError",
    "PortalHTTPServer",
    "PortalVerification",
    "Submission",
    "UnknownSubmission",
    "UnknownToken",
    "WrongState",
    "audit_check",
    "make_server",
]
