"""attestrep: execute replication packages, attest the run, verify the proof.

Authors run a package under a simulated VM-level attestation provider and
obtain a portable proof bundle binding the exact code tree to the outputs it
produced. Journals and readers check the bundle against a pinned trust root
in milliseconds, without re-running anything. A small portal service covers
the hosted flow: submit, process, archive, and public verification, with a
hash-chained audit log. An economics module evaluates when the scheme is
worth adopting. Import each name from its own module: this root loads none
of them, so a reader that only verifies never loads the runner or portal.
"""

__version__ = "0.1.0"


class AttestrepError(Exception):
    """Base of every domain failure: a refused input or a run that cannot be attested."""
