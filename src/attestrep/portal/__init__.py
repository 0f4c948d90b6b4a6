"""Journal-side submission portal: archive packages, issue and serve proofs.

Nothing is re-exported: import from ``core``, ``http``, ``audit`` or
``store``, so that loading the portal's core loads no HTTP code.
"""
