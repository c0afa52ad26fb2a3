"""BLAKE2b without OpenSSL.

Importing ``hashlib`` loads OpenSSL's libcrypto, about 3.6 MB of
resident memory, although its ``blake2b`` is CPython's own ``_blake2``
module (64 KB).  BLAKE2b is the only hash the toolkit computes (stream
seeds, trace and span IDs, synthesized file handles), so it imports
that module directly, and ``hashlib``'s where an interpreter lacks it.
"""

try:
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - interpreters without _blake2
    from hashlib import blake2b

__all__ = ["blake2b"]
