"""Trace anonymization (paper Section 2).

Implements the paper's anonymization scheme:

* UIDs, GIDs, and IP addresses are replaced with *arbitrary but
  consistent* values — drawn from a keyed random stream, never a hash,
  so an outsider cannot mount a known-text attack or compare tokens
  across traces from different sites.
* Paths are anonymized per component, preserving shared prefixes.
* Filename suffixes are anonymized separately from stems, so all
  ``*.c`` files end in the same anonymized suffix.
* Rules allow preserving well-known names (``CVS``, ``.inbox``,
  ``.pinerc``, ``lock`` components), well-known UIDs (root, daemon),
  and special affixes (``#``, ``~``, ``,v``) whose relationship to the
  base filename survives anonymization.
* An *omit* mode drops all name/UID/GID/IP information instead.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConsistentMapper",
    "AnonymizationRules",
    "default_rules",
    "Anonymizer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "mapping": ("ConsistentMapper",),
    "rules": ("AnonymizationRules", "default_rules"),
    "anonymizer": ("Anonymizer",),
})
