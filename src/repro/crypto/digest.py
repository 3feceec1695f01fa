"""Message digests (SHA-256) over canonically serialized objects.

The canonical encoding is the hot path: every group message, signature and
certificate digest passes through it.  Three measures keep it cheap while
producing byte-identical digests to the original implementation:

* the canonical transform walks dataclasses field-by-field instead of calling
  :func:`dataclasses.asdict` (which deep-copies the whole object graph), and
  leaves key sorting to ``json.dumps(sort_keys=True)`` instead of pre-sorting;
* *sealed* objects — instances of a class that sets ``_digest_sealed = True``,
  such as :class:`repro.core.node.BroadcastMessage` — are wire images: they
  are never mutated once sent, so :func:`digest_object` stores their digest
  on the instance (outside the dataclass fields, so the encoding is
  unchanged) and every later call returns it.  A broadcast is shared by
  reference across the m×m group-message fan-out of every hop, so it is
  encoded and hashed once per digest mode instead of once per send.  A copy
  built with :func:`dataclasses.replace` is a new instance with its own
  digest;
* a pluggable "cost-model-only" mode (:func:`set_digest_mode`) skips SHA-256
  entirely and uses the canonical encoding itself as the digest token, for
  benchmarks that only need timing, not cryptography.  Tokens remain
  deterministic and collision-free, so protocol equality checks still hold.

Nothing else is cached: every other object is encoded and hashed on each
call, so mutating it changes its digest.

Set sorting uses an explicit fallback key so mixed-type sets cannot raise
``TypeError`` (sets of a single comparable type keep their historical order,
and therefore their historical digests).
"""

from __future__ import annotations

import json
import hashlib
import os
from contextlib import contextmanager
from dataclasses import asdict, fields, is_dataclass
from typing import Any, Dict, Iterator, Tuple

#: Type alias for hex-encoded digests.
Digest = str

#: Digest modes: ``real`` computes SHA-256; ``cost_only`` returns the (cheap,
#: deterministic, collision-free) canonical encoding prefixed with ``cm:`` so
#: timing-only benchmarks skip cryptographic hashing entirely.
DIGEST_MODE_REAL = "real"
DIGEST_MODE_COST_ONLY = "cost_only"
_DIGEST_MODES = (DIGEST_MODE_REAL, DIGEST_MODE_COST_ONLY)

_digest_mode = os.environ.get("ATUM_DIGEST_MODE", DIGEST_MODE_REAL)
if _digest_mode not in _DIGEST_MODES:
    import warnings

    warnings.warn(
        f"ignoring invalid ATUM_DIGEST_MODE={_digest_mode!r}; "
        f"expected one of {_DIGEST_MODES}, using {DIGEST_MODE_REAL!r}",
        stacklevel=2,
    )
    _digest_mode = DIGEST_MODE_REAL


def get_digest_mode() -> str:
    """Return the active digest mode (``real`` or ``cost_only``)."""
    return _digest_mode


def set_digest_mode(mode: str) -> None:
    """Switch the global digest mode.

    Digests stored on sealed objects carry the mode they were made in, so
    a switch never returns a token of the previous mode.
    """
    global _digest_mode
    if mode not in _DIGEST_MODES:
        raise ValueError(f"unknown digest mode {mode!r}; expected one of {_DIGEST_MODES}")
    _digest_mode = mode


@contextmanager
def digest_mode(mode: str) -> Iterator[None]:
    """Temporarily switch the digest mode (used by benchmarks and tests)."""
    previous = get_digest_mode()
    set_digest_mode(mode)
    try:
        yield
    finally:
        set_digest_mode(previous)


def _set_sort_key(item: Any) -> Tuple[str, str]:
    """Deterministic ordering for canonicalised set items of mixed types."""
    return (item.__class__.__name__, json.dumps(item, sort_keys=True, default=str))


#: Per-dataclass cache of field names, keyed by class (fields() re-validates
#: the dataclass protocol on every call; field sets are fixed per class).
#: Built from ``dataclasses.fields``, which excludes InitVar/ClassVar
#: pseudo-fields that have no instance attribute.
_field_names_cache: Dict[type, Tuple[str, ...]] = {}


def _dataclass_field_names(cls: type) -> Tuple[str, ...]:
    names = _field_names_cache.get(cls)
    if names is None:
        names = _field_names_cache[cls] = tuple(spec.name for spec in fields(cls))
    return names


def _sort_set_items(items: list) -> list:
    try:
        items.sort()
    except TypeError:
        items.sort(key=_set_sort_key)
    return items


def _canonical(obj: Any) -> Any:
    """Convert ``obj`` into a JSON-serializable canonical form.

    Kept as the reference implementation (and for external callers); the
    digest fast path uses :func:`_canonical_fast`, which produces the same
    JSON under ``json.dumps(sort_keys=True, default=str)``.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__dc__": type(obj).__name__, **_canonical(asdict(obj))}
    if isinstance(obj, dict):
        return {
            str(key): _canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return _sort_set_items([_canonical(item) for item in obj])
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def _canonical_fast(obj: Any, in_dataclass: bool) -> Any:
    """Cheap canonical transform, JSON-equivalent to :func:`_canonical`.

    ``in_dataclass`` mirrors ``asdict`` semantics: a dataclass nested anywhere
    beneath another dataclass is flattened to a plain field dict without the
    ``__dc__`` marker, exactly as ``asdict`` did in the reference encoding.
    Dict keys are stringified but not pre-sorted — ``json.dumps(sort_keys=True)``
    performs the one and only sort.
    """
    cls = obj.__class__
    if cls is str or cls is int or cls is float or cls is bool or obj is None:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {
            name: _canonical_fast(getattr(obj, name), True)
            for name in _dataclass_field_names(cls)
        }
        if not in_dataclass:
            out["__dc__"] = cls.__name__
        return out
    if isinstance(obj, dict):
        return {str(key): _canonical_fast(value, in_dataclass) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical_fast(item, in_dataclass) for item in obj]
    if isinstance(obj, (set, frozenset)):
        # ``asdict`` never recursed into sets (it deep-copied them), so set
        # elements were always canonicalised by the reference path *with*
        # their ``__dc__`` markers — even beneath a dataclass.  Reset the
        # flag to preserve that encoding exactly.
        return _sort_set_items([_canonical_fast(item, False) for item in obj])
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def canonical_encode(obj: Any) -> str:
    """Return the canonical JSON encoding of ``obj`` (the pre-image of digests)."""
    return json.dumps(_canonical_fast(obj, False), sort_keys=True, default=str)


def digest_token_mode(token: str) -> str:
    """The digest mode a token was produced under (``cm:`` marks cost-only)."""
    return DIGEST_MODE_COST_ONLY if token.startswith("cm:") else DIGEST_MODE_REAL


def _digest_encoded(encoded: str, mode: str) -> Digest:
    """Turn a canonical encoding into a digest token for ``mode``."""
    if mode == DIGEST_MODE_COST_ONLY:
        return "cm:" + encoded
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def digest_object_in_mode(obj: Any, mode: str) -> Digest:
    """Digest ``obj`` under an explicit mode, regardless of the global one.

    Verification paths use this to check a signature in the mode its digest
    token was created under, so signatures made before a mode switch keep
    verifying after it.
    """
    if mode == _digest_mode:
        return digest_object(obj)
    return _digest_encoded(canonical_encode(obj), mode)


#: Instance attribute holding a sealed object's ``(mode, digest)`` pair.
_SEALED_DIGEST_ATTR = "_sealed_digest"


def digest_bytes(data: bytes) -> Digest:
    """Return the SHA-256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def digest_object(obj: Any) -> Digest:
    """Return the digest of an arbitrary (JSON-encodable) object.

    In ``real`` mode this is the SHA-256 hex digest of the canonical JSON
    encoding (byte-identical to the historical implementation); in
    ``cost_only`` mode it is the canonical encoding itself, prefixed with
    ``cm:`` — equal objects still map to equal digests, distinct objects to
    distinct digests, but no cryptographic hash is computed.

    A sealed object (its class sets ``_digest_sealed = True`` and its
    instances have a ``__dict__``) is digested once per mode; the result is
    stored on the instance and returned by every later call.
    """
    if getattr(obj.__class__, "_digest_sealed", False):
        sealed = obj.__dict__.get(_SEALED_DIGEST_ATTR)
        if sealed is not None and sealed[0] == _digest_mode:
            return sealed[1]
        result = _digest_encoded(canonical_encode(obj), _digest_mode)
        object.__setattr__(obj, _SEALED_DIGEST_ATTR, (_digest_mode, result))
        return result
    return _digest_encoded(canonical_encode(obj), _digest_mode)


__all__ = [
    "Digest",
    "DIGEST_MODE_REAL",
    "DIGEST_MODE_COST_ONLY",
    "canonical_encode",
    "digest_bytes",
    "digest_mode",
    "digest_object",
    "digest_object_in_mode",
    "digest_token_mode",
    "get_digest_mode",
    "set_digest_mode",
]
