"""Simulated public-key signatures and MACs.

A :class:`KeyRegistry` plays the role of the PKI assumed by the paper: every
node owns a :class:`KeyPair` registered under its address, signatures are
HMAC-SHA256 values keyed by the node's secret, and verification consults the
registry.  Because protocol code only ever holds the *registry* (never another
node's secret), a Byzantine node implemented on top of this library cannot
fabricate signatures of correct nodes -- the property Dolev-Strong and PBFT
need.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Iterable

from repro.crypto.digest import (
    digest_object,
    digest_object_in_mode,
    digest_token_mode,
)


class SignatureError(Exception):
    """Raised when signature verification fails."""


@dataclass(frozen=True)
class Signature:
    """A signature over an object digest by a named signer."""

    signer: str
    digest: str
    mac: str

    def covers(self, obj: Any) -> bool:
        """Return whether this signature was computed over ``obj``.

        The digest is recomputed in the mode this signature's token was
        created under, so signatures survive a global digest-mode switch.
        """
        return self.digest == digest_object_in_mode(obj, digest_token_mode(self.digest))


@dataclass(frozen=True)
class KeyPair:
    """A (simulated) key pair: the secret is only known to the registry."""

    owner: str
    secret: bytes

    def mac_of(self, digest: str) -> str:
        """The MAC this key produces over a digest (single source of truth)."""
        return hmac.new(self.secret, digest.encode("utf-8"), hashlib.sha256).hexdigest()

    def sign(self, obj: Any) -> Signature:
        digest = digest_object(obj)
        return Signature(signer=self.owner, digest=digest, mac=self.mac_of(digest))


class KeyRegistry:
    """Creates and verifies signatures for a population of nodes."""

    def __init__(self, domain: str = "atum") -> None:
        self.domain = domain
        self._keys: Dict[str, KeyPair] = {}

    def generate(self, owner: str) -> KeyPair:
        """Create (or return the existing) key pair for ``owner``."""
        if owner not in self._keys:
            secret = hashlib.sha256(f"{self.domain}:{owner}".encode("utf-8")).digest()
            self._keys[owner] = KeyPair(owner=owner, secret=secret)
        return self._keys[owner]

    def has_key(self, owner: str) -> bool:
        return owner in self._keys

    def sign(self, owner: str, obj: Any) -> Signature:
        """Sign ``obj`` on behalf of ``owner`` (creating a key if necessary)."""
        return self.generate(owner).sign(obj)

    def verify(self, signature: Signature, obj: Any) -> bool:
        """Return ``True`` iff ``signature`` is a valid signature of ``obj``.

        The comparison digest is computed in the mode the signature's token
        was created under (see :func:`repro.crypto.digest.digest_token_mode`),
        so switching the global digest mode does not invalidate signatures
        created earlier.
        """
        expected = digest_object_in_mode(obj, digest_token_mode(signature.digest))
        return self.verify_digest(signature, expected)

    def verify_digest(self, signature: Signature, digest: str) -> bool:
        """Verify against a precomputed digest of the signed object.

        Lets callers that check many signatures over the same statement (e.g.
        certificate chains) canonicalise and digest the statement once instead
        of twice per signature.
        """
        key = self._keys.get(signature.signer)
        if key is None:
            return False
        if signature.digest != digest:
            return False
        return hmac.compare_digest(key.mac_of(digest), signature.mac)

    def verify_all(self, signatures: Iterable[Signature], obj: Any) -> bool:
        """Return ``True`` iff every signature in ``signatures`` signs ``obj``.

        ``obj`` is digested at most once per token mode among the signatures
        (normally exactly one), instead of once per signature; like
        :meth:`verify`, each signature is checked in the mode its digest
        token was created under.  Stops at the first invalid signature.
        """
        digest_per_mode: Dict[str, str] = {}
        for signature in signatures:
            mode = digest_token_mode(signature.digest)
            expected = digest_per_mode.get(mode)
            if expected is None:
                expected = digest_per_mode[mode] = digest_object_in_mode(obj, mode)
            if not self.verify_digest(signature, expected):
                return False
        return True

    def verify_or_raise(self, signature: Signature, obj: Any) -> None:
        if not self.verify(signature, obj):
            raise SignatureError(
                f"invalid signature by {signature.signer} over digest {signature.digest[:12]}"
            )

    def mac(self, owner: str, peer: str, obj: Any) -> str:
        """Compute a pairwise MAC (used for authenticated point-to-point links)."""
        key = self.generate(owner)
        material = f"{peer}:{digest_object(obj)}".encode("utf-8")
        return hmac.new(key.secret, material, hashlib.sha256).hexdigest()


__all__ = ["KeyPair", "KeyRegistry", "Signature", "SignatureError"]
