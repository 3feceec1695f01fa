"""Unit tests for the crypto substrate."""

import json

import pytest

from repro.crypto import (
    DIGEST_MODE_COST_ONLY,
    DIGEST_MODE_REAL,
    CertificateChain,
    CryptoCostModel,
    KeyRegistry,
    SignatureError,
    digest_bytes,
    digest_mode,
    digest_object,
    get_digest_mode,
)
from repro.crypto.certificates import make_certificate
from repro.crypto.digest import _canonical, canonical_encode


class TestDigests:
    def test_digest_bytes_deterministic(self):
        assert digest_bytes(b"abc") == digest_bytes(b"abc")
        assert digest_bytes(b"abc") != digest_bytes(b"abd")

    def test_digest_object_is_order_insensitive_for_dicts(self):
        assert digest_object({"a": 1, "b": 2}) == digest_object({"b": 2, "a": 1})

    def test_digest_object_differs_for_different_content(self):
        assert digest_object({"a": 1}) != digest_object({"a": 2})

    def test_digest_handles_nested_structures(self):
        obj = {"list": [1, 2, {"x": (3, 4)}], "set": {"b", "a"}, "bytes": b"\x00\x01"}
        assert isinstance(digest_object(obj), str)
        assert digest_object(obj) == digest_object(obj)

    def test_digest_dataclass(self):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            y: int

        assert digest_object(Point(1, 2)) == digest_object(Point(1, 2))
        assert digest_object(Point(1, 2)) != digest_object(Point(2, 1))

    def test_mixed_type_set_does_not_raise(self):
        """Regression: sorting a canonicalised mixed-type set used to raise
        TypeError (e.g. int vs str).  It must digest deterministically now."""
        obj = {"set": {1, "one", (2, 3), frozenset({"x"})}}
        first = digest_object(obj)
        second = digest_object({"set": {frozenset({"x"}), (2, 3), "one", 1}})
        assert first == second
        # The reference canonicaliser tolerates mixed sets too.
        assert _canonical(obj) == _canonical(obj)

    def test_fast_encoder_matches_reference_canonical(self):
        """canonical_encode must equal json.dumps over the reference transform."""
        from dataclasses import dataclass, field

        @dataclass
        class Inner:
            values: tuple
            blob: bytes

        @dataclass
        class Outer:
            name: str
            inner: Inner
            table: dict = field(default_factory=dict)

        @dataclass(frozen=True)
        class Tag:
            name: str

        @dataclass(frozen=True)
        class Tagged:
            tags: frozenset

        samples = [
            {"b": 2, "a": {1, 2, 3}, "c": [None, True, 1.5, b"\xff"]},
            Outer("x", Inner((1, "two"), b"\x00"), {"k": Inner((0,), b"")}),
            [Outer("y", Inner((), b"z"), {})],
            {"nested": {"deep": [{"set": {"a", "b"}}]}},
            # Dataclasses inside a set under a dataclass keep their __dc__
            # marker (asdict never recursed into sets).
            Tagged(frozenset({Tag("a"), Tag("b")})),
            {"top": {Tag("c")}},
        ]
        for obj in samples:
            reference = json.dumps(_canonical(obj), sort_keys=True, default=str)
            assert canonical_encode(obj) == reference

        @dataclass(frozen=True)
        class OtherTag:
            name: str

        # Distinct dataclass types with equal fields must not collide, even
        # nested in sets beneath a dataclass.
        assert digest_object(Tagged(frozenset({Tag("a")}))) != digest_object(
            Tagged(frozenset({OtherTag("a")}))
        )

    def test_identity_memo_returns_stable_digests(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Frozen:
            a: int
            b: str

        payload = Frozen(1, "x")
        first = digest_object(payload)
        assert digest_object(payload) == first  # memo hit
        assert digest_object(Frozen(1, "x")) == first  # equal value, fresh object
        assert digest_object(Frozen(2, "x")) != first

    def test_memo_skips_outer_immutables_with_mutable_interiors(self):
        """Regression: a frozen dataclass or tuple holding a mutable value
        must not be memoised by identity — mutating the interior must change
        the digest."""
        from dataclasses import dataclass
        from typing import Any

        @dataclass(frozen=True)
        class Operation:
            kind: str
            body: Any

        op = Operation("broadcast", {"k": 1})
        before = digest_object(op)
        op.body["k"] = 999
        after = digest_object(op)
        assert before != after
        assert after == digest_object(Operation("broadcast", {"k": 999}))

        boxed = ([1, 2],)
        first = digest_object(boxed)
        boxed[0].append(3)
        assert digest_object(boxed) != first

    def test_frozen_dataclass_with_initvar_digests(self):
        """Regression: InitVar pseudo-fields have no instance attribute and
        must not be touched by the memo-eligibility walk."""
        from dataclasses import InitVar, dataclass, field

        @dataclass(frozen=True)
        class WithInit:
            a: int
            b: InitVar[int]
            total: int = field(default=0)

            def __post_init__(self, b):
                object.__setattr__(self, "total", self.a + b)

        first = digest_object(WithInit(1, 2))
        assert first == digest_object(WithInit(1, 2))
        assert first != digest_object(WithInit(1, 3))


class TestSealedDigests:
    """A sealed ``BroadcastMessage`` is digested once per digest mode."""

    @staticmethod
    def _message(payload):
        from repro.core.node import BroadcastMessage

        return BroadcastMessage(
            bcast_id="bc-1", origin="n0", payload=payload, size_bytes=100, created_at=0.0
        )

    def test_sealing_leaves_the_encoding_unchanged(self):
        message = self._message({"k": 1})
        with digest_mode(DIGEST_MODE_REAL):
            first = digest_object(message)
            assert first == digest_object(self._message({"k": 1}))
            assert canonical_encode(message) == canonical_encode(self._message({"k": 1}))

    def test_sealed_message_keeps_its_broadcast_time_digest(self):
        message = self._message({"k": 1})
        with digest_mode(DIGEST_MODE_REAL):
            sent = digest_object(message)
            # A wire image must not be mutated after broadcast(); if it is,
            # the stored digest is what every later hop sees.
            message.payload["k"] = 2
            assert digest_object(message) == sent
            assert digest_object(self._message({"k": 2})) != sent

    def test_replace_gets_a_fresh_digest(self):
        from dataclasses import replace

        message = self._message({"k": 1})
        with digest_mode(DIGEST_MODE_REAL):
            honest = digest_object(message)
            forged = replace(message, payload=("equivocated", message.payload))
            assert digest_object(forged) != honest
            assert digest_object(forged) == digest_object(
                self._message(("equivocated", {"k": 1}))
            )
            assert digest_object(message) == honest

    def test_mode_switch_never_returns_a_stale_token(self):
        message = self._message({"k": 1})
        with digest_mode(DIGEST_MODE_REAL):
            real = digest_object(message)
            with digest_mode(DIGEST_MODE_COST_ONLY):
                cheap = digest_object(message)
                assert cheap.startswith("cm:")
                assert cheap == digest_object(self._message({"k": 1}))
            assert digest_object(message) == real
            assert not real.startswith("cm:")

    @pytest.mark.parametrize("mode", [DIGEST_MODE_REAL, DIGEST_MODE_COST_ONLY])
    def test_cluster_broadcast_encodes_each_message_once(self, monkeypatch, mode):
        from repro.core.cluster import AtumCluster
        from repro.core.config import AtumParameters
        from repro.core.node import BroadcastMessage
        from repro.crypto import digest as digest_module

        encoded = []
        original = digest_module.canonical_encode

        def counting_encode(obj):
            if isinstance(obj, BroadcastMessage):
                encoded.append(obj)
            return original(obj)

        monkeypatch.setattr(digest_module, "canonical_encode", counting_encode)
        with digest_mode(mode):
            cluster = AtumCluster(
                AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5), seed=9
            )
            cluster.build_static([f"n{i}" for i in range(16)])
            bcast = {}
            cluster.sim.schedule(
                0.5, lambda: bcast.setdefault("id", cluster.broadcast("n0", {"v": 1}))
            )
            cluster.run(until=30.0)
            assert all(node.has_delivered(bcast["id"]) for node in cluster.nodes.values())
        # The gossip stack shares one message object, digested for every
        # group-message share sent and received, but encoded only once.
        assert len(encoded) == 1
        assert all(message.bcast_id == bcast["id"] for message in encoded)


class TestDigestModes:
    # The suite must pass regardless of the ambient ATUM_DIGEST_MODE, so
    # every test pins the mode it asserts about.

    def test_mode_roundtrip_restores_ambient(self):
        ambient = get_digest_mode()
        with digest_mode(DIGEST_MODE_REAL):
            assert get_digest_mode() == DIGEST_MODE_REAL
            with digest_mode(DIGEST_MODE_COST_ONLY):
                assert get_digest_mode() == DIGEST_MODE_COST_ONLY
            assert get_digest_mode() == DIGEST_MODE_REAL
        assert get_digest_mode() == ambient

    def test_cost_only_mode_skips_sha256_but_keeps_equality(self):
        with digest_mode(DIGEST_MODE_COST_ONLY):
            a = digest_object({"op": "transfer", "amount": 7})
            b = digest_object({"amount": 7, "op": "transfer"})
            c = digest_object({"op": "transfer", "amount": 8})
            assert a.startswith("cm:")
            assert a == b
            assert a != c

    def test_modes_produce_distinct_tokens(self):
        with digest_mode(DIGEST_MODE_REAL):
            real = digest_object({"x": 1})
        with digest_mode(DIGEST_MODE_COST_ONLY):
            cheap = digest_object({"x": 1})
        assert real != cheap

    def test_signatures_roundtrip_in_cost_only_mode(self):
        with digest_mode(DIGEST_MODE_COST_ONLY):
            registry = KeyRegistry()
            signature = registry.sign("alice", {"msg": "hello"})
            assert registry.verify(signature, {"msg": "hello"})
            assert not registry.verify(signature, {"msg": "bye"})

    def test_signatures_survive_mode_switch(self):
        """Regression: switching digest mode mid-run must not invalidate
        signatures/certificates created under the previous mode."""
        registry = KeyRegistry()
        real_sig = registry.sign("alice", {"msg": "hello"})
        chain = None
        with digest_mode(DIGEST_MODE_COST_ONLY):
            # Real-mode signature still verifies in cost-only mode...
            assert registry.verify(real_sig, {"msg": "hello"})
            assert not registry.verify(real_sig, {"msg": "bye"})
            cheap_sig = registry.sign("alice", {"msg": "hello"})
            members = ["m0", "m1", "m2"]
            for member in members:
                registry.generate(member)
            chain = CertificateChain(walk_id="w")
            chain.append(
                make_certificate(
                    registry,
                    walk_id="w",
                    hop=0,
                    issuer="G0",
                    issuer_members=members,
                    next_hop="G1",
                    signers=members,
                )
            )
        # ...and cost-only signatures/certificates verify back in real mode.
        assert registry.verify(cheap_sig, {"msg": "hello"})
        assert not registry.verify(cheap_sig, {"msg": "bye"})
        assert chain.verify(registry, origin_group="G0")

    def test_cost_model_install_helpers(self):
        CryptoCostModel.install_cost_only_digests()
        try:
            assert CryptoCostModel.digests_are_cost_only()
        finally:
            CryptoCostModel.install_real_digests()
        assert not CryptoCostModel.digests_are_cost_only()


class TestSignatures:
    def test_sign_and_verify(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", {"msg": "hello"})
        assert registry.verify(signature, {"msg": "hello"})

    def test_verify_fails_on_tampered_content(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", {"msg": "hello"})
        assert not registry.verify(signature, {"msg": "bye"})

    def test_verify_fails_for_unknown_signer(self):
        registry_a = KeyRegistry("domain-a")
        registry_b = KeyRegistry("domain-b")
        signature = registry_a.sign("alice", "payload")
        assert not registry_b.verify(signature, "payload")

    def test_forged_signer_name_rejected(self):
        registry = KeyRegistry()
        registry.generate("alice")
        registry.generate("mallory")
        # Mallory signs but claims to be alice by swapping the signer field.
        mallory_signature = registry.sign("mallory", "payload")
        forged = type(mallory_signature)(
            signer="alice", digest=mallory_signature.digest, mac=mallory_signature.mac
        )
        assert not registry.verify(forged, "payload")

    def test_verify_or_raise(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", "x")
        registry.verify_or_raise(signature, "x")
        with pytest.raises(SignatureError):
            registry.verify_or_raise(signature, "y")

    def test_pairwise_mac_differs_by_peer(self):
        registry = KeyRegistry()
        assert registry.mac("alice", "bob", "m") != registry.mac("alice", "carol", "m")


class TestCertificateChains:
    def _chain(self, registry, hops, quorum_per_hop=3, walk_id="walk-1"):
        chain = CertificateChain(walk_id=walk_id)
        previous = "G0"
        for hop in range(hops):
            issuer = previous
            next_hop = f"G{hop + 1}"
            members = [f"{issuer}-member-{i}" for i in range(quorum_per_hop + 1)]
            for member in members:
                registry.generate(member)
            chain.append(
                make_certificate(
                    registry,
                    walk_id=walk_id,
                    hop=hop,
                    issuer=issuer,
                    issuer_members=members,
                    next_hop=next_hop,
                    signers=members[:quorum_per_hop],
                )
            )
            previous = next_hop
        return chain

    def test_valid_chain_verifies(self):
        registry = KeyRegistry()
        chain = self._chain(registry, hops=5)
        assert chain.verify(registry, origin_group="G0")
        assert chain.selected_group == "G5"

    def test_chain_with_broken_linkage_fails(self):
        registry = KeyRegistry()
        chain = self._chain(registry, hops=3)
        # Remove the middle certificate: linkage broken.
        del chain.certificates[1]
        assert not chain.verify(registry, origin_group="G0")

    def test_corrupted_certificate_statement_fails_verification(self):
        # Wire corruption of a certificate: any bit-flip in the signed
        # statement changes its canonical digest, so every signature check
        # against the tampered statement fails and the chain is rejected.
        from dataclasses import replace

        registry = KeyRegistry()
        chain = self._chain(registry, hops=3)
        original = chain.certificates[1]
        chain.certificates[1] = replace(
            original, issuer_members=tuple(original.issuer_members) + ("bitflip",)
        )
        assert not chain.verify(registry, origin_group="G0")
        # Restoring the original statement restores verification.
        chain.certificates[1] = original
        assert chain.verify(registry, origin_group="G0")

    def test_corrupted_signature_bytes_fail_verification(self):
        from dataclasses import replace

        registry = KeyRegistry()
        chain = self._chain(registry, hops=1, quorum_per_hop=2)
        certificate = chain.certificates[0]
        # Flip the digest carried inside every signature: no quorum remains.
        tampered = tuple(
            replace(signature, digest="00" + signature.digest[2:])
            for signature in certificate.signatures
        )
        chain.certificates[0] = replace(certificate, signatures=tampered)
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_without_majority_fails(self):
        registry = KeyRegistry()
        chain = CertificateChain(walk_id="w")
        members = ["m0", "m1", "m2", "m3"]
        for member in members:
            registry.generate(member)
        chain.append(
            make_certificate(
                registry,
                walk_id="w",
                hop=0,
                issuer="G0",
                issuer_members=members,
                next_hop="G1",
                signers=members[:2],  # only 2 of 4: not a majority
            )
        )
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_verifies_in_cost_only_mode(self):
        with digest_mode(DIGEST_MODE_COST_ONLY):
            registry = KeyRegistry()
            chain = self._chain(registry, hops=4)
            assert chain.verify(registry, origin_group="G0")
            # Structural checks still run in the fast path.
            del chain.certificates[1]
            assert not chain.verify(registry, origin_group="G0")

    def test_forged_signature_rejected_in_cost_only_mode(self):
        """cost_only mode must change wall-clock only: a fabricated signature
        (correct digest, no valid MAC) still fails verification."""
        from repro.crypto.keys import Signature
        from repro.crypto.digest import digest_object

        with digest_mode(DIGEST_MODE_COST_ONLY):
            registry = KeyRegistry()
            chain = CertificateChain(walk_id="w")
            members = ["m0", "m1", "m2"]
            for member in members:
                registry.generate(member)
            chain.append(
                make_certificate(
                    registry,
                    walk_id="w",
                    hop=0,
                    issuer="G0",
                    issuer_members=members,
                    next_hop="G1",
                    signers=[],
                )
            )
            statement = chain.certificates[0].statement()
            forged = tuple(
                Signature(signer=m, digest=digest_object(statement), mac="")
                for m in members
            )
            chain.certificates[0] = type(chain.certificates[0])(
                walk_id="w",
                hop=0,
                issuer="G0",
                issuer_members=tuple(members),
                next_hop="G1",
                signatures=forged,
            )
            assert not chain.verify(registry, origin_group="G0")

    def test_duplicate_signatures_do_not_form_a_quorum(self):
        """A majority requires distinct signers: the same valid signature
        repeated must count once."""
        registry = KeyRegistry()
        members = ["m0", "m1", "m2"]
        for member in members:
            registry.generate(member)
        certificate = make_certificate(
            registry,
            walk_id="w",
            hop=0,
            issuer="G0",
            issuer_members=members,
            next_hop="G1",
            signers=["m0"],
        )
        duplicated = type(certificate)(
            walk_id="w",
            hop=0,
            issuer="G0",
            issuer_members=tuple(members),
            next_hop="G1",
            signatures=certificate.signatures * 3,
        )
        chain = CertificateChain(walk_id="w")
        chain.append(duplicated)
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_size_grows_linearly(self):
        registry = KeyRegistry()
        short = self._chain(registry, hops=2, walk_id="short")
        long = self._chain(registry, hops=10, walk_id="long")
        assert long.size_bytes() == 5 * short.size_bytes()

    def test_empty_chain_selected_group_raises(self):
        with pytest.raises(ValueError):
            CertificateChain(walk_id="w").selected_group


class TestCostModel:
    def test_hash_cost_scales_with_size(self):
        model = CryptoCostModel()
        assert model.hash_cost(2048) == pytest.approx(2 * model.hash_cost(1024))

    def test_hash_cost_parallelism(self):
        model = CryptoCostModel()
        assert model.hash_cost(1 << 20, threads=4) == pytest.approx(
            model.hash_cost(1 << 20) / 4
        )

    def test_certificate_chain_cost(self):
        model = CryptoCostModel()
        assert model.certificate_chain_verify_cost(10, 3) == pytest.approx(
            model.verify_cost(30)
        )
