"""CSIDH non-interactive key exchange built on the group action.

The protocol is the commutative-group-action Diffie-Hellman of the
CSIDH paper: private keys are exponent vectors, public keys are curve
coefficients, and the shared secret follows from the commutativity

    [a] * ([b] * E0)  ==  [b] * ([a] * E0).

Public keys are a single F_p element (64 bytes for CSIDH-512 — the
"extremely short keys" the paper highlights).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import telemetry
from repro.csidh.group_action import ActionStats, group_action
from repro.csidh.parameters import CsidhParameters
from repro.csidh.validate import is_supersingular
from repro.errors import FaultDetectedError, ProtocolError
from repro.field.fp import FieldContext

#: Coefficient of the starting curve ``E_0 : y^2 = x^3 + x``.
BASE_COEFFICIENT = 0


@dataclass(frozen=True)
class PrivateKey:
    """An exponent vector in ``[-m, m]^n``."""

    exponents: tuple[int, ...]

    def to_bytes(self, params: CsidhParameters) -> bytes:
        """Pack each exponent as one signed byte (|e| <= m <= 127)."""
        return bytes((e + 256) % 256 for e in self.exponents)

    @staticmethod
    def from_bytes(data: bytes, params: CsidhParameters) -> "PrivateKey":
        if len(data) != params.num_primes:
            raise ProtocolError(
                f"private key must be {params.num_primes} bytes"
            )
        exponents = tuple(
            b - 256 if b >= 128 else b for b in data
        )
        if any(abs(e) > params.max_exponent for e in exponents):
            raise ProtocolError("exponent out of range")
        return PrivateKey(exponents)

    @staticmethod
    def derive(seed: bytes, params: CsidhParameters) -> "PrivateKey":
        """Deterministically expand a byte seed into an exponent vector
        (SHAKE-256 with rejection sampling for unbiased exponents) —
        the way deployed implementations store private keys."""
        bound = 2 * params.max_exponent + 1
        # rejection threshold: largest multiple of `bound` below 256
        limit = 256 - (256 % bound)
        import hashlib  # here: its OpenSSL backend costs ~3.7 MB RSS

        shake = hashlib.shake_256()
        shake.update(b"csidh private key")
        shake.update(seed)
        stream = shake.digest(64 * params.num_primes)
        exponents = []
        for byte in stream:
            if byte < limit:
                exponents.append(byte % bound - params.max_exponent)
                if len(exponents) == params.num_primes:
                    return PrivateKey(tuple(exponents))
        raise ProtocolError(
            "seed expansion exhausted (astronomically unlikely)"
        )


@dataclass(frozen=True)
class PublicKey:
    """A supersingular Montgomery coefficient ``A in F_p``."""

    coefficient: int

    def to_bytes(self, params: CsidhParameters) -> bytes:
        length = (params.p.bit_length() + 7) // 8
        return self.coefficient.to_bytes(length, "little")

    @staticmethod
    def from_bytes(data: bytes) -> "PublicKey":
        return PublicKey(int.from_bytes(data, "little"))


class Csidh:
    """One party's view of the CSIDH key exchange.

    ``verify_output=True`` enables the classic countermeasure against
    fault attacks on isogeny walks (see ``docs/ROBUSTNESS.md``): every
    computed curve — public key and shared secret alike — is validated
    to be supersingular before it is released.  A group action skewed
    by an injected fault lands on a wrong curve, which this check
    rejects with :class:`~repro.errors.FaultDetectedError` instead of
    leaking it to the peer (the leak is what makes CSIDH fault attacks
    key-recovering).
    """

    def __init__(
        self,
        params: CsidhParameters,
        *,
        field: FieldContext | None = None,
        seed: int | None = None,
        verify_output: bool = False,
    ) -> None:
        self.params = params
        self.field = field if field is not None else FieldContext(params.p)
        self.verify_output = verify_output
        self._rng = random.Random(seed)

    def _checked_output(self, coefficient: int, what: str) -> int:
        if self.verify_output:
            with telemetry.span("verify_output"):
                valid = is_supersingular(
                    self.params, self.field, coefficient, self._rng)
            if not valid:
                telemetry.record("faults_detected_total", what, "protocol")
                raise FaultDetectedError(
                    f"{what} is not a supersingular curve; the group "
                    f"action was corrupted mid-walk (withholding the "
                    f"result — releasing it would enable a "
                    f"fault-attack on the private key)")
        return coefficient

    # -- key management ------------------------------------------------------

    def generate_private_key(self) -> PrivateKey:
        return PrivateKey(self.params.sample_private_key(self._rng))

    def public_key(
        self, private: PrivateKey, *, stats: ActionStats | None = None
    ) -> PublicKey:
        """``[private] * E_0``."""
        with telemetry.span("public_key"):
            coefficient = group_action(
                self.params, self.field, BASE_COEFFICIENT,
                private.exponents, self._rng, stats=stats,
            )
        return PublicKey(self._checked_output(coefficient,
                                              "public key"))

    def keygen(self) -> tuple[PrivateKey, PublicKey]:
        private = self.generate_private_key()
        return private, self.public_key(private)

    # -- key exchange --------------------------------------------------------

    def shared_secret(
        self,
        private: PrivateKey,
        peer: PublicKey,
        *,
        validate: bool = True,
        stats: ActionStats | None = None,
    ) -> int:
        """``[private] * E_peer`` — the shared curve coefficient.

        With *validate* (the default, as the CSIDH paper mandates for
        static keys) the peer's key is first checked to be a valid
        supersingular curve; an invalid key raises
        :class:`~repro.errors.ProtocolError`.
        """
        peer_a = peer.coefficient % self.params.p
        with telemetry.span("shared_secret"):
            if validate:
                with telemetry.span("validate_peer"):
                    valid = is_supersingular(
                        self.params, self.field, peer_a, self._rng)
                if not valid:
                    raise ProtocolError(
                        "peer public key failed validation")
            secret = group_action(
                self.params, self.field, peer_a,
                private.exponents, self._rng, stats=stats,
            )
        return self._checked_output(secret, "shared secret")


def derive_symmetric_key(
    shared_secret: int,
    params: CsidhParameters,
    *,
    length: int = 32,
    context: bytes = b"csidh-512 shared key",
) -> bytes:
    """KDF step of a real deployment: hash the shared curve coefficient
    into a symmetric key (SHAKE-256, domain-separated)."""
    encoded = PublicKey(shared_secret).to_bytes(params)
    import hashlib  # here: its OpenSSL backend costs ~3.7 MB RSS

    shake = hashlib.shake_256()
    shake.update(context)
    shake.update(len(encoded).to_bytes(2, "little"))
    shake.update(encoded)
    return shake.digest(length)


def key_exchange_demo(
    params: CsidhParameters, *, seed: int = 1
) -> tuple[int, int]:
    """Run a complete exchange; returns both parties' shared secrets
    (equal by commutativity — asserted by the caller/tests)."""
    alice = Csidh(params, seed=seed)
    bob = Csidh(params, seed=seed + 1)
    alice_priv, alice_pub = alice.keygen()
    bob_priv, bob_pub = bob.keygen()
    secret_a = alice.shared_secret(alice_priv, bob_pub)
    secret_b = bob.shared_secret(bob_priv, alice_pub)
    return secret_a, secret_b
