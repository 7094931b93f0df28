"""Reward arithmetic for epoch signing.

Servers that co-sign epochs earn tokens; the reward for one epoch is

    (base + element_value(e) + signer_value(s)) * cliff(s)

where ``e`` is the number of elements stamped in the epoch, ``s`` the
number of distinct signers, and ``cliff(s)`` is 0 while ``s`` is at or
below the fault threshold (a minority of signatures proves nothing, so it
pays nothing) and 1 above it.  Client insertion fees are split between a
burned share and the signers.

All arithmetic uses exact fractions; payouts are quantized to whole cents
with the leftover cents going to the lowest-id signers and sub-cent dust
to the burn, so the split always conserves the fee exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Callable, Iterable, Mapping, Optional

from .core import History, KeyStore, ProcessId, attesters, hash_epoch

Tokens = Fraction
CENT = Fraction(1, 100)


class IncentiveError(ValueError):
    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def _check_strictly_increasing(fn: Callable[[int], Rational], hi: int, name: str) -> None:
    probe = [Fraction(fn(k)) for k in range(hi + 2)]
    if any(b <= a for a, b in zip(probe, probe[1:])):
        raise IncentiveError(f"{name}-not-strictly-increasing")


@dataclass(frozen=True)
class RewardParams:
    """Knobs of the reward formula.  ``elem_fn``/``signer_fn`` default to
    linear maps with the given coefficients; custom maps must be strictly
    increasing (spot-checked on a small integer prefix)."""

    c: Rational = 1
    f_threshold: int = 1
    n: int = 4
    elem_coeff: Rational = 1
    signer_coeff: Rational = 1
    elem_fn: Optional[Callable[[int], Rational]] = None
    signer_fn: Optional[Callable[[int], Rational]] = None
    burn_ratio: Rational = Fraction(1, 2)

    def __post_init__(self):
        if self.c < 0:
            raise IncentiveError("negative-base")
        if not 0 <= self.f_threshold < self.n:
            raise IncentiveError("bad-fault-threshold")
        if not 0 <= Fraction(self.burn_ratio) <= 1:
            raise IncentiveError("bad-burn-ratio")
        if self.elem_coeff <= 0 or self.signer_coeff <= 0:
            raise IncentiveError("bad-coefficient")
        if self.elem_fn is not None:
            _check_strictly_increasing(self.elem_fn, self.n + 8, "elem-fn")
        if self.signer_fn is not None:
            _check_strictly_increasing(self.signer_fn, self.n + 8, "signer-fn")

    def element_value(self, e: int) -> Tokens:
        if self.elem_fn is not None:
            return Fraction(self.elem_fn(e))
        return Fraction(self.elem_coeff) * e

    def signer_value(self, s: int) -> Tokens:
        if self.signer_fn is not None:
            return Fraction(self.signer_fn(s))
        return Fraction(self.signer_coeff) * s

    @classmethod
    def from_dict(cls, d: Mapping) -> "RewardParams":
        """Linear-map params from a plain config mapping; ratios may be
        given as strings ("1/2") or numbers.  A key that names no such
        param raises ``IncentiveError("unknown-param")``, so that a misspelt
        one does not fall back to its default."""
        def frac(v):
            return Fraction(v) if isinstance(v, str) else Fraction(str(v))

        ratios = ("c", "elem_coeff", "signer_coeff", "burn_ratio")
        counts = ("f_threshold", "n")
        if not set(d) <= {*ratios, *counts}:
            raise IncentiveError("unknown-param")
        kwargs = {key: frac(d[key]) for key in ratios if key in d}
        kwargs.update((key, int(d[key])) for key in counts if key in d)
        return cls(**kwargs)


def reward(e: int, s: int, p: RewardParams) -> Tokens:
    """Tokens for one signed epoch with ``e`` elements and ``s`` signers."""
    if not 0 <= s <= p.n:
        raise IncentiveError("invalid-signer-count")
    if e < 0:
        raise IncentiveError("invalid-element-count")
    if s <= p.f_threshold:
        return Fraction(0)
    return Fraction(p.c) + p.element_value(e) + p.signer_value(s)


@dataclass(frozen=True)
class FeeSplit:
    payouts: Mapping[ProcessId, Tokens]
    burned: Tokens

    def total(self) -> Tokens:
        return sum(self.payouts.values(), start=Fraction(0)) + self.burned


def fee_split(x: Rational, signers: Iterable[ProcessId], p: RewardParams) -> FeeSplit:
    """Split an insertion fee: ``burn_ratio`` of it is burned, the rest is
    divided equally among the signers in whole cents, leftover cents to
    the lowest ids, sub-cent dust to the burn.  Conserves ``x`` exactly."""
    x = Fraction(x)
    if x < 0:
        raise IncentiveError("negative-fee")
    ordered = sorted(signers)
    if not ordered:
        if Fraction(p.burn_ratio) < 1:
            raise IncentiveError("no-signers")
        return FeeSplit(payouts={}, burned=x)
    pot_cents = int((x - x * Fraction(p.burn_ratio)) / CENT)
    base, extra = divmod(pot_cents, len(ordered))
    payouts = {
        s: (base + (1 if i < extra else 0)) * CENT
        for i, s in enumerate(ordered)
    }
    burned = x - sum(payouts.values(), start=Fraction(0))
    return FeeSplit(payouts=payouts, burned=burned)


def stamped_signers(history: History, h: int, keys: KeyStore) -> frozenset[ProcessId]:
    """Distinct servers whose attestation of epoch ``h``'s content is
    itself stamped somewhere at or after ``h``.  This is the signer count
    the reward formula pays on: a signature only counts once the chain has
    recorded it."""
    digest = hash_epoch(history.get(h))
    return attesters(chain.from_iterable(history.entries[h - 1:]), h, digest, keys)


def epoch_reward(history: History, h: int, keys: KeyStore,
                 p: RewardParams) -> Tokens:
    """Reward actually earned for epoch ``h`` of a finished history."""
    signers = stamped_signers(history, h, keys)
    return reward(len(history.get(h)), len(signers), p)
