"""Reward formula and fee split: frozen oracles, validation, exactness
properties, and the chain-integration helper that counts stamped signers."""

from fractions import Fraction

import pytest
from conftest import ServerCluster
from hypothesis import given, settings
from hypothesis import strategies as st
from setchain.core import History, ProcessId, ProcessKind, hash_epoch, parse_attestation
from setchain.incentives import (
    CENT,
    FeeSplit,
    IncentiveError,
    RewardParams,
    epoch_reward,
    fee_split,
    reward,
    stamped_signers,
)
from test_client import _SEAL_KINDS, make_seal, signing_world

P = RewardParams(c=1, f_threshold=1, n=4)


def pids(*ids):
    return [ProcessId(i, ProcessKind.CORRECT_SERVER) for i in ids]


# -- reward -----------------------------------------------------------------


def test_reward_oracle_linear_case():
    assert reward(10, 3, P) == 14


def test_reward_cliff_pays_nothing_at_or_below_threshold():
    for e in (0, 1, 10, 500):
        assert reward(e, 0, P) == 0
        assert reward(e, 1, P) == 0
    assert reward(0, 2, P) == 3  # first paying signer count


def test_reward_zero_element_epoch_pays_the_signer_term():
    p = RewardParams(c=0, f_threshold=1, n=4)
    assert reward(0, 4, p) == 4
    p = RewardParams(c=0, f_threshold=1, n=4, signer_coeff=Fraction(3, 2))
    assert reward(0, 4, p) == 6


def test_reward_signer_count_must_fit_the_cluster():
    for s in (-1, 5, 99):
        with pytest.raises(IncentiveError) as err:
            reward(1, s, P)
        assert err.value.code == "invalid-signer-count"


def test_reward_custom_maps():
    p = RewardParams(c=1, f_threshold=1, n=4,
                     elem_fn=lambda e: e * e, signer_fn=lambda s: 2 ** s)
    assert reward(2, 2, p) == 1 + 4 + 4


def test_non_increasing_custom_map_is_rejected():
    with pytest.raises(IncentiveError) as err:
        RewardParams(elem_fn=lambda e: 0)
    assert "not-strictly-increasing" in err.value.code


def test_param_validation():
    with pytest.raises(IncentiveError):
        RewardParams(burn_ratio=Fraction(3, 2))
    with pytest.raises(IncentiveError):
        RewardParams(f_threshold=4, n=4)
    with pytest.raises(IncentiveError):
        RewardParams(elem_coeff=0)
    with pytest.raises(IncentiveError):
        RewardParams(c=-1)


def test_params_from_config_mapping():
    p = RewardParams.from_dict({
        "c": 2, "f_threshold": 2, "n": 7, "burn_ratio": "1/4",
        "elem_coeff": 0.5,
    })
    assert p.c == 2 and p.n == 7 and p.burn_ratio == Fraction(1, 4)
    assert p.element_value(4) == 2
    assert reward(4, 3, p) == 2 + 2 + 3


@pytest.mark.parametrize("key", ["fee_x", "elem_coef", "elem_fn"])
def test_params_from_an_unknown_key_are_rejected(key):
    with pytest.raises(IncentiveError, match="unknown-param"):
        RewardParams.from_dict({"c": 2, key: 1})


@given(e=st.integers(0, 60), s=st.integers(0, 4))
def test_reward_monotone_and_cliff_property(e, s):
    r = reward(e, s, P)
    if s <= P.f_threshold:
        assert r == 0
    else:
        assert r > 0
        assert reward(e + 1, s, P) > r
        if s < P.n:
            assert reward(e, s + 1, P) > r


# -- fee split --------------------------------------------------------------


def test_fee_all_burned():
    p = RewardParams(burn_ratio=1)
    split = fee_split(10, pids(1, 2), p)
    assert split.burned == 10
    assert all(v == 0 for v in split.payouts.values())
    assert split.total() == 10


def test_fee_half_burned_two_signers_oracle():
    p = RewardParams(burn_ratio=Fraction(1, 2))
    split = fee_split(10, pids(3, 1), p)
    assert split.burned == 5
    assert sorted(split.payouts.values()) == [Fraction(5, 2), Fraction(5, 2)]
    assert split.total() == 10


def test_zero_fee_splits_to_zeros():
    split = fee_split(0, pids(1, 2, 3), P)
    assert split.burned == 0
    assert all(v == 0 for v in split.payouts.values())


def test_empty_signers_need_full_burn():
    with pytest.raises(IncentiveError) as err:
        fee_split(10, [], RewardParams(burn_ratio=Fraction(1, 2)))
    assert err.value.code == "no-signers"
    split = fee_split(10, [], RewardParams(burn_ratio=1))
    assert split == FeeSplit(payouts={}, burned=Fraction(10))


def test_leftover_cents_go_to_lowest_ids():
    p = RewardParams(burn_ratio=0)
    split = fee_split(10, pids(30, 10, 20), p)
    by_id = [split.payouts[s] for s in sorted(split.payouts)]
    assert by_id == [Fraction(334, 100), Fraction(333, 100), Fraction(333, 100)]
    assert split.total() == 10


def test_subcent_dust_is_burned():
    p = RewardParams(burn_ratio=Fraction(1, 3))
    split = fee_split(1, pids(1), p)
    assert split.payouts[pids(1)[0]] == Fraction(66, 100)
    assert split.burned == Fraction(34, 100)
    assert split.total() == 1


@given(
    cents=st.integers(0, 10 ** 6),
    burn=st.integers(0, 100),
    k=st.integers(1, 10),
)
def test_fee_split_conserves_exactly_and_is_fair(cents, burn, k):
    p = RewardParams(burn_ratio=Fraction(burn, 100))
    x = Fraction(cents, 100)
    split = fee_split(x, pids(*range(1, k + 1)), p)
    assert split.total() == x
    values = [split.payouts[s] for s in sorted(split.payouts)]
    assert max(values) - min(values) <= CENT
    assert values == sorted(values, reverse=True)  # lowest ids first
    assert split.burned >= x * Fraction(burn, 100)  # dust only ever adds


# -- chain integration ------------------------------------------------------


def test_epoch_reward_counts_only_stamped_signers():
    cluster = ServerCluster(n=4, f=1, sign_epochs=True)
    elems = [cluster.element() for _ in range(5)]
    for e in elems:
        cluster.correct[0].add(e)
    cluster.drain()
    cluster.correct[0].epoch_inc(1)
    cluster.drain()
    history = cluster.correct[0].history
    signers = stamped_signers(history, 1, cluster.keys)
    assert signers == frozenset()  # attestations not yet stamped anywhere
    assert epoch_reward(history, 1, cluster.keys, P) == 0

    cluster.correct[0].epoch_inc(2)
    cluster.drain()
    history = cluster.correct[0].history
    signers = stamped_signers(history, 1, cluster.keys)
    assert signers == frozenset(s.pid for s in cluster.correct)
    # 5 elements, 4 signers, base 1
    assert epoch_reward(history, 1, cluster.keys, P) == 1 + 5 + 4


def reference_stamped_signers(history, h, keys):
    """stamped_signers by parsing every element stamped at or after ``h``
    as an attestation."""
    digest = hash_epoch(history.get(h))
    return frozenset(
        e.author for i, entry in history.items() if i >= h for e in entry
        if parse_attestation(e.payload) == (h, digest)
        and e.author.is_server and keys.valid(e))


@settings(max_examples=200)
@given(data=st.data(), epochs=st.integers(2, 4),
       seals=st.lists(st.tuples(st.sampled_from(_SEAL_KINDS), st.integers(0, 3),
                                st.integers(0, 2), st.integers(0, 2),
                                st.integers(0, 2)), max_size=12))
def test_stamped_signers_equals_the_reference(data, epochs, seals):
    """Random histories whose seals of an epoch are stamped before it as
    well as after it: the entries are built in a drawn order, and a seal
    names an epoch built before the one that stamps it."""
    world = keys, _, _, author, author_key = signing_world()
    order = data.draw(st.permutations(range(1, epochs + 1)))
    contents = {h: {keys.make_element(b"x%d" % h, author, author_key)}
                for h in order}
    # Each seal: (kind, signer, target, stamped at, and, for "duplicate",
    # also stamped at); the last three pick among the allowed positions.
    placed = []
    for kind, who, target, at, again in seals:
        t = order[target % (epochs - 1)]
        later = order[order.index(t) + 1:]
        places = {later[at % len(later)]}
        if kind == "duplicate":
            places.add(later[again % len(later)])
        placed.append((kind, who, t, places))
    digests = {}
    for h in order:
        for kind, who, t, places in placed:
            if h in places:
                contents[h].add(make_seal(world, kind, t, digests[t], who))
        digests[h] = hash_epoch(contents[h])
    history = History(tuple(frozenset(contents[h]) for h in range(1, epochs + 1)))
    for h in range(1, epochs + 1):
        assert (stamped_signers(history, h, keys)
                == reference_stamped_signers(history, h, keys))
