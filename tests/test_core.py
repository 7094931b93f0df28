"""Value types: elements, validity, canonical encodings, epoch digests, history."""

import copy
import hashlib
import hmac
import pickle
import random
import struct

import pytest
from hypothesis import given, strategies as st

from conftest import damaged
from setchain.core import (
    Ed25519Scheme,
    Element,
    GetResult,
    History,
    HmacScheme,
    KeyStore,
    ProcessId,
    ProcessKind,
    attestation_payload,
    decode_element,
    decode_element_set,
    encode_element_set,
    hash_epoch,
    parse_attestation,
    random_payload,
    sort_elements,
)


def make_world(scheme=None):
    keys = KeyStore(scheme)
    author = ProcessId(7, ProcessKind.CLIENT)
    private = keys.keygen(author)
    return keys, author, private


def signed(keys, author, private, payload=b"hello"):
    return keys.make_element(payload, author, private)


# -- validity ---------------------------------------------------------------


def test_valid_accepts_well_formed_element():
    keys, author, private = make_world()
    assert keys.valid(signed(keys, author, private))


def test_valid_rejects_flipped_payload_byte():
    keys, author, private = make_world()
    e = signed(keys, author, private)
    tampered = Element(b"h" + bytes([e.payload[1] ^ 1]) + e.payload[2:],
                       e.author, e.signature)
    assert not keys.valid(tampered)


def test_valid_rejects_author_substitution():
    keys, author, private = make_world()
    other = ProcessId(8, ProcessKind.CLIENT)
    keys.keygen(other)
    e = signed(keys, author, private)
    forged = Element(e.payload, other, e.signature)
    # independent check through the raw scheme, then through the keystore
    assert not keys.scheme.verify(keys.public_key(other), e.payload, e.signature)
    assert not keys.valid(forged)


def test_valid_rejects_unknown_author():
    keys, author, private = make_world()
    e = signed(keys, author, private)
    stranger = Element(e.payload, ProcessId(99, ProcessKind.CLIENT), e.signature)
    assert not keys.valid(stranger)


def test_ed25519_scheme_round_trip():
    keys, author, private = make_world(Ed25519Scheme())
    e = signed(keys, author, private)
    assert keys.valid(e)
    assert not keys.valid(Element(e.payload + b"!", e.author, e.signature))


def test_hmac_verification_with_wrong_key_fails():
    scheme = HmacScheme()
    pub_a, priv_a = scheme.keygen(1)
    pub_b, _ = scheme.keygen(2)
    sig = scheme.sign(priv_a, b"msg")
    assert scheme.verify(pub_a, b"msg", sig)
    assert not scheme.verify(pub_b, b"msg", sig)


# -- canonical encoding and epoch digests -----------------------------------

pids_st = st.builds(ProcessId, id=st.integers(0, 2**32 - 1),
                    kind=st.sampled_from(ProcessKind))
elements_st = st.builds(
    Element,
    payload=st.binary(max_size=48),
    author=pids_st,
    signature=st.binary(max_size=48),
)


@given(key=st.binary(max_size=96), message=st.binary(max_size=256))
def test_hmac_signature_is_hmac_sha256(key, message):
    expected = hmac.new(key, message, hashlib.sha256).digest()
    assert HmacScheme().sign(key, message) == expected


@given(payload=st.binary(max_size=64), author=pids_st,
       private=st.binary(min_size=1, max_size=48))
def test_a_made_element_has_the_fields_and_bytes_of_a_built_one(payload, author,
                                                                 private):
    keys = KeyStore()
    made = keys.make_element(payload, author, private)
    built = Element(payload, author, keys.scheme.sign(private, payload))
    assert (made.payload, made.author, made.signature, made.wire) == \
        (built.payload, built.author, built.signature, built.wire)


@given(elements_st)
def test_element_codec_round_trip(e):
    decoded, end = decode_element(e.wire)
    assert decoded == e
    assert end == len(e.wire)


@given(st.
       frozensets(elements_st, max_size=6))
def test_element_set_codec_round_trip(es):
    buf = encode_element_set(es)
    decoded, end = decode_element_set(buf, len(es))
    assert decoded == es
    assert end == len(buf)


# -- process identity --------------------------------------------------------


def test_process_ids_from_equal_fields_are_equal_and_hash_equal():
    a, b = ProcessId(5, ProcessKind.CLIENT), ProcessId(5, ProcessKind.CLIENT)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert ProcessId(5) == ProcessId(5, ProcessKind.CORRECT_SERVER)


@pytest.mark.parametrize("other", [
    ProcessId(6, ProcessKind.CLIENT),
    ProcessId(5, ProcessKind.CORRECT_SERVER),
    ProcessId(5, ProcessKind.BYZANTINE_SERVER),
    ProcessId(5, ProcessKind.MODEL_B),
])
def test_changing_the_id_or_the_kind_makes_process_ids_unequal(other):
    pid = ProcessId(5, ProcessKind.CLIENT)
    assert pid != other and not pid == other
    assert {pid: 1, other: 2}[pid] == 1 and len({pid, other}) == 2


def test_process_ids_sort_by_id_then_kind():
    pids = [ProcessId(i, k) for i in (3, 0, 10, 2) for k in reversed(ProcessKind)]
    assert sorted(pids) == sorted(pids, key=lambda p: (p.id, p.kind.value))
    assert sorted(pids)[:2] == [ProcessId(0, ProcessKind.CORRECT_SERVER),
                                ProcessId(0, ProcessKind.BYZANTINE_SERVER)]


def test_a_negative_process_id_is_rejected():
    with pytest.raises(ValueError):
        ProcessId(-1, ProcessKind.CLIENT)


@pytest.mark.parametrize("kind, text", [
    (ProcessKind.CORRECT_SERVER, "s4"),
    (ProcessKind.BYZANTINE_SERVER, "z4"),
    (ProcessKind.CLIENT, "c4"),
    (ProcessKind.MODEL_B, "b4"),
])
def test_process_id_repr_is_kind_tag_and_id(kind, text):
    assert repr(ProcessId(4, kind)) == text
    assert f"{ProcessId(4, kind)}" == text


# -- element identity --------------------------------------------------------

FIELDS = dict(payload=b"pay", author=ProcessId(5, ProcessKind.CLIENT), signature=b"sig")


def test_elements_from_equal_fields_are_equal_and_hash_equal():
    a, b = Element(**FIELDS), Element(**FIELDS)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("field, value", [
    ("payload", b"paz"),
    ("payload", b"pay\x00"),
    ("author", ProcessId(6, ProcessKind.CLIENT)),
    ("author", ProcessId(5, ProcessKind.CORRECT_SERVER)),
    ("author", ProcessId(5, ProcessKind.BYZANTINE_SERVER)),
    ("signature", b"sih"),
    ("signature", b""),
])
def test_changing_any_one_field_makes_elements_unequal(field, value):
    a, b = Element(**FIELDS), Element(**dict(FIELDS, **{field: value}))
    assert a != b and not a == b
    assert len({a, b}) == 2


def test_decoded_element_equals_the_original_and_is_shared():
    e = Element(**FIELDS)
    first, end = decode_element(e.wire)
    again, _ = decode_element(bytes(bytearray(e.wire)))  # equal bytes, new object
    assert first == e and hash(first) == hash(e)
    assert end == len(e.wire)
    assert again is first
    (from_set,) = decode_element_set(encode_element_set([e]), 1)[0]
    assert from_set is first


def test_a_made_element_is_the_shared_decoded_object():
    keys, author, private = make_world()
    e = keys.make_element(b"shared", author, private)
    assert keys.make_element(b"shared", author, private) is e
    assert decode_element(e.wire)[0] is e


def test_an_element_never_equals_a_non_element():
    e = Element(**FIELDS)
    for other in (e.wire, (e.payload, e.author, e.signature), e.payload, None, 0):
        assert e != other and not e == other
        assert e.__eq__(other) is NotImplemented


def test_element_identity_runs_in_c_with_one_documented_exception():
    e = Element(**FIELDS)
    assert type(e).__hash__ is tuple.__hash__
    assert tuple(e) == (e.wire, e.payload, e.author, e.signature)
    # Reflected tuple comparison: a plain tuple of exactly the four items
    # equals the element (and hashes equal).  No code builds one.
    assert e == tuple(e) and hash(e) == hash(tuple(e))


def test_an_element_survives_copy_and_pickle():
    e = Element(**FIELDS)
    for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert again == e and type(again) is Element
        assert (again.payload, again.author, again.signature) == (
            e.payload, e.author, e.signature)


def test_invalid_verdicts_are_not_memoised():
    keys, author, private = make_world()
    good = signed(keys, author, private)
    assert keys.valid(good)
    size = len(keys._memo)
    rng = random.Random(3)
    junk = [Element(rng.randbytes(16), author, rng.randbytes(32))
            for _ in range(1_000)]
    assert not any(keys.valid(e) for e in junk)
    assert len(keys._memo) == size
    assert not any(keys.valid(e) for e in junk)  # still invalid when asked again
    assert keys.valid(good)


def test_hash_epoch_empty_set_is_deterministic():
    assert hash_epoch([]) == hash_epoch(frozenset())
    assert hash_epoch([]) == hashlib.sha256(b"").digest()


def test_hash_epoch_is_order_independent():
    keys, author, private = make_world()
    a = signed(keys, author, private, b"a")
    b = signed(keys, author, private, b"b")
    assert hash_epoch([a, b]) == hash_epoch([b, a])


def test_hash_epoch_distinguishes_subset():
    keys, author, private = make_world()
    a = signed(keys, author, private, b"a")
    b = signed(keys, author, private, b"b")
    # oracle: rebuild both digests from first principles
    def oracle(es):
        acc = b""
        for w in sorted(e.wire for e in es):
            acc += struct.pack(">I", len(w)) + w
        return hashlib.sha256(acc).digest()

    assert hash_epoch([a]) == oracle([a])
    assert hash_epoch([a, b]) == oracle([a, b])
    assert hash_epoch([a]) != hash_epoch([a, b])


def test_canonical_serialization_is_injective_on_random_sets():
    rng = random.Random(42)
    author = ProcessId(3, ProcessKind.CLIENT)
    pool = [Element(rng.randbytes(rng.randint(1, 24)), author, b"s")
            for _ in range(40)]
    seen_sets, seen_bufs = set(), set()
    while len(seen_sets) < 1000:
        es = frozenset(rng.sample(pool, rng.randint(0, 6)))
        if es in seen_sets:
            continue
        seen_sets.add(es)
        seen_bufs.add(encode_element_set(es))
    assert len(seen_bufs) == 1000


@given(st.lists(elements_st, max_size=8))
def test_sort_elements_is_total_and_stable(es):
    ordered = sort_elements(es)
    assert sorted(e.wire for e in es) == [e.wire for e in ordered]


# -- history ---------------------------------------------------------------


def test_history_stamps_contiguous_epochs():
    keys, author, private = make_world()
    a = signed(keys, author, private, b"a")
    h = History().stamp(1, {a})
    assert h.epoch == 1
    assert h.get(1) == {a}
    assert a in h
    with pytest.raises(ValueError):
        h.stamp(3, set())
    with pytest.raises(KeyError):
        h.get(2)


def test_history_is_persistent():
    keys, author, private = make_world()
    a = signed(keys, author, private, b"a")
    h0 = History()
    h1 = h0.stamp(1, {a})
    assert h0.epoch == 0 and h1.epoch == 1
    assert h1.union() == {a}
    assert h0.union() == frozenset()


@given(st.lists(st.frozensets(elements_st, max_size=3), max_size=5))
def test_history_union_is_union_of_entries(epochs):
    h = History()
    for i, es in enumerate(epochs, start=1):
        h = h.stamp(i, es)
    assert h.union() == frozenset().union(*epochs) if epochs else h.union() == frozenset()
    assert h.epoch == len(epochs)
    assert [h.get(i) for i in range(1, h.epoch + 1)] == [frozenset(e) for e in epochs]


def test_history_digest_changes_with_content():
    keys, author, private = make_world()
    a = signed(keys, author, private, b"a")
    assert History().stamp(1, {a}).digest() != History().stamp(1, set()).digest()


# -- snapshots and attestations ---------------------------------------------


def test_get_result_is_a_frozen_value():
    snap = GetResult(frozenset(), History(), 0)
    with pytest.raises(AttributeError):
        snap.epoch = 1  # type: ignore[misc]


def test_attestation_payload_round_trip():
    digest = hashlib.sha256(b"epoch").digest()
    payload = attestation_payload(9, digest)
    assert parse_attestation(payload) == (9, digest)


def test_parse_attestation_rejects_other_payloads():
    assert parse_attestation(b"hello") is None
    assert parse_attestation(b"SEH1" + b"\x00" * 39) is None
    assert parse_attestation(b"XXXX" + b"\x00" * 40) is None


# -- decoders against garbage -------------------------------------------------
# The core decoders raise ValueError or struct.error on bytes that are not an
# encoding; their wire callers turn exactly those into FrameError.


@given(data=st.data())
def test_decode_element_returns_an_element_or_raises_value_or_struct_error(data):
    valid = elements_st.map(lambda e: e.wire)
    buf = data.draw(st.one_of(st.binary(max_size=96), damaged(valid)))
    offset = data.draw(st.integers(0, 16))
    try:
        e, end = decode_element(buf, offset)
    except (ValueError, struct.error):
        return
    assert buf[offset:end] == e.wire


@given(data=st.data())
def test_decode_element_set_returns_a_set_or_raises_value_or_struct_error(data):
    es = data.draw(st.frozensets(elements_st, max_size=4))
    buf = data.draw(st.one_of(st.binary(max_size=128),
                              damaged(st.just(encode_element_set(es)))))
    count = data.draw(st.sampled_from((len(es), 0, 1, 2**32 - 1)))
    try:
        decoded, end = decode_element_set(buf, count)
    except (ValueError, struct.error):
        return
    assert len(decoded) <= count and end <= len(buf)


@given(data=st.data())
def test_parse_attestation_returns_none_or_what_was_attested(data):
    valid = st.builds(attestation_payload, st.integers(0, 2**64 - 1),
                      st.binary(min_size=32, max_size=32))
    payload = data.draw(st.one_of(st.binary(max_size=64), damaged(valid)))
    parsed = parse_attestation(payload)
    if parsed is not None:
        assert attestation_payload(*parsed) == payload


def test_random_payload_sizes_stay_in_declared_range():
    rng = random.Random(0)
    sizes = {len(random_payload(rng)) for _ in range(500)}
    assert min(sizes) >= 116 and max(sizes) <= 126
    assert len(sizes) == 11  # every size in the closed range shows up
