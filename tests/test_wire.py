"""Wire decoders against garbage, and the element-set codec round trip."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from conftest import damaged
from setchain.core import Element, ProcessId, ProcessKind
from setchain.wire import (
    ECHO,
    INIT,
    READY,
    BrbFrame,
    FrameError,
    decode_add_request_body,
    decode_brb,
    decode_broadcast_message,
    decode_element_set,
    decode_epochinc_body,
    decode_get_state,
    decode_get_state_after,
    decode_inform,
    decode_request,
    decode_response,
    encode_brb,
    encode_element_set,
    encode_epoch,
    encode_epochinc_body,
    encode_get_state,
    encode_inform,
    encode_madd,
    encode_mepochinc,
    encode_request,
    encode_response,
)

pids_st = st.builds(ProcessId, id=st.integers(0, 2**32 - 1),
                    kind=st.sampled_from(ProcessKind))
elements_st = st.builds(Element, payload=st.binary(max_size=24), author=pids_st,
                        signature=st.binary(max_size=24))
element_sets_st = st.frozensets(elements_st, max_size=4)


def _get_state(sets):
    theset = frozenset().union(*sets) if sets else frozenset()
    return encode_get_state(theset, [encode_epoch(es) for es in sets])


def _brb(phase, origin, payload):
    digest = hashlib.sha256(payload).digest()
    return encode_brb(BrbFrame(phase, origin, digest,
                               None if phase == READY else payload))


# A well-formed input for each decoder, which the fuzz below then damages.
VALID = {
    decode_brb: st.builds(_brb, st.sampled_from((INIT, ECHO, READY)), pids_st,
                          st.binary(max_size=32)),
    decode_broadcast_message: st.one_of(
        st.builds(encode_madd, element_sets_st),
        st.builds(encode_mepochinc, st.integers(0, 2**64 - 1))),
    decode_inform: st.builds(encode_inform, st.integers(0, 2**64 - 1),
                             element_sets_st),
    decode_request: st.builds(encode_request, st.sampled_from((0, 1, 2)),
                              st.integers(0, 2**64 - 1), st.binary(max_size=16)),
    decode_response: st.builds(encode_response, st.integers(0, 255),
                               st.integers(0, 2**64 - 1), st.integers(0, 255),
                               st.binary(max_size=16)),
    decode_get_state: st.builds(_get_state, st.lists(element_sets_st, max_size=3)),
    decode_add_request_body: elements_st.map(lambda e: e.wire),
    decode_epochinc_body: st.builds(encode_epochinc_body,
                                    st.integers(0, 2**64 - 1)),
}


@pytest.mark.parametrize("decode", list(VALID), ids=lambda fn: fn.__name__)
@given(data=st.data())
def test_decoders_return_a_value_or_raise_frame_error(decode, data):
    buf = data.draw(st.one_of(st.binary(max_size=96), damaged(VALID[decode])))
    try:
        decode(buf)
    except FrameError:
        pass


@pytest.mark.parametrize("decode", list(VALID), ids=lambda fn: fn.__name__)
@given(data=st.data())
def test_decoders_accept_what_the_encoders_produce(decode, data):
    decode(data.draw(VALID[decode]))


# -- get replies decoded against the same server's previous reply -----------


def _decoded(decode, buf, *args):
    """What ``decode`` makes of ``buf``: its value, or FrameError."""
    try:
        return decode(buf, *args)
    except FrameError:
        return FrameError


def _reply_after(old, new, shape):
    """A reply's epoch sets, shaped against the previous reply's ``old``."""
    if shape == "growing":
        return old + new
    if shape == "shorter":
        return old[: len(old) // 2]
    return new  # diverging: unrelated to what came before


@given(old=st.lists(element_sets_st, max_size=3),
       new=st.lists(element_sets_st, max_size=3),
       shape=st.sampled_from(("growing", "diverging", "shorter")),
       data=st.data())
def test_prefix_aware_decode_equals_a_full_decode(old, new, shape, data):
    prior = decode_get_state_after(_get_state(old), None)[3]
    valid = _get_state(_reply_after(old, new, shape))
    for buf in (valid, data.draw(damaged(st.just(valid))),
                data.draw(st.binary(max_size=96))):
        full = _decoded(decode_get_state_after, buf, None)
        assert _decoded(decode_get_state_after, buf, prior) == full
        assert _decoded(decode_get_state, buf) == (
            full if full is FrameError else full[:3])


def test_prefix_aware_decode_reuses_the_kept_epochs_only_when_claimed():
    a, b = (frozenset({Element(p, ProcessId(1, ProcessKind.CLIENT), b"s")})
            for p in (b"a", b"b"))
    prior = decode_get_state_after(_get_state([a]), None)[3]
    grown = decode_get_state_after(_get_state([a, b]), prior)
    assert grown[1][0] is prior[1][0] and grown[1] == (a, b)
    # The kept segment again, after a header that claims no epochs.
    zero = _get_state([])
    with pytest.raises(FrameError):
        decode_get_state_after(zero + prior[0], prior)


@given(data=st.data())
def test_prefix_aware_decode_returns_a_value_or_raises_frame_error(data):
    old = data.draw(st.lists(element_sets_st, max_size=3))
    prior = decode_get_state_after(_get_state(old), None)[3]
    grown = st.lists(element_sets_st, max_size=2).map(lambda new: _get_state(old + new))
    buf = data.draw(st.one_of(st.binary(max_size=96), damaged(grown),
                              damaged(VALID[decode_get_state])))
    try:
        decode_get_state_after(buf, prior)
    except FrameError:
        pass


@given(st.lists(st.sampled_from(range(6)), max_size=10), st.lists(elements_st,
       min_size=6, max_size=6))
def test_element_set_codec_round_trip_with_duplicates(picks, pool):
    # Equal elements built twice: the same value as two distinct objects.
    es = [pool[i] if n % 2 else Element(pool[i].payload, pool[i].author,
                                        pool[i].signature)
          for n, i in enumerate(picks)]
    buf = encode_element_set(es)
    decoded, end = decode_element_set(buf, len(es))
    assert decoded == frozenset(es)
    assert end == len(buf)
    assert encode_element_set(decoded) == encode_element_set(frozenset(es))


def _with_byte(buf, at, value):
    return buf[:at] + bytes([value]) + buf[at + 1:]


UNKNOWN_KINDS = (len(ProcessKind), 255)


def test_shared_broadcast_decode_still_rejects_garbage_each_time():
    element = Element(b"p", ProcessId(1, ProcessKind.CLIENT), b"s")
    madd = encode_madd([element])
    # tag, count, element length, then the element's payload and author id
    author_kind_at = 1 + 4 + 4 + 4 + len(element.payload) + 4
    assert madd[author_kind_at] == ProcessKind.CLIENT
    garbage = [b"\x00\x00\x00\x00\x01"]
    garbage += [_with_byte(madd, author_kind_at, k) for k in UNKNOWN_KINDS]
    for buf in garbage:
        for _ in range(2):
            with pytest.raises(FrameError):
                decode_broadcast_message(buf)
    assert (decode_broadcast_message(madd)
            is decode_broadcast_message(bytes(bytearray(madd))))


def test_brb_decode_rejects_a_digest_that_does_not_bind_the_payload():
    origin = ProcessId(2, ProcessKind.CORRECT_SERVER)
    for phase in (INIT, ECHO):
        bound = _brb(phase, origin, b"payload")
        assert decode_brb(bound).payload == b"payload"
        unbound = encode_brb(BrbFrame(phase, origin,
                                      hashlib.sha256(b"other").digest(),
                                      b"payload"))
        with pytest.raises(FrameError):
            decode_brb(unbound)


def test_brb_decode_is_shared_for_equal_bytes_and_rejects_garbage_each_time():
    frame = _brb(ECHO, ProcessId(1, ProcessKind.CORRECT_SERVER), b"batch")
    assert decode_brb(frame) is decode_brb(bytes(bytearray(frame)))
    origin_kind_at = 6  # tag, phase, origin id
    assert frame[origin_kind_at] == ProcessKind.CORRECT_SERVER
    garbage = [frame[:-1]]
    garbage += [_with_byte(frame, origin_kind_at, k) for k in UNKNOWN_KINDS]
    for buf in garbage:
        for _ in range(2):
            with pytest.raises(FrameError):
                decode_brb(buf)
