"""Wire decoders against garbage, and the element-set codec round trip."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from conftest import damaged
from setchain.core import Element, ProcessId, ProcessKind
from setchain.wire import (
    ECHO,
    FETCH,
    INIT,
    READY,
    SUPPLY,
    BrbFrame,
    FrameError,
    Proposal,
    decode_add_request_body,
    decode_brb,
    decode_broadcast_message,
    decode_element_set,
    decode_epochinc_body,
    decode_get_request_body,
    decode_get_state,
    decode_get_state_after,
    decode_inform,
    decode_request,
    decode_response,
    encode_add_request_body,
    encode_brb,
    encode_element_set,
    encode_epoch,
    encode_epochinc_body,
    encode_get_request_body,
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
digests_st = st.frozensets(st.binary(min_size=32, max_size=32), max_size=3)
# A proposal names batches by digest and elements by value.
proposals_st = st.builds(Proposal, digests_st, element_sets_st)


def _get_state(sets, unstamped=frozenset(), base=0):
    """A get reply for a server whose epochs are ``sets``, to a reader that
    holds the first ``base`` of them."""
    return encode_get_state(unstamped, [encode_epoch(es) for es in sets[base:]],
                            base)


@st.composite
def _delta_and_prior(draw):
    """A reply that reuses some of a random prior's epochs, and the prior."""
    prior = tuple(draw(st.lists(element_sets_st, max_size=3)))
    base = draw(st.integers(0, len(prior)))
    new = draw(st.lists(element_sets_st, max_size=2))
    return _get_state([*prior[:base], *new], draw(element_sets_st), base), prior


PHASES = (INIT, ECHO, READY, FETCH, SUPPLY)
DIGEST_ONLY = (ECHO, READY, FETCH)


def _brb(phase, origin, payload):
    digest = hashlib.sha256(payload).digest()
    return encode_brb(BrbFrame(phase, origin, digest,
                               None if phase in DIGEST_ONLY else payload))


def _alone(bufs):
    return bufs.map(lambda buf: (buf,))


# Well-formed arguments for each decoder: the bytes, which the fuzz below
# then damages, and anything else the decoder reads them against.
VALID = {
    decode_brb: _alone(st.builds(_brb, st.sampled_from(PHASES),
                                 pids_st, st.binary(max_size=32))),
    decode_broadcast_message: _alone(st.one_of(
        st.builds(encode_madd, element_sets_st),
        st.builds(encode_mepochinc, st.integers(0, 2**64 - 1)))),
    decode_inform: _alone(st.builds(encode_inform, st.integers(0, 2**64 - 1),
                                    proposals_st)),
    decode_request: _alone(st.builds(encode_request, st.sampled_from((0, 1, 2)),
                                     st.integers(0, 2**64 - 1),
                                     st.binary(max_size=16))),
    decode_response: _alone(st.builds(encode_response, st.integers(0, 255),
                                      st.integers(0, 2**64 - 1),
                                      st.integers(0, 255), st.binary(max_size=16))),
    decode_get_state: _alone(st.builds(_get_state,
                                       st.lists(element_sets_st, max_size=3),
                                       element_sets_st)),
    decode_get_state_after: _delta_and_prior(),
    decode_get_request_body: _alone(st.builds(encode_get_request_body,
                                              st.integers(0, 2**64 - 1))),
    decode_add_request_body: _alone(st.builds(encode_add_request_body, elements_st,
                                              st.booleans())),
    decode_epochinc_body: _alone(st.builds(encode_epochinc_body,
                                           st.integers(0, 2**64 - 1))),
}


@pytest.mark.parametrize("decode", list(VALID), ids=lambda fn: fn.__name__)
@given(data=st.data())
def test_decoders_return_a_value_or_raise_frame_error(decode, data):
    valid, *rest = data.draw(VALID[decode])
    buf = data.draw(st.one_of(st.binary(max_size=96), damaged(st.just(valid))))
    try:
        decode(buf, *rest)
    except FrameError:
        pass


@pytest.mark.parametrize("decode", list(VALID), ids=lambda fn: fn.__name__)
@given(data=st.data())
def test_decoders_accept_what_the_encoders_produce(decode, data):
    decode(*data.draw(VALID[decode]))


@given(e=elements_st, primary=st.booleans())
def test_add_request_body_round_trip(e, primary):
    assert decode_add_request_body(encode_add_request_body(e, primary)) == (e, primary)


@given(e=elements_st, flag=st.one_of(
    st.just(b""), st.integers(2, 255).map(lambda b: bytes([b])),
    st.binary(min_size=2, max_size=4)))
def test_an_add_request_needs_exactly_one_flag_byte_of_0_or_1(e, flag):
    with pytest.raises(FrameError):
        decode_add_request_body(e.wire + flag)


@given(h=st.integers(0, 2**64 - 1), proposal=proposals_st)
def test_proposal_notice_round_trip(h, proposal):
    assert decode_inform(encode_inform(h, proposal)) == (h, proposal)


def test_proposal_notice_layout_and_its_digest_count():
    element = Element(b"p", ProcessId(1, ProcessKind.CLIENT), b"s")
    a, b = bytes(32), b"\xff" * 32
    notice = encode_inform(7, Proposal(frozenset([b, a]), frozenset([element])))
    assert notice == (b"P" + struct.pack(">QI", 7, 2) + a + b
                      + struct.pack(">I", 1) + element.wire)
    for ndigests in (3, 2**32 - 1):  # more than the frame holds
        with pytest.raises(FrameError):
            decode_inform(notice[:9] + struct.pack(">I", ndigests) + notice[13:])
    with pytest.raises(FrameError):
        encode_inform(7, Proposal(frozenset([b"short"])))


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


def _written_out(buf, prior):
    """``buf`` with the epochs it reuses from ``prior`` written out as
    segments and its base set to 0: the reply to a reader holding nothing.
    Bytes whose header or unstamped set does not parse are kept as they are."""
    try:
        epoch, base, ucount = struct.unpack_from(">QQI", buf, 0)
        _, end = decode_element_set(buf, ucount, 20)
    except (struct.error, ValueError, IndexError):
        return buf
    if base > min(epoch, len(prior)):
        return buf
    reused = b"".join(encode_epoch(es) for es in prior[:base])
    return struct.pack(">QQ", epoch, 0) + buf[16:end] + reused + buf[end:]


def _shared(a, b):
    """How many leading epoch sets ``a`` and ``b`` have in common."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


@given(old=st.lists(element_sets_st, max_size=3),
       new=st.lists(element_sets_st, max_size=3),
       shape=st.sampled_from(("growing", "diverging", "shorter")),
       unstamped=element_sets_st, data=st.data())
def test_prefix_aware_decode_equals_a_full_decode(old, new, shape, unstamped, data):
    """A reply decoded against the reader's prior equals the full decode of
    the same reply with the reused epochs written out; for a base within
    what the reader and the server share, that is the server's whole state."""
    prior = decode_get_state(_get_state(old))[1]
    sets = _reply_after(old, new, shape)
    base = data.draw(st.integers(0, _shared(old, sets)))
    valid = _get_state(sets, unstamped, base)
    assert (decode_get_state_after(valid, prior)
            == decode_get_state(_get_state(sets, unstamped))
            == (unstamped.union(*sets), tuple(sets), len(sets)))
    for buf in (valid, data.draw(damaged(st.just(valid))),
                data.draw(st.binary(max_size=96))):
        assert (_decoded(decode_get_state_after, buf, prior)
                == _decoded(decode_get_state, _written_out(buf, prior)))


def test_prefix_aware_decode_reuses_the_kept_epochs_only_when_claimed():
    a, b = (frozenset({Element(p, ProcessId(1, ProcessKind.CLIENT), b"s")})
            for p in (b"a", b"b"))
    prior = decode_get_state(_get_state([a]))[1]
    theset, grown, epoch = decode_get_state_after(_get_state([a, b], base=1), prior)
    assert grown[0] is prior[0] and grown == (a, b) and (theset, epoch) == (a | b, 2)
    # Base 0 claims nothing: every epoch is decoded afresh.
    fresh = decode_get_state_after(_get_state([a, b]), prior)[1]
    assert fresh == (a, b) and fresh[0] is not prior[0]
    # A base beyond the epochs the reader holds, or beyond the reply's own.
    for beyond in (_get_state([a, b], base=2), struct.pack(">QQI", 0, 1, 0)):
        with pytest.raises(FrameError):
            decode_get_state_after(beyond, prior)


@given(data=st.data())
def test_prefix_aware_decode_returns_a_value_or_raises_frame_error(data):
    old = data.draw(st.lists(element_sets_st, max_size=3))
    prior = decode_get_state(_get_state(old))[1]
    grown = st.builds(lambda new, unstamped, base: _get_state(old + new, unstamped,
                                                             base),
                      st.lists(element_sets_st, max_size=2), element_sets_st,
                      st.integers(0, len(old) + 1))
    buf = data.draw(st.one_of(st.binary(max_size=96), damaged(grown),
                              damaged(VALID[decode_get_state].map(lambda a: a[0]))))
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
    # tag, count, then the element's payload length, payload and author id
    author_kind_at = 1 + 4 + 4 + len(element.payload) + 4
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
    for phase in (INIT, SUPPLY):
        bound = _brb(phase, origin, b"payload")
        assert decode_brb(bound).payload == b"payload"
        unbound = encode_brb(BrbFrame(phase, origin,
                                      hashlib.sha256(b"other").digest(),
                                      b"payload"))
        with pytest.raises(FrameError):
            decode_brb(unbound)


@pytest.mark.parametrize("phase", PHASES)
def test_brb_frames_round_trip_in_every_phase(phase):
    origin = ProcessId(3, ProcessKind.CORRECT_SERVER)
    frame = _brb(phase, origin, b"payload")
    payload = None if phase in DIGEST_ONLY else b"payload"
    assert decode_brb(frame) == BrbFrame(phase, origin,
                                         hashlib.sha256(b"payload").digest(),
                                         payload)
    assert len(frame) == (39 if phase in DIGEST_ONLY else 39 + len(b"payload"))


@pytest.mark.parametrize("phase", DIGEST_ONLY)
def test_a_digest_only_frame_with_trailing_bytes_is_a_frame_error(phase):
    frame = _brb(phase, ProcessId(3, ProcessKind.CORRECT_SERVER), b"payload")
    for tail in (b"\x00", struct.pack(">I", 7) + b"payload"):
        with pytest.raises(FrameError):
            decode_brb(frame + tail)


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
