"""The wire contract against an independent reference parser.

:class:`~repro.runtime.fastingest.WireIngest` is the only code that
enforces the contract, and it memoizes: repeated wire suffixes skip the
JSON parse, repeated user agents skip the UA parser.  ``_Oracle`` below
restates the contract plainly — ``json.loads``, then the checks in
order (oversized, malformed, session id, arity, range, globals, UA),
then the dedup window — with no memo and no fast path.  A warm engine
(its memos filled by earlier examples) must agree with it on every
reject reason, every admitted field, every quarantine entry and every
counter, for both :meth:`~WireIngest.ingest` and
:meth:`~WireIngest.ingest_many`.
"""

from __future__ import annotations

import functools
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import UserAgentError, Vendor, parse_user_agent
from repro.fingerprint.features import N_FEATURES
from repro.fingerprint.script import (
    MAX_PAYLOAD_BYTES,
    CollectionScript,
    FingerprintPayload,
)
from repro.runtime.fastingest import WireIngest
from repro.service.ingest import (
    MAX_FEATURE_VALUE,
    MAX_SESSION_ID_LENGTH,
    MAX_SUSPICIOUS_GLOBALS,
    QuarantineLog,
    RejectReason,
)
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import EventType, SessionEvent


class _Oracle:
    """The wire contract, restated without memos or fast paths."""

    def __init__(self, dedup_window: int = 100_000) -> None:
        self.window = dedup_window
        self.seen: deque = deque()
        self.entries: list = []
        self.accepted = 0
        self.requests = 0
        self.rejected = 0

    def ingest(self, wire: bytes):
        self.requests += 1
        reason, result = self._static(wire)
        if reason is None and self.window:
            session_id = result[0]
            if session_id in self.seen:
                reason, result = RejectReason.DUPLICATE, session_id
            else:
                self.seen.append(session_id)
                if len(self.seen) > self.window:
                    self.seen.popleft()
        if reason is None:
            self.accepted += 1
            return None, result
        self.rejected += 1
        self.entries.append((reason, result))
        return reason, None

    @staticmethod
    def _static(wire: bytes):
        if len(wire) > MAX_PAYLOAD_BYTES:
            return (
                RejectReason.OVERSIZED,
                f"{len(wire)} bytes > {MAX_PAYLOAD_BYTES}",
            )
        try:
            body = json.loads(wire.decode("utf-8"))
            session_id = str(body["sid"])
            user_agent = str(body["ua"])
            values = tuple(int(v) for v in body["f"])
            globs = tuple(str(g) for g in body.get("g", ()))
        except (
            ValueError, KeyError, TypeError, OverflowError, RecursionError
        ) as exc:
            return RejectReason.MALFORMED, str(exc)[:120]
        if not session_id or len(session_id) > MAX_SESSION_ID_LENGTH:
            return RejectReason.BAD_SESSION_ID, session_id[:80]
        if len(values) != N_FEATURES:
            return (
                RejectReason.WRONG_ARITY,
                f"{len(values)} values, expected {N_FEATURES}",
            )
        if any(v < 0 or v > MAX_FEATURE_VALUE for v in values):
            return RejectReason.VALUE_RANGE, "feature out of range"
        if len(globs) > MAX_SUSPICIOUS_GLOBALS:
            return (
                RejectReason.GLOBALS_OVERFLOW,
                f"{len(globs)} suspicious globals",
            )
        try:
            ua_key = parse_user_agent(user_agent).key()
        except UserAgentError:
            return RejectReason.UNPARSEABLE_UA, user_agent[:80]
        return None, (session_id, user_agent, values, globs, ua_key)


# ----------------------------------------------------------------------
# mutated valid wires

_PROFILES = (
    (Vendor.CHROME, 112),
    (Vendor.FIREFOX, 115),
    (Vendor.EDGE, 110),
    (Vendor.EDGE, 18),
)


@functools.lru_cache(maxsize=None)
def _base(index: int) -> FingerprintPayload:
    vendor, version = _PROFILES[index]
    profile = BrowserProfile(vendor, version)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), "base"
    )


def _canonical(session_id: str, index: int = 0) -> bytes:
    """A genuine wire, byte for byte what the collection script sends."""
    base = _base(index)
    return FingerprintPayload(
        session_id, base.user_agent, base.values, 0.0
    ).to_wire()


def _with_feature(token: bytes, session_id: str = "hostile") -> bytes:
    """A genuine wire whose fourth feature is the raw JSON ``token``."""
    values = [str(v).encode() for v in _base(0).values]
    values[3] = token
    return (
        b'{"sid":"%s","ua":"%s","f":[%s]}'
        % (session_id.encode(), _base(0).user_agent.encode(), b",".join(values))
    )


def _dumps(value, ascii_only: bool = True) -> bytes:
    return json.dumps(
        value, ensure_ascii=ascii_only, separators=(",", ":")
    ).encode("utf-8")


_HOSTILE_NUMBERS = (
    b"1e999", b"-1e999", b"Infinity", b"-Infinity", b"NaN", b"1.5",
    b'"7"', b"true", b"null", b"-1", b"10001", b"10000", b"0",
    b"123456789012345678901234567890",
)

# A small alphabet so that session ids repeat and the dedup window bites.
_sid_text = st.one_of(
    st.text(alphabet="ab-01", min_size=1, max_size=4),
    st.text(max_size=70),
    st.sampled_from(["", "x" * MAX_SESSION_ID_LENGTH, "x" * 65, 'a"b', "a\\b"]),
)


@st.composite
def _sid_json(draw) -> bytes:
    """A session id value: JSON text (escaped or raw UTF-8) or raw bytes."""
    kind = draw(st.sampled_from(["ascii", "utf8", "bytes", "number"]))
    if kind == "bytes":
        return b'"' + draw(st.binary(max_size=8)) + b'"'
    if kind == "number":
        return draw(st.sampled_from([b"123", b"1e999", b"null", b"[]"]))
    return _dumps(draw(_sid_text), ascii_only=kind == "ascii")


@st.composite
def _mutated_wire(draw) -> bytes:
    base = _base(draw(st.integers(0, len(_PROFILES) - 1)))
    sid = draw(_sid_json())
    ua = _dumps(base.user_agent)
    ua_kind = draw(st.sampled_from(["keep"] * 6 + ["curl", "cut"]))
    if ua_kind == "curl":
        ua = _dumps("curl/8.0")
    elif ua_kind == "cut":
        ua = _dumps(base.user_agent[: draw(st.integers(0, 60))])
    tokens = [str(v).encode() for v in base.values]
    feature_kind = draw(st.sampled_from(["keep"] * 4 + ["token", "drop", "add"]))
    if feature_kind == "token":
        tokens[draw(st.integers(0, N_FEATURES - 1))] = draw(
            st.sampled_from(_HOSTILE_NUMBERS)
        )
    elif feature_kind == "drop":
        tokens.pop()
    elif feature_kind == "add":
        tokens.append(b"1")
    pairs = [(b"sid", sid), (b"ua", ua), (b"f", b"[" + b",".join(tokens) + b"]")]
    globs_kind = draw(
        st.sampled_from(["none"] * 5 + ["list", "null", "string", "huge"])
    )
    if globs_kind == "list":
        count = draw(st.integers(0, MAX_SUSPICIOUS_GLOBALS + 4))
        pairs.append((b"g", _dumps([f"g{i}" for i in range(count)])))
    elif globs_kind == "null":
        pairs.append((b"g", b"null"))
    elif globs_kind == "string":
        pairs.append((b"g", b'"abc"'))
    elif globs_kind == "huge":
        pairs.append((b"g", _dumps(["x" * MAX_PAYLOAD_BYTES])))
    if draw(st.integers(0, 5)) == 0:
        pairs = draw(st.permutations(pairs))
    if draw(st.integers(0, 5)) == 0:
        # A second "sid" key: json.loads keeps the later one, so a
        # repeat of the first value must not let its tail be memoized.
        position = draw(st.integers(0, len(pairs)))
        second = draw(st.one_of(st.just(sid), _sid_json()))
        pairs.insert(position, (b"sid", second))
    wire = b"{" + b",".join(b'"%s":%s' % pair for pair in pairs) + b"}"
    if draw(st.integers(0, 5)) == 0:
        wire = wire[: draw(st.integers(0, len(wire)))]
    return wire


# Genuine wires under fresh and repeated ids: they fill the suffix memo
# that the mutated wires' sids then hit.
_genuine_wire = st.builds(
    _canonical,
    st.text(alphabet="ab-01", min_size=1, max_size=5),
    st.integers(0, len(_PROFILES) - 1),
)


def _resid(wire: bytes, sid: bytes) -> bytes:
    """``wire`` under another leading session id, its tail untouched."""
    prefix = b'{"sid":"'
    quote = wire.find(b'"', len(prefix))
    if not wire.startswith(prefix) or quote < 0:
        return wire
    return prefix + sid + wire[quote:]


# A mutated wire, then the same bytes behind a different sid: the second
# one probes the suffix memo with whatever the first one left in it.
_wire_pair = st.builds(
    lambda wire, sid: [wire, _resid(wire, sid)],
    _mutated_wire(),
    st.one_of(st.binary(max_size=6), st.sampled_from([b"a", b"x" * 65, b""])),
)
_batch = st.lists(
    st.one_of(
        _genuine_wire.map(lambda wire: [wire]),
        _mutated_wire().map(lambda wire: [wire]),
        _wire_pair,
    ),
    min_size=1,
    max_size=5,
).map(lambda groups: [wire for group in groups for wire in group])


def _pair(outcome):
    """An ``ingest_many`` outcome in ``ingest``'s ``(reason, fields)`` shape."""
    if isinstance(outcome, tuple):
        return None, outcome
    return outcome, None


def _counters(engine: WireIngest):
    return engine.accepted_count, engine.requests_total, engine.rejected_count


@pytest.fixture(scope="module")
def warm():
    """One engine per entry point and the oracle, shared across examples."""
    capacity = 1_000_000  # keep every entry, so whole logs compare
    return (
        WireIngest(quarantine=QuarantineLog(capacity=capacity)),
        WireIngest(quarantine=QuarantineLog(capacity=capacity)),
        _Oracle(),
    )


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(batch=_batch)
    def test_warm_engine_matches_the_oracle(self, warm, batch):
        one, many, oracle = warm
        expected = [oracle.ingest(wire) for wire in batch]
        assert [one.ingest(wire) for wire in batch] == expected
        assert [_pair(o) for o in many.ingest_many(batch)] == expected
        assert one.quarantine.entries() == oracle.entries
        assert many.quarantine.entries() == oracle.entries
        counters = (oracle.accepted, oracle.requests, oracle.rejected)
        assert _counters(one) == _counters(many) == counters

    def test_suffix_memo_hits_agree_with_the_oracle(self):
        """Same bytes after the sid, every kind of sid in front."""
        engine, oracle = WireIngest(), _Oracle()
        tail = _canonical("seed")[len(b'{"sid":"seed'):]
        sids = [
            b"seed", b"fresh", b"", b"x" * 65, b"\xff\xfe", b"caf\xc3\xa9",
            b"a\\u0041", b"a\\\"b", b"tab\x09", b"fresh",
        ]
        # A tail carrying a second "sid" equal to the first one parses
        # to that id; behind another leading id it still must.
        doubled = tail[:-1] + b',"sid":"twin"}'
        wires = [b'{"sid":"' + sid + tail for sid in sids] + [
            b'{"sid":"twin' + doubled,
            b'{"sid":"other' + doubled,
        ]
        for wire in wires:
            assert engine.ingest(wire) == oracle.ingest(wire), wire
        assert engine.quarantine.entries() == oracle.entries
        assert _counters(engine) == (
            oracle.accepted, oracle.requests, oracle.rejected
        )


# ----------------------------------------------------------------------
# numbers that overflow int(), and nesting that overflows the stack


class TestOverflowingWires:
    @pytest.mark.parametrize(
        "token", [b"1e999", b"-1e999", b"Infinity", b"-Infinity"]
    )
    def test_ingest_rejects_as_malformed(self, token):
        engine = WireIngest()
        assert engine.ingest(_with_feature(token)) == (
            RejectReason.MALFORMED, None
        )
        assert engine.quarantine.entries() == [
            (RejectReason.MALFORMED, "cannot convert float infinity to integer")
        ]
        assert _counters(engine) == (0, 1, 1)

    def test_ingest_many_rejects_only_the_overflowing_wire(self):
        engine = WireIngest()
        outcomes = engine.ingest_many(
            [_canonical("ok-1"), _with_feature(b"1e999"), _canonical("ok-2")]
        )
        assert outcomes[1] is RejectReason.MALFORMED
        assert [o[0] for o in (outcomes[0], outcomes[2])] == ["ok-1", "ok-2"]
        assert _counters(engine) == (2, 3, 1)

    def test_deep_nesting_is_malformed(self):
        wire = b"[" * MAX_PAYLOAD_BYTES
        assert WireIngest().ingest(wire)[0] is RejectReason.MALFORMED
        assert WireIngest().ingest_many([wire]) == [RejectReason.MALFORMED]

    def test_payload_and_event_parsers_raise_value_error(self):
        with pytest.raises(ValueError):
            FingerprintPayload.from_wire(_with_feature(b"1e999"))
        event = _event("ev-1", seq=1)
        with pytest.raises(ValueError):
            SessionEvent.from_wire(event.replace(b'"seq":1', b'"seq":1e999'))
        with pytest.raises(ValueError):
            SessionEvent.from_wire(event.replace(b'"f":[', b'"f":[Infinity,'))

    def test_one_overflowing_event_leaves_its_batch_intact(self, trained):
        wires = [_event(f"batch-{i}", seq=0) for i in range(4)]
        wires.insert(2, wires[0].replace(b'"seq":0', b'"seq":1e999'))
        batched = SessionScoringService(ScoringService(trained), ttl_seconds=1e9)
        one_by_one = SessionScoringService(
            ScoringService(trained), ttl_seconds=1e9
        )
        observations = batched.observe_many(wires)
        assert observations[2].verdict.reject_reason.startswith(
            "malformed_event:"
        )
        expected = [one_by_one.observe_wire(w).to_dict() for w in wires]
        assert [o.to_dict() for o in observations] == expected


def _event(session_id: str, seq: int, index: int = 0) -> bytes:
    base = _base(index)
    return SessionEvent(
        session_id=session_id,
        event_type=EventType.PAGE_LOAD,
        seq=seq,
        timestamp=1000.0,
        user_agent=base.user_agent,
        values=base.values,
    ).to_wire()
