"""Units for the infra fault-injection layer and the healing it proves.

Covers the fault-plan schema (round trip + validation), injector
determinism, the RetryPolicy's seeded backoff, and the healing
regressions: a corrupt cache entry must be a quarantined miss (never an
exception), a torn ledger must raise a clear ``LedgerCorruptError``
naming the salvage command (never a raw ``JSONDecodeError``), and the
ledger journal's failure modes (torn tail dropped, any other bad line
corrupt, compaction fsynced).
"""

import hashlib
import json
import os
import stat

import pytest
from hypothesis import given, settings, strategies as st

from tests import _study_helpers as helpers
from repro.cli import main
from repro.metrics import MetricsRegistry
from repro.parallel import (
    QUARANTINE_DIRNAME,
    ResultsCache,
    cache_stats,
    config_fingerprint,
    verify_store,
)
from repro.parallel.cache import _INVALID, _read_verified
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultPoint,
    InjectedCrash,
    InjectedJobError,
    RetryPolicy,
    dump_fault_plan,
    load_fault_plan,
    random_fault_campaign,
)
from repro.resilience.salvage import (
    LedgerSalvageError,
    salvage_fields,
    salvage_study,
)
from repro.studies import (
    DONE,
    QUARANTINED,
    RUNNING,
    Job,
    JobEntry,
    LedgerCorruptError,
    LedgerMismatchError,
    Study,
    StudyLedger,
    run_study,
)
from repro.studies.ledger import _transition_line


def _study(values, fn=helpers.double, name="unit", **job_kwargs):
    jobs = tuple(
        Job(
            key=config_fingerprint("resilience", fn.__name__, v),
            fn=fn,
            args=(v,),
            label=f"v={v}",
            kind="unit",
            seed=v,
            **job_kwargs,
        )
        for v in values
    )
    return Study(name=name, jobs=jobs)


def _plan(*points, name="test", seed=0):
    return FaultPlan(name=name, seed=seed, points=tuple(points))


# ----------------------------------------------------------------------
# Fault-plan schema
# ----------------------------------------------------------------------
class TestFaultPlanSchema:
    def test_json_round_trip(self, tmp_path):
        plan = _plan(
            FaultPoint(seam="cache.put", mode="torn_write",
                       trigger_calls=(3, 1), torn_offset=8),
            FaultPoint(seam="job.fn", mode="error", probability=0.25,
                       max_fires=2, label="flaky"),
            seed=42,
        )
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ) == plan
        path = str(tmp_path / "plan.json")
        dump_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_trigger_calls_normalized_sorted(self):
        point = FaultPoint(seam="cache.get", mode="bit_flip",
                           trigger_calls=(5, 2, 9))
        assert point.trigger_calls == (2, 5, 9)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(seam="nope", mode="crash", trigger_calls=(1,)),
         "unknown seam"),
        (dict(seam="cache.get", mode="nope", trigger_calls=(1,)),
         "unknown mode"),
        (dict(seam="cache.get", mode="error", trigger_calls=(1,)),
         "not valid at seam"),
        (dict(seam="job.fn", mode="torn_write", trigger_calls=(1,)),
         "not valid at seam"),
        (dict(seam="job.fn", mode="error", probability=1.5),
         "probability"),
        (dict(seam="job.fn", mode="error"), "trigger_calls or probability"),
        (dict(seam="job.fn", mode="error", trigger_calls=(0,)), "1-based"),
        (dict(seam="job.fn", mode="error", trigger_calls=(1,),
              max_fires=0), "max_fires"),
    ])
    def test_invalid_points_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultPoint(**kwargs)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="needs a name"):
            FaultPlan(name="")
        with pytest.raises(ValueError, match="schema"):
            FaultPlan(name="x", schema_version=99)

    def test_random_campaign_deterministic(self):
        assert random_fault_campaign(21) == random_fault_campaign(21)
        assert random_fault_campaign(1) != random_fault_campaign(2)
        for seed in (1, 21, 42):
            plan = random_fault_campaign(seed)
            assert plan.points  # validated on construction
            assert all(p.mode != "hang" for p in plan.points)


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_trigger_calls_fire_exactly_there(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(2, 4))
        ))
        fired = []
        for call in range(1, 6):
            try:
                inj.pre_op("job.fn")
            except InjectedJobError:
                fired.append(call)
        assert fired == [2, 4]
        assert inj.calls["job.fn"] == 5
        assert inj.fire_count == 2

    def test_max_fires_bounds_probability_points(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", probability=1.0,
                       max_fires=3)
        ))
        fired = 0
        for _ in range(10):
            try:
                inj.pre_op("job.fn")
            except InjectedJobError:
                fired += 1
        assert fired == 3

    def test_probability_stream_is_deterministic(self):
        plan = _plan(
            FaultPoint(seam="cache.get", mode="bit_flip", probability=0.5),
            seed=7,
        )

        def pattern(salt):
            inj = FaultInjector(plan, salt=salt)
            return [inj.decide("cache.get") is not None
                    for _ in range(200)]

        assert pattern(0) == pattern(0)
        assert pattern(0) != pattern(1)  # salt gives fresh draws

    def test_crash_is_not_an_ordinary_exception(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="crash", trigger_calls=(1,))
        ))
        assert not issubclass(InjectedCrash, Exception)
        with pytest.raises(InjectedCrash):
            try:
                inj.pre_op("job.fn")
            except Exception:  # a job's handler must NOT absorb it
                pytest.fail("InjectedCrash was caught by except Exception")

    def test_oserror_modes_carry_errno(self):
        import errno

        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.put", mode="enospc", trigger_calls=(1,)),
            FaultPoint(seam="cache.put", mode="oserror", trigger_calls=(2,)),
        ))
        with pytest.raises(OSError) as err:
            inj.pre_op("cache.put")
        assert err.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as err:
            inj.pre_op("cache.put")
        assert err.value.errno == errno.EIO

    def test_torn_write_truncates(self, tmp_path):
        path = str(tmp_path / "f.json")
        with open(path, "w") as fh:
            fh.write("x" * 100)
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="torn_write",
                       trigger_calls=(1,), torn_offset=10)
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, path)
        assert os.path.getsize(path) == 10

    def test_bit_flip_changes_exactly_one_byte(self, tmp_path):
        path = str(tmp_path / "f.json")
        original = b'{"payload": [1, 2, 3]}'
        with open(path, "wb") as fh:
            fh.write(original)
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="bit_flip",
                       trigger_calls=(1,))
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, path)
        with open(path, "rb") as fh:
            flipped = fh.read()
        assert len(flipped) == len(original)
        assert sum(a != b for a, b in zip(original, flipped)) == 1

    def test_corrupt_missing_file_is_noop(self, tmp_path):
        inj = FaultInjector(_plan(
            FaultPoint(seam="cache.get", mode="bit_flip",
                       trigger_calls=(1,))
        ))
        point = inj.pre_op("cache.get")
        inj.corrupt(point, str(tmp_path / "absent.json"))  # no raise

    def test_summary_reports_fires(self):
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(1,),
                       label="first")
        ))
        with pytest.raises(InjectedJobError):
            inj.pre_op("job.fn")
        summary = inj.summary()
        assert summary["fires"] == [
            {"seam": "job.fn", "mode": "error", "call": 1, "label": "first"}
        ]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                             seed=7)
        again = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                            seed=7)
        for index in range(3):
            for attempt in (1, 2, 3):
                assert policy.delay_s(index, attempt) == \
                    again.delay_s(index, attempt)
        # Different seeds / indexes / attempts draw different jitter.
        other = RetryPolicy(max_attempts=4, backoff_s=0.5, jitter=0.5,
                            seed=8)
        assert policy.delay_s(0, 1) != other.delay_s(0, 1)
        assert policy.delay_s(0, 1) != policy.delay_s(1, 1)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff_s=1.0,
                             backoff_factor=2.0, max_backoff_s=5.0)
        assert policy.delay_s(0, 1) == 1.0
        assert policy.delay_s(0, 2) == 2.0
        assert policy.delay_s(0, 3) == 4.0
        assert policy.delay_s(0, 4) == 5.0  # capped

    def test_no_backoff_means_zero_delay(self):
        assert RetryPolicy(max_attempts=3).delay_s(0, 2) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(backoff_s=-1.0),
        dict(backoff_factor=0.5),
        dict(jitter=-0.1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Cache healing (satellite bugfix: corrupt entry => quarantined miss)
# ----------------------------------------------------------------------
class TestCacheHealing:
    def _cache_with_entry(self, tmp_path, payload=None):
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("heal", 1)
        cache.put(key, payload if payload is not None else {"v": 1})
        return cache, key, cache._path(key)

    def _quarantine_dir(self, cache):
        return os.path.join(cache.root, QUARANTINE_DIRNAME)

    def test_invalid_utf8_entry_is_quarantined_miss(self, tmp_path):
        """The pre-fix failing regression: a bit flip can leave the file
        invalid UTF-8, and ``get()`` used to raise UnicodeDecodeError
        instead of healing (only JSONDecodeError/OSError were caught)."""
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b'\xff\xfe{"v": 1}')
        assert cache.get(key) is None  # raised before the fix
        assert cache.quarantined == 1
        assert not os.path.exists(path)
        assert os.listdir(self._quarantine_dir(cache)) == [
            os.path.basename(path)
        ]

    def test_checksum_mismatch_is_quarantined_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path, {"v": 111})
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # Valid JSON, valid UTF-8 — only the checksum can catch this.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("111", "999"))
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        assert cache.get(key) is None
        assert cache.quarantined == 1
        # The healed slot accepts a fresh write + read.
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_raw_entry_is_quarantined_miss(self, tmp_path):
        """A document without the checksum envelope cannot be verified,
        so it is corrupt like any other entry."""
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("heal", 2)
        path = cache._path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"raw": True}, fh)
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.misses == 1
        assert cache.quarantined == 1
        assert not os.path.exists(path)

    def test_quarantine_counter_in_metrics_registry(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        cache.get(key)
        assert registry.counters["cache.quarantined"].value == 1

    def test_verify_store_sweeps_and_quarantines(self, tmp_path):
        root = str(tmp_path / "store")
        cache = ResultsCache(root)
        keys = [config_fingerprint("heal", n) for n in range(3)]
        for n, key in enumerate(keys):
            cache.put(key, {"n": n})
        # One raw (envelope-less) entry, one corrupted entry.
        raw_key = config_fingerprint("heal", "raw")
        raw_path = cache._path(raw_key)
        os.makedirs(os.path.dirname(raw_path), exist_ok=True)
        with open(raw_path, "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        with open(cache._path(keys[0]), "r+b") as fh:
            fh.truncate(12)
        summary = verify_store(root)
        assert summary == {"scanned": 4, "ok": 2, "quarantined": 2}
        stats = cache_stats(root)
        assert stats["quarantined"] == 2
        assert stats["entries"] == 2  # quarantine dir is not an entry

    def test_write_stats_records_quarantines(self, tmp_path):
        cache, key, path = self._cache_with_entry(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
        cache.get(key)
        cache.write_stats()
        stats = cache_stats(cache.root)
        assert stats["last_run"]["quarantined"] == 1


_ENVELOPE_KEYS = frozenset(("sha256", "payload"))


def _canonical_body(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _reference_read_verified(path: str):
    """The canonical check the single-read reader replaced: decode the
    whole file as text, parse it, re-serialize the payload and hash that.
    The single-read reader must never serve an entry this rejects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (ValueError, UnicodeDecodeError, OSError):
        # ValueError covers JSONDecodeError; UnicodeDecodeError is listed
        # explicitly because a bit-flipped byte can make the file invalid
        # UTF-8, which must quarantine rather than escape the handler.
        return _INVALID
    if not (isinstance(doc, dict) and set(doc) == _ENVELOPE_KEYS):
        return _INVALID
    digest = hashlib.sha256(
        _canonical_body(doc["payload"]).encode("utf-8")
    ).hexdigest()
    if digest != doc["sha256"]:
        return _INVALID
    return doc["payload"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12,
)

_MUTATIONS = ("none", "bit_flip", "truncate", "reserialize",
              "duplicate_sha256", "invalid_utf8", "bare")


def _mutate(data: bytes, payload, mutation: str, draw) -> bytes:
    """``data`` (an entry as ``put`` wrote it) damaged or rewritten one
    way; ``draw`` picks offsets and variants."""
    if mutation == "none":
        return data
    if mutation == "bit_flip":
        index = draw(st.integers(0, len(data) - 1))
        flipped = data[index] ^ (1 << draw(st.integers(0, 7)))
        return data[:index] + bytes([flipped]) + data[index + 1:]
    if mutation == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    doc = json.loads(data)
    if mutation == "reserialize":
        if draw(st.booleans()):
            doc = {"payload": doc["payload"], "sha256": doc["sha256"]}
        indent = draw(st.sampled_from([None, 0, 1, 2]))
        separators = draw(st.sampled_from([None, (",", ":"), (", ", ": ")]))
        return json.dumps(
            doc, indent=indent, separators=separators,
            ensure_ascii=draw(st.booleans()),
        ).encode("utf-8")
    if mutation == "duplicate_sha256":
        first = doc["sha256"]
        if draw(st.booleans()):
            first = first[::-1]  # the last copy wins in json.loads
        return ('{"sha256":"%s","sha256":"%s","payload":%s}' % (
            first, doc["sha256"], _canonical_body(doc["payload"]),
        )).encode("utf-8")
    if mutation == "invalid_utf8":
        index = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"]))
        return data[:index] + bad + data[index:]
    assert mutation == "bare"
    return json.dumps(payload).encode("utf-8")


class TestSingleReadVerifier:
    """The single-read reader serves every entry ``put`` wrote, equal to
    the canonical check, and never serves an entry that check rejects."""

    def test_never_serves_what_canonical_check_rejects(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("differential", 1)
        path = cache._path(key)

        @given(payload=_JSON, mutation=st.sampled_from(_MUTATIONS),
               data=st.data())
        @settings(max_examples=400, deadline=None)
        def check(payload, mutation, data):
            cache.put(key, payload)
            with open(path, "rb") as fh:
                written = fh.read()
            mutated = _mutate(written, payload, mutation, data.draw)
            with open(path, "wb") as fh:
                fh.write(mutated)
            got = _read_verified(path)
            want = _reference_read_verified(path)
            if mutation == "none":
                assert want is not _INVALID
                assert repr(got) == repr(want) == repr(payload)
            if got is not _INVALID:
                assert want is not _INVALID
                assert repr(got) == repr(want)

        check()

    def test_reserialized_envelope_is_quarantined(self, tmp_path):
        """Only ``put``'s exact layout is served; an envelope rewritten by
        hand costs one recompute."""
        cache = ResultsCache(str(tmp_path / "store"))
        key = config_fingerprint("differential", 3)
        cache.put(key, {"a": [1, 2.5, None]})
        path = cache._path(key)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        assert _reference_read_verified(path) == {"a": [1, 2.5, None]}
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_missing_entry_raises_in_both(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(FileNotFoundError):
            _read_verified(path)
        with pytest.raises(FileNotFoundError):
            _reference_read_verified(path)

    def test_store_root_is_a_file(self, tmp_path):
        """Reading under a root that is a regular file raises
        NotADirectoryError, which is an invalid entry (quarantined),
        not a miss and not an escape."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultsCache(str(blocker))
        key = config_fingerprint("differential", 2)
        path = cache._path(key)
        assert _read_verified(path) is _INVALID
        assert _reference_read_verified(path) is _INVALID
        assert cache.get(key) is None
        assert cache.quarantined == 1 and cache.misses == 1
        assert blocker.read_text() == "occupied"


# ----------------------------------------------------------------------
# Ledger corruption (satellite bugfix: torn load => LedgerCorruptError)
# ----------------------------------------------------------------------
class TestLedgerCorruption:
    def _saved_ledger(self, tmp_path, values=(1, 2, 3)):
        study = _study(list(values))
        path = str(tmp_path / "study.ledger.json")
        spec = {"kind": "montecarlo", "name": "salvage-me",
                "seeds": list(values), "hours": 0.02}
        ledger = StudyLedger.for_study(study, path=path, spec=spec,
                                       cache_dir="store")
        ledger.save()
        return study, path, spec

    def test_torn_ledger_raises_clear_error(self, tmp_path):
        """Pre-fix, a torn flush surfaced as a raw JSONDecodeError with
        no hint that the study was recoverable."""
        _, path, _ = self._saved_ledger(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(int(os.path.getsize(path) * 0.6))
        with pytest.raises(LedgerCorruptError, match="--salvage"):
            StudyLedger.load(path)

    def test_invalid_utf8_ledger_raises_clear_error(self, tmp_path):
        _, path, _ = self._saved_ledger(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe not a ledger")
        with pytest.raises(LedgerCorruptError):
            StudyLedger.load(path)

    def test_non_object_ledger_raises_clear_error(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]")
        with pytest.raises(LedgerCorruptError):
            StudyLedger.load(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StudyLedger.load(str(tmp_path / "absent.json"))

    def test_salvage_recovers_embedded_spec(self, tmp_path):
        _, path, spec = self._saved_ledger(tmp_path)
        with open(path, "r+b") as fh:
            # Tear inside the jobs map: identity fields survive.
            fh.truncate(int(os.path.getsize(path) * 0.6))
        recovered = salvage_study(path)
        assert recovered["spec"] == spec
        assert recovered["study"] == "unit"
        assert recovered["cache_dir"] == "store"

    def test_salvage_fields_partial_text(self):
        text = '{\n "study": "x",\n "fingerprint": "abc",\n "spec": {"k": 1'
        fields = salvage_fields(text)
        assert fields["study"] == "x" and fields["fingerprint"] == "abc"
        assert "spec" not in fields  # the spec value itself is torn

    def test_salvage_without_spec_raises(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"study": "x", "jobs"')
        with pytest.raises(LedgerSalvageError, match="did not survive"):
            salvage_study(path)


class TestLedgerJournal:
    """The append-only journal: a torn tail is dropped, every other bad
    line is corruption, and compaction is durable."""

    def _journal(self, tmp_path, values=(1, 2)):
        """A snapshot line plus three appended transitions."""
        study = _study(list(values))
        path = str(tmp_path / "study.ledger.json")
        ledger = StudyLedger.for_study(study, path=path)
        first, second = (job.key for job in study.jobs[:2])
        ledger.mark(first, RUNNING)  # no file yet: writes the snapshot
        ledger.mark(first, DONE, source="executed", wall_s=0.5)
        ledger.mark(second, RUNNING)
        ledger.mark(second, DONE, source="executed", wall_s=0.25)
        return study, path

    def _lines(self, path):
        with open(path, "rb") as fh:
            return fh.read().split(b"\n")

    def _write(self, path, lines):
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))

    def test_replay_restores_every_transition(self, tmp_path):
        study, path = self._journal(tmp_path)
        assert len(self._lines(path)) == 5  # snapshot + 3 lines + ""
        loaded = StudyLedger.load(path)
        assert loaded.complete
        assert loaded.entries[study.jobs[1].key].wall_s == 0.25
        assert loaded.entries[study.jobs[1].key].attempts == 1

    def test_torn_last_line_is_dropped(self, tmp_path):
        study, path = self._journal(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)
        loaded = StudyLedger.load(path)
        assert loaded.entries[study.jobs[1].key].status == RUNNING
        # The next write compacts instead of appending after the tear.
        loaded.mark(study.jobs[1].key, DONE)
        assert len(self._lines(path)) == 2
        assert StudyLedger.load(path).complete

    def test_crc_failing_middle_line_raises(self, tmp_path):
        _, path = self._journal(tmp_path)
        lines = self._lines(path)
        lines[1] = lines[1].replace(b'"wall_s":0.5', b'"wall_s":0.7')
        self._write(path, lines)
        with pytest.raises(LedgerCorruptError, match="line 2.*--salvage"):
            StudyLedger.load(path)

    def test_crc_failing_last_line_is_dropped(self, tmp_path):
        study, path = self._journal(tmp_path)
        lines = self._lines(path)
        lines[3] = lines[3].replace(b'"wall_s":0.25', b'"wall_s":0.75')
        self._write(path, lines)
        loaded = StudyLedger.load(path)
        assert loaded.entries[study.jobs[1].key].status == RUNNING

    def test_transition_for_unknown_job_raises(self, tmp_path):
        _, path = self._journal(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_transition_line(JobEntry(key="not-in-the-header",
                                               status=DONE)))
        with pytest.raises(LedgerCorruptError, match="unknown job"):
            StudyLedger.load(path)

    def test_transition_with_unknown_status_raises(self, tmp_path):
        study, path = self._journal(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_transition_line(JobEntry(key=study.jobs[0].key,
                                               status="exploded")))
        with pytest.raises(LedgerCorruptError, match="unknown status"):
            StudyLedger.load(path)

    def test_schema_1_ledger_is_a_mismatch(self, tmp_path, capsys):
        path = str(tmp_path / "old.ledger.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "study": "unit",
                       "fingerprint": "f" * 64, "order": [], "jobs": {}},
                      fh, indent=1)
        with pytest.raises(LedgerMismatchError, match="study run SPEC"):
            StudyLedger.load(path)
        assert main(["study", "status", path]) == 2
        assert "result store" in capsys.readouterr().err

    def test_compaction_fsyncs_file_and_directory(self, tmp_path,
                                                  monkeypatch):
        """Pre-fix, save() renamed an unsynced tmp file over the ledger
        and never synced the directory: a power loss could leave an empty
        ledger with its embedded spec gone."""
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                          else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        study = _study([1, 2])
        ledger = StudyLedger.for_study(study,
                                       path=str(tmp_path / "l.json"))
        ledger.save()
        assert synced == ["file", "dir"]
        ledger.save()
        assert synced == ["file", "dir"] * 2
        ledger.mark(study.jobs[0].key, DONE)  # an append: no fsync
        assert len(synced) == 4

        synced.clear()
        in_memory = StudyLedger.for_study(study)
        in_memory.save()
        in_memory.mark(study.jobs[0].key, DONE)
        assert synced == []

    def test_torn_tail_of_killed_study_resumes(self, tmp_path, capsys):
        """A study stopped by max_jobs, resumed, and killed again while
        journaling: the torn last line costs nothing but a store lookup."""
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps({
            "kind": "montecarlo", "name": "torn-tail",
            "seeds": [1, 21, 42], "hours": 0.02,
        }))
        cache_dir = str(tmp_path / "store")
        ledger = str(tmp_path / "study.ledger.json")
        assert main(["study", "run", str(spec), "--cache-dir", cache_dir,
                     "--max-jobs", "1"]) == 3
        plan = tmp_path / "kill.json"
        dump_fault_plan(_plan(FaultPoint(seam="job.fn", mode="crash",
                                         trigger_calls=(2,))), str(plan))
        assert main(["study", "resume", ledger,
                     "--fault-plan", str(plan)]) == 4
        # The killed resume appended job 2's transitions and job 3's
        # RUNNING mark after the snapshot; tear inside that last line.
        with open(ledger, "r+b") as fh:
            fh.truncate(os.path.getsize(ledger) - 10)
        capsys.readouterr()

        assert main(["study", "status", ledger]) == 1
        out = capsys.readouterr().out
        assert "done=2" in out and "pending=1" in out

        assert main(["study", "resume", ledger, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["cached"] == 2 and payload["executed"] == 1
        assert len(self._lines(ledger)) == 2  # compacted to one snapshot


# ----------------------------------------------------------------------
# Quarantined jobs (on_error="quarantine")
# ----------------------------------------------------------------------
class TestJobQuarantine:
    def test_poisoned_job_parks_and_study_finishes(self, tmp_path):
        registry = MetricsRegistry()
        ledger_path = str(tmp_path / "ledger.json")
        study = _study([1, 2], fn=helpers.boom, name="poison")
        good = _study([3], name="poison").jobs
        study = Study(name="poison", jobs=study.jobs + good)
        ledger = StudyLedger.for_study(study, path=ledger_path)
        run = run_study(study, ledger=ledger, metrics=registry,
                        on_error="quarantine",
                        retry_policy=RetryPolicy(max_attempts=2))
        # The good job finished; the poisoned ones are parked, with the
        # deterministic error retried once and recorded.
        assert len(run.results) == 1 and len(run.quarantined) == 2
        assert not run.complete
        assert run.retries == 2  # one retry per poisoned job
        on_disk = StudyLedger.load(ledger_path)
        entries = [on_disk.entries[k] for k in run.quarantined]
        assert all(e.status == QUARANTINED for e in entries)
        assert all("boom" in e.error for e in entries)
        assert registry.counters["study.jobs_quarantined"].value == 2
        assert registry.counters["pool.retries"].value == 2
        # Quarantined jobs are unfinished: a resume re-submits them.
        assert set(on_disk.unfinished()) == set(run.quarantined)

    def test_quarantine_never_reports_success(self):
        study = _study([1], fn=helpers.boom)
        run = run_study(study, on_error="quarantine")
        assert not run.complete
        with pytest.raises(KeyError):
            run.collected()

    def test_injected_flaky_job_heals_on_retry(self):
        """A probabilistic job.fn fault that misses on the retry: the
        study completes with the exact same results as a clean run."""
        study = _study([5, 6])
        clean = run_study(study).collected()
        inj = FaultInjector(_plan(
            FaultPoint(seam="job.fn", mode="error", trigger_calls=(1,))
        ))
        run = run_study(study, faults=inj,
                        retry_policy=RetryPolicy(max_attempts=2))
        assert run.complete
        assert run.collected() == clean
        assert run.retries == 1
