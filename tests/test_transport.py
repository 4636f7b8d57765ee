"""Shared-memory transport suite: frames, parity, and chaos recovery.

Three layers of coverage for DESIGN.md §17:

* frame mechanics — write/read roundtrips, the digest's identity with
  the disk cache's canonical form, remap-on-growth, and every corruption
  class the reader must refuse;
* transport parity — the same wave under ``pickle`` and ``shm`` (serial
  and pooled) is byte-identical via :func:`repro.sim.golden.
  result_digest`, and a cache written under one transport hits under
  the other;
* chaos convergence — workers killed mid-frame-write and frames
  truncated in transit are absorbed by the retry policy and the wave
  still converges to clean-serial digests.
"""

import pytest

from repro.common.config import paper_single_core
from repro.common.errors import InvalidValueError
from repro.exec import Executor, ListReducer, ResultCache, RetryPolicy, RunSpec
from repro.exec.cache import payload_digest
from repro.exec.chaos import (
    ACTION_FRAME_CORRUPT,
    ACTION_FRAME_KILL,
    ChaosPlan,
)
from repro.exec.executor import execute_spec
from repro.exec.transport import (
    FRAME_MAGIC,
    HEADER_SIZE,
    FrameCorruptionError,
    FrameHandle,
    FrameReader,
    FrameWriter,
    encode_result,
    resolve_transport,
)
from repro.sim.golden import result_digest

SCALE = 128
CONFIG = paper_single_core(scale=SCALE)
PROGRAMS = ("zeusmp", "lbm", "mcf", "libquantum")
POLICIES = ("pom", "mdm")


def all_specs() -> list[RunSpec]:
    return [
        RunSpec(
            kind="single",
            programs=(program,),
            policy=policy,
            config=CONFIG,
            requests=400,
            seed=0,
            trace_scale=SCALE,
        )
        for program in PROGRAMS
        for policy in POLICIES
    ]


@pytest.fixture(scope="module")
def one_result():
    spec = all_specs()[0]
    return spec, execute_spec(spec)


def strict_digests(executor: Executor, specs: list[RunSpec]) -> dict:
    """cache key -> result digest of one wave folded through the
    materializing reducer; raises SweepFailure if any spec failed."""
    wave = ListReducer()
    executor.run_wave(specs, wave)
    return {
        key: result_digest(result)
        for key, result in wave.raise_on_failure().items()
    }


@pytest.fixture(scope="module")
def clean_digests():
    return strict_digests(Executor(jobs=1, transport="pickle"), all_specs())


class TestResolveTransport:
    def test_auto_is_pickle_serial(self):
        assert resolve_transport("auto", jobs=1) == "pickle"

    def test_auto_is_shm_pooled(self):
        assert resolve_transport("auto", jobs=4) == "shm"

    @pytest.mark.parametrize("name", ["pickle", "shm"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_explicit_names_resolve_to_themselves(self, name, jobs):
        assert resolve_transport(name, jobs) == name

    def test_unknown_transport_rejected(self):
        with pytest.raises(InvalidValueError):
            resolve_transport("carrier-pigeon", jobs=1)

    def test_executor_validates_transport_eagerly(self):
        with pytest.raises(InvalidValueError):
            Executor(transport="bogus")


class TestFrameMechanics:
    def test_roundtrip(self, tmp_path, one_result):
        spec, result = one_result
        writer = FrameWriter(tmp_path)
        handle = writer.write(spec.cache_key(), encode_result(result), 1.5)
        writer.close()
        reader = FrameReader(tmp_path)
        restored, elapsed = reader.read(handle)
        reader.close()
        assert restored.to_dict() == result.to_dict()
        assert elapsed == 1.5

    def test_frame_digest_equals_cache_digest(self, one_result):
        # The transport and cache integrity stamps hash the same
        # canonical serialization — the contracts cannot drift apart.
        _, result = one_result
        import hashlib

        frame_digest = hashlib.sha256(encode_result(result)).hexdigest()
        assert frame_digest == payload_digest(result.to_dict())

    def test_remap_on_growth(self, tmp_path, one_result):
        # The reader maps a segment once, then remaps only when a later
        # handle points past the mapped size (concurrent appends).
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        first = writer.write(spec.cache_key(), payload)
        reader = FrameReader(tmp_path)
        assert reader.read(first)[0].to_dict() == result.to_dict()
        second = writer.write(spec.cache_key(), payload)
        assert second.offset == first.offset + HEADER_SIZE + len(payload)
        assert reader.read(second)[0].to_dict() == result.to_dict()
        writer.close()
        reader.close()

    def test_truncated_payload_rejected(self, tmp_path, one_result):
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        handle = writer.write(
            spec.cache_key(), payload, keep=HEADER_SIZE + len(payload) - 7
        )
        writer.close()
        with pytest.raises(FrameCorruptionError):
            FrameReader(tmp_path).read(handle)

    def test_half_written_frame_rejected(self, tmp_path, one_result):
        # A worker killed mid-write leaves half a frame: the segment is
        # shorter than the handle claims.
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        handle = writer.write(
            spec.cache_key(), payload, keep=HEADER_SIZE + len(payload) // 2
        )
        writer.close()
        with pytest.raises(FrameCorruptionError):
            FrameReader(tmp_path).read(handle)

    def test_wrong_offset_rejected(self, tmp_path, one_result):
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        writer.write(spec.cache_key(), payload)
        good = writer.write(spec.cache_key(), payload)
        writer.close()
        skewed = FrameHandle(
            segment=good.segment,
            offset=good.offset - 1,
            length=good.length,
            sha256=good.sha256,
            key=good.key,
            elapsed=good.elapsed,
        )
        with pytest.raises(FrameCorruptionError):
            FrameReader(tmp_path).read(skewed)

    def test_flipped_payload_byte_rejected(self, tmp_path, one_result):
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        handle = writer.write(spec.cache_key(), payload)
        writer.close()
        path = tmp_path / handle.segment
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FrameCorruptionError):
            FrameReader(tmp_path).read(handle)

    def test_missing_segment_rejected(self, tmp_path, one_result):
        spec, result = one_result
        handle = FrameHandle(
            segment="frames-0.bin",
            offset=0,
            length=10,
            sha256="0" * 64,
            key=spec.cache_key(),
            elapsed=0.0,
        )
        with pytest.raises(FrameCorruptionError):
            FrameReader(tmp_path).read(handle)

    def test_header_layout(self, tmp_path, one_result):
        spec, result = one_result
        payload = encode_result(result)
        writer = FrameWriter(tmp_path)
        handle = writer.write(spec.cache_key(), payload)
        writer.close()
        raw = (tmp_path / handle.segment).read_bytes()
        assert raw[:4] == FRAME_MAGIC
        assert raw[5:69] == spec.cache_key().encode("ascii")
        assert int.from_bytes(raw[69:77], "big") == len(payload)
        assert len(raw) == HEADER_SIZE + len(payload)

    def test_bad_key_length_rejected(self, tmp_path):
        writer = FrameWriter(tmp_path)
        with pytest.raises(InvalidValueError):
            writer.write("short-key", b"{}")
        writer.close()


class TestTransportParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shm_matches_pickle(self, jobs, clean_digests):
        specs = all_specs()
        executor = Executor(jobs=jobs, transport="shm")
        digests = strict_digests(executor, specs)
        assert executor.executed == len(specs)
        assert digests == clean_digests

    def test_cache_transfers_across_transports(self, tmp_path, clean_digests):
        # A cache populated under shm must hit under pickle (and vice
        # versa): transport is an execution detail, never a result
        # detail.
        specs = all_specs()
        cold = Executor(jobs=2, transport="shm", cache=ResultCache(tmp_path))
        strict_digests(cold, specs)
        assert cold.executed == len(specs)
        warm = Executor(
            jobs=1, transport="pickle", cache=ResultCache(tmp_path)
        )
        digests = strict_digests(warm, specs)
        assert warm.executed == 0
        assert digests == clean_digests

    def test_streaming_reducer_matches_materialized(self, clean_digests):
        specs = all_specs()
        reducer = ListReducer()
        failures = Executor(jobs=2, transport="shm").run_wave(specs, reducer)
        # The wave returns only its failures; the reducer holds results.
        assert failures == []
        assert {
            key: result_digest(result)
            for key, result in reducer.by_key.items()
        } == clean_digests


def find_frame_plan(keys: list[str], kind: str) -> ChaosPlan:
    """A seeded plan injecting ``kind`` into some (not all) keys."""
    rates = {
        ACTION_FRAME_KILL: dict(frame_kill_rate=0.3),
        ACTION_FRAME_CORRUPT: dict(frame_corrupt_rate=0.3),
    }[kind]
    for seed in range(500):
        plan = ChaosPlan(seed=seed, **rates)
        victims = plan.frame_victims(keys)
        if victims and len(victims) < len(keys):
            return plan
    raise AssertionError(f"no seed yields a proper subset of {kind} victims")


class TestFrameChaos:
    @pytest.mark.parametrize("kind", [ACTION_FRAME_KILL, ACTION_FRAME_CORRUPT])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_frame_faults_recover_byte_identically(
        self, kind, jobs, clean_digests
    ):
        # A worker lost mid-frame-write (the handle never arrives) and a
        # frame truncated in transit (the handle arrives but the digest
        # check refuses the bytes) are both transient transport losses:
        # the retry policy re-attempts them and the wave converges to
        # clean-serial digests.  Chaos injects attempt 1 only, so the
        # recovery is deterministic.
        specs = all_specs()
        keys = [spec.cache_key() for spec in specs]
        plan = find_frame_plan(keys, kind)
        victims = plan.frame_victims(keys)
        executor = Executor(
            jobs=jobs,
            transport="shm",
            retry=RetryPolicy(retries=2, backoff_base=0.0),
            chaos=plan,
        )
        digests = strict_digests(executor, specs)  # raises on failure
        assert executor.failures == []
        assert executor.retried >= len(victims)
        assert digests == clean_digests
