"""Runtime invariant-checker tests, including a light fuzz."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import paper_quad_core
from repro.sim.engine import SimulationDriver
from repro.sim.validation import ValidationError, validate_controller
from repro.traces.generator import synthesize_trace

SCALE = 128
CONFIG = paper_quad_core(scale=SCALE)


def run(policy, programs, requests=2000, seed=3):
    traces = [
        (name, synthesize_trace(name, requests, scale=SCALE, seed=index))
        for index, name in enumerate(programs)
    ]
    driver = SimulationDriver(CONFIG, policy, traces, seed=seed)
    driver.run()
    return driver.controller


class TestCleanRuns:
    @pytest.mark.parametrize(
        "policy", ["static", "cameo", "pom", "silcfm", "mempod", "mdm", "profess"]
    )
    def test_every_policy_passes_validation(self, policy):
        controller = run(policy, ["soplex", "milc"])
        assert validate_controller(controller) > 0


class TestViolationsDetected:
    def test_broken_permutation(self):
        controller = run("mdm", ["soplex"])
        group = controller.st.touched_groups()[0]
        controller.st.entry(group).loc_of_slot[0] = 5  # corrupt
        with pytest.raises(ValidationError):
            validate_controller(controller)

    def test_out_of_range_qac(self):
        controller = run("mdm", ["soplex"])
        group = controller.st.touched_groups()[0]
        controller.st.entry(group).qac[3] = 9
        with pytest.raises(ValidationError):
            validate_controller(controller)

    def test_wrong_m1_owner(self):
        controller = run("mdm", ["soplex"])
        for group in controller.st.touched_groups():
            entry = controller.st.entry(group)
            real = controller.owner_of_slot(group, entry.m1_slot)
            if real is not None:
                entry.m1_owner = real + 1
                break
        with pytest.raises(ValidationError):
            validate_controller(controller)

    def test_inconsistent_rsm(self):
        controller = run("profess", ["soplex", "milc"])
        controller.rsm.counters[0].num_swap_self = (
            controller.rsm.counters[0].num_swap_total + 5
        )
        with pytest.raises(ValidationError):
            validate_controller(controller)


class TestValidateEvery:
    """Periodic in-run auditing (``validate_every`` / ``--validate-every``)."""

    def _driver(self, validate_every):
        traces = [("soplex", synthesize_trace("soplex", 2000, scale=SCALE, seed=0))]
        return SimulationDriver(
            CONFIG, "mdm", traces, seed=3, validate_every=validate_every
        )

    def test_clean_run_unaffected(self):
        baseline = self._driver(0).run()
        audited = self._driver(5000).run()
        assert audited.cycles == baseline.cycles
        assert audited.total_swaps == baseline.total_swaps
        assert audited.total_requests == baseline.total_requests

    def test_catches_injected_st_corruption(self):
        driver = self._driver(2000)
        controller = driver.controller

        def corrupt(now):
            # Break the ST permutation of the first touched group (or
            # group 0, materialized on demand): duplicate one location.
            groups = controller.st.touched_groups()
            entry = controller.st.entry(groups[0] if groups else 0)
            entry.loc_of_slot[0] = entry.loc_of_slot[1]

        driver.events.schedule(1000, corrupt)
        with pytest.raises(ValidationError):
            driver.run()

    def test_corruption_after_run_end_not_audited(self):
        # The audit stops re-arming once the measured run ends: a clean
        # run that ends before the next audit tick completes normally.
        driver = self._driver(10**9)
        result = driver.run()
        assert result.cycles > 0

    def test_negative_rejected(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            self._driver(-1)

    def test_runner_plumbs_flag_into_specs(self):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(scale=128, validate_every=777)
        assert runner.spec_single("soplex", "mdm").validate_every == 777
        assert runner.spec_alone("soplex", "mdm").validate_every == 777
        assert runner.spec_mix(["soplex", "milc"], "mdm").validate_every == 777

    def test_cache_key_excludes_validate_every(self):
        # Diagnostic-only: a validated result must be interchangeable
        # with (and served from the cache of) an unvalidated one.
        from dataclasses import replace

        from repro.experiments.runner import ExperimentRunner

        spec = ExperimentRunner(scale=128).spec_single("soplex", "mdm")
        assert (
            replace(spec, validate_every=123).cache_key() == spec.cache_key()
        )

    def test_validate_every_is_the_only_cache_neutral_field(self):
        # cache_key() digests every other field; a name added here is
        # dropped from the key, so the list changes only with review.
        from repro.exec import RunSpec

        assert RunSpec._CACHE_NEUTRAL_FIELDS == ("validate_every",)


class TestFuzz:
    """Random mixes and policies keep every invariant (mini fuzz)."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy=st.sampled_from(["cameo", "pom", "mdm", "profess"]),
        programs=st.lists(
            st.sampled_from(["soplex", "milc", "zeusmp", "omnetpp", "lbm"]),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_random_runs_stay_valid(self, policy, programs, seed):
        controller = run(policy, programs, requests=800, seed=seed)
        assert validate_controller(controller) > 0
