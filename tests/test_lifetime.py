"""A finished simulation is freed by reference counting (DESIGN.md §10).

``SimulationDriver.run`` breaks the reference cycles among the driver,
its cores, the controller, the policy, the STC, the channels and the
event queue, whether it returns or raises.  Every test here runs with the
cyclic garbage collector disabled, so an object that only a full
collection could free shows up as a live weak reference.
"""

import gc
import weakref

import pytest

from repro.common.config import paper_quad_core, paper_single_core
from repro.common.errors import SimulationError
from repro.exec.executor import execute_spec
from repro.experiments.runner import ExperimentRunner
from repro.policies.registry import registry_names
from repro.sim import engine
from repro.sim.engine import SimulationDriver
from repro.sim.validation import ValidationError
from repro.traces.generator import synthesize_trace

SCALE = 128
SINGLE = paper_single_core(scale=SCALE)
QUAD = paper_quad_core(scale=SCALE)
QUAD_PROGRAMS = ("zeusmp", "leslie3d", "mcf", "libquantum")


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def single_driver(policy, **options):
    trace = synthesize_trace("zeusmp", 1500, scale=SCALE, seed=0)
    return SimulationDriver(SINGLE, policy, [("zeusmp", trace)], **options)


def quad_driver(policy, **options):
    traces = [
        (name, synthesize_trace(name, 600, scale=SCALE, seed=index))
        for index, name in enumerate(QUAD_PROGRAMS)
    ]
    return SimulationDriver(QUAD, policy, traces, **options)


def component_refs(driver):
    """Weak references to every object a finished run must free."""
    objects = [driver, driver.controller, driver.events, driver.policy]
    objects += driver.controller.channels
    objects += driver.cores
    return [weakref.ref(each) for each in objects]


def assert_freed(refs):
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert not alive, f"kept alive by a reference cycle: {alive}"


@pytest.mark.parametrize("build", [single_driver, quad_driver], ids=["single", "quad"])
@pytest.mark.parametrize("policy", registry_names())
def test_finished_run_is_freed(policy, build):
    driver = build(policy)
    refs = component_refs(driver)
    result = driver.run()
    assert result.total_requests > 0
    del driver, result
    assert_freed(refs)


def test_max_cycles_cutoff_is_freed():
    # This cutoff stops the loop with core dispatches and ST fetches in
    # the event queue and a read still waiting in a channel queue, whose
    # completion leads back to the controller.
    driver = quad_driver("profess", max_cycles=8007)
    channels = driver.controller.channels
    refs = component_refs(driver)
    result = driver.run()
    assert all(program.passes_completed == 0 for program in result.programs)
    assert any(len(channel._reads) for channel in channels)
    del driver, result, channels
    assert_freed(refs)


def test_validated_run_is_freed():
    driver = single_driver("mdm", validate_every=2000)
    refs = component_refs(driver)
    driver.run()
    del driver
    assert_freed(refs)


def test_execute_spec_frees_its_simulation(monkeypatch):
    refs = []
    run = SimulationDriver.run

    def tracked_run(driver):
        refs.extend(component_refs(driver))
        return run(driver)

    monkeypatch.setattr(SimulationDriver, "run", tracked_run)
    spec = ExperimentRunner(scale=SCALE, multi_requests=600).spec_mix(
        QUAD_PROGRAMS, "profess"
    )
    assert execute_spec(spec).total_requests > 0
    assert refs
    assert_freed(refs)


class TestRunOnce:
    """The release runs on every exit from ``run``, which runs once."""

    def test_second_run_raises(self):
        driver = single_driver("pom")
        driver.run()
        with pytest.raises(SimulationError, match="only once"):
            driver.run()

    def test_validation_error_releases(self):
        driver = single_driver("mdm", validate_every=2000)
        st = driver.controller.st

        def corrupt(now):
            groups = st.touched_groups()
            entry = st.entry(groups[0] if groups else 0)
            entry.loc_of_slot[0] = entry.loc_of_slot[1]

        driver.events.schedule(1000, corrupt)
        refs = component_refs(driver)
        with pytest.raises(ValidationError):
            driver.run()
        with pytest.raises(SimulationError, match="only once"):
            driver.run()
        del driver
        assert_freed(refs)

    def test_event_budget_error_releases(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVENTS", 500)
        driver = quad_driver("profess")
        refs = component_refs(driver)
        with pytest.raises(SimulationError, match="event budget"):
            driver.run()
        with pytest.raises(SimulationError, match="only once"):
            driver.run()
        del driver
        assert_freed(refs)
