"""The composable policy registry: specs, factory, axes, and back-compat.

Covers the full redesigned surface (repro.policies.registry):

* ``PolicySpec`` parsing, canonicalization, serialization round-trips,
  and the error taxonomy (``PolicySpecError`` / ``UnknownPolicyError``);
* registry completeness — every registered policy constructible under
  the default ``SystemConfig`` with axes resolved;
* axis semantics end-to-end (``noswap`` suppresses migration traffic,
  ``bypass`` probabilistically drops promotions, STC replacement wires
  through to the array);
* cache-key compatibility — pre-redesign ``SystemConfig.cache_token()``
  and ``RunSpec.cache_key()`` values are pinned as constants, and
  equivalent spec spellings collapse to one key;
* the package surface (no class re-exports; defining modules import
  silently);
* the CLI (``--policy`` validation exits 2, ``profess policies``);
* serial/parallel byte-identity of the ``ext-policy-matrix`` sweep.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import (
    STC_REPLACEMENTS,
    SWAP_STYLES,
    PolicyAxesConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.common.errors import (
    ConfigError,
    PolicySpecError,
    UnknownPolicyError,
)
from repro.exec.executor import execute_spec
from repro.exec.spec import RunSpec
from repro.policies.registry import (
    PolicySpec,
    build_policy,
    canonical_policy,
    guided_bases,
    iter_registered,
    registry_names,
)

CONFIG = paper_quad_core(scale=64)

#: Pre-redesign regression constants, computed on the commit before the
#: registry landed.  They pin the promise that adding the ``axes`` field
#: and policy canonicalization did NOT invalidate existing disk caches.
QUAD64_TOKEN = "7893fd1f5674002209965556632541ae1b4d218bad11d167cdcf90d3c54e9913"
SINGLE64_TOKEN = "75b3e0f22931d9553a48ca12b5c354785ebd2f85714cea8d5c474a9348282c7e"
MDM_MULTI_KEY = "8ae98a4fa4dd86827b22b98dc3351db4222a11707db82115a41db1556dd55f20"
PROFESS_SINGLE_KEY = (
    "84c825da41ff47ff9b19569918df4593f074db73c561cef5854d17b744d8d825"
)


class TestSpecParsing:
    def test_plain_base(self):
        spec = PolicySpec.parse("pom")
        assert spec == PolicySpec(base="pom")

    def test_registered_composition_expands(self):
        assert PolicySpec.parse("profess") == PolicySpec(
            base="mdm", guidance=True
        )
        assert PolicySpec.parse("rsm-pom") == PolicySpec(
            base="pom", guidance=True
        )

    def test_axes_any_order(self):
        forward = PolicySpec.parse("mdm+rsm+swap:smart+bypass:0.05+stc:lfu")
        shuffled = PolicySpec.parse("mdm+stc:lfu+bypass:0.05+rsm+swap:smart")
        assert forward == shuffled
        assert forward.swap_style == "smart"
        assert forward.bypass_rate == 0.05
        assert forward.stc_replacement == "lfu"
        assert forward.guidance

    def test_case_insensitive(self):
        assert PolicySpec.parse("PoM") == PolicySpec(base="pom")
        assert PolicySpec.parse("MDM+RSM+STC:LFU") == PolicySpec.parse(
            "mdm+rsm+stc:lfu"
        )

    def test_unknown_head_lists_known_names(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            PolicySpec.parse("nope")
        assert excinfo.value.name == "nope"
        assert "pom" in excinfo.value.known
        assert excinfo.value.known == sorted(excinfo.value.known)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "+rsm",
            "mdm+rsm+rsm",  # duplicate axis
            "mdm+swap:warp",  # unknown swap style
            "mdm+stc:plru",  # unknown STC replacement
            "mdm+bypass:fast",  # non-numeric rate
            "mdm+bypass:1.0",  # rate out of [0, 1)
            "mdm+bypass:-0.1",
            "mdm+turbo:on",  # unknown axis
            "mdm+swap:",  # empty axis value
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises((PolicySpecError, UnknownPolicyError)):
            PolicySpec.parse(text)

    def test_spec_error_is_value_error(self):
        # Callers that caught the old make_policy errors keep working.
        with pytest.raises(ValueError):
            PolicySpec.parse("mdm+swap:warp")


class TestCanonicalization:
    def test_legacy_names_map_to_themselves(self):
        for name in registry_names():
            assert canonical_policy(name) == name

    def test_equivalent_spelling_collapses(self):
        assert canonical_policy("mdm+rsm") == "profess"
        assert canonical_policy("pom+rsm") == "rsm-pom"

    def test_composed_form_is_stable(self):
        text = "mdm+rsm+swap:smart+bypass:0.05+stc:lfu"
        canonical = canonical_policy(text)
        assert canonical == "profess+swap:smart+bypass:0.05+stc:lfu"
        # Canonicalization is idempotent.
        assert canonical_policy(canonical) == canonical

    def test_round_trip_parse_canonical(self):
        for text in ("pom", "profess", "mdm+stc:lfu", "silcfm+swap:fast"):
            spec = PolicySpec.parse(text)
            assert PolicySpec.parse(spec.canonical()) == spec


class TestSerialization:
    def test_dict_round_trip_preserves_cache_token(self):
        spec = PolicySpec.parse("mdm+rsm+swap:smart+bypass:0.05+stc:lfu")
        again = PolicySpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache_token() == spec.cache_token()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(PolicySpecError):
            PolicySpec.from_dict({"base": "mdm", "turbo": True})

    def test_token_distinguishes_axes(self):
        assert (
            PolicySpec.parse("mdm").cache_token()
            != PolicySpec.parse("mdm+stc:lfu").cache_token()
        )

    def test_spec_is_hashable(self):
        assert len({PolicySpec.parse("mdm"), PolicySpec.parse("mdm")}) == 1


class TestRegistryCompleteness:
    def test_every_registered_policy_constructible(self):
        for entry in iter_registered():
            policy = build_policy(entry.name, CONFIG)
            assert isinstance(policy, entry.cls)
            assert policy.name == entry.name
            assert policy.swap_style in SWAP_STYLES
            assert policy.stc_replacement in STC_REPLACEMENTS
            assert 0.0 <= policy.bypass_rate < 1.0
            assert entry.description  # docstring first line captured

    def test_guided_bases(self):
        assert guided_bases() == ["mdm", "pom"]

    def test_registry_names_sorted(self):
        names = registry_names()
        assert names == sorted(names)
        assert {"static", "cameo", "pom", "silcfm", "mempod", "mdm",
                "profess", "rsm-pom"} == set(names)

    def test_unsupported_guidance_rejected_with_guided_list(self):
        with pytest.raises(PolicySpecError) as excinfo:
            build_policy(PolicySpec(base="cameo", guidance=True), CONFIG)
        assert "mdm" in str(excinfo.value)

    def test_kwargs_pass_through(self):
        policy = build_policy("mdm", CONFIG, record_predictions=True)
        assert policy.prediction_log is not None


class TestAxisResolution:
    def test_spec_beats_config_beats_class(self):
        config = replace(
            CONFIG,
            axes=PolicyAxesConfig(swap_style="slow", stc_replacement="fifo"),
        )
        explicit = build_policy("mdm+swap:fast+stc:lfu", config)
        assert explicit.swap_style == "fast"
        assert explicit.stc_replacement == "lfu"
        inherited = build_policy("mdm", config)
        assert inherited.swap_style == "slow"
        assert inherited.stc_replacement == "fifo"

    def test_class_default_when_nothing_set(self):
        silcfm = build_policy("silcfm", CONFIG)
        assert silcfm.swap_style == "slow"
        assert silcfm.slow_swaps  # back-compat property view
        mdm = build_policy("mdm", CONFIG)
        assert mdm.swap_style == "fast"
        assert not mdm.slow_swaps

    def test_axes_config_validates(self):
        with pytest.raises(ConfigError):
            PolicyAxesConfig(swap_style="warp")
        with pytest.raises(ConfigError):
            PolicyAxesConfig(stc_replacement="plru")
        with pytest.raises(ConfigError):
            PolicyAxesConfig(bypass_rate=1.5)


def _run(policy: str, requests: int = 400) -> object:
    config = paper_quad_core(scale=256)
    spec = RunSpec(
        kind="multi",
        programs=("zeusmp", "mcf"),
        policy=policy,
        config=config,
        requests=requests,
        seed=0,
        trace_scale=256,
    )
    return execute_spec(spec)


class TestAxisBehavior:
    def test_noswap_suppresses_all_migration_traffic(self):
        assert _run("mdm+swap:noswap").total_swaps == 0

    def test_bypass_reduces_swaps(self):
        base = _run("mdm").total_swaps
        bypassed = _run("mdm+bypass:0.5").total_swaps
        assert 0 < bypassed < base

    def test_default_axes_unchanged_from_plain_run(self):
        # The bypass RNG must not exist (and draw nothing) at rate 0.
        plain = _run("mdm")
        spelled = _run("mdm+swap:fast")
        assert plain.total_swaps == spelled.total_swaps
        assert plain.cycles == spelled.cycles

    def test_slow_and_smart_styles_cost_extra_moves(self):
        fast = _run("mdm")
        slow = _run("mdm+swap:slow")
        smart = _run("mdm+swap:smart")
        assert slow.cycles > fast.cycles
        assert fast.cycles <= smart.cycles <= slow.cycles

    def test_stc_replacement_changes_hit_rate(self):
        assert (
            _run("mdm+stc:lfu").stc_hit_rate != _run("mdm").stc_hit_rate
        )

    def test_result_policy_label_is_canonical(self):
        assert _run("mdm+rsm", requests=200).policy == "profess"


class TestCacheKeyCompatibility:
    def test_pinned_config_tokens(self):
        assert paper_quad_core(scale=64).cache_token() == QUAD64_TOKEN
        assert paper_single_core(scale=64).cache_token() == SINGLE64_TOKEN

    def test_non_default_axes_changes_token(self):
        config = replace(CONFIG, axes=PolicyAxesConfig(swap_style="slow"))
        assert config.cache_token() != QUAD64_TOKEN

    def test_pinned_run_spec_keys(self):
        mdm = RunSpec(
            kind="multi",
            programs=("zeusmp", "mcf", "lbm", "omnetpp"),
            policy="mdm",
            config=paper_quad_core(scale=64),
            requests=50_000,
            seed=0,
            trace_scale=64,
        )
        assert mdm.cache_key() == MDM_MULTI_KEY
        profess = RunSpec(
            kind="single",
            programs=("zeusmp",),
            policy="profess",
            config=paper_single_core(scale=64),
            requests=60_000,
            seed=0,
            trace_scale=64,
        )
        assert profess.cache_key() == PROFESS_SINGLE_KEY

    def test_equivalent_spellings_share_a_key(self):
        def key(policy: str) -> str:
            return RunSpec(
                kind="single",
                programs=("zeusmp",),
                policy=policy,
                config=paper_single_core(scale=64),
                requests=60_000,
                seed=0,
                trace_scale=64,
            ).cache_key()

        assert key("mdm+rsm") == key("profess") == PROFESS_SINGLE_KEY

    def test_run_spec_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            RunSpec(
                kind="single",
                programs=("zeusmp",),
                policy="nope",
                config=paper_single_core(scale=64),
                requests=100,
                seed=0,
                trace_scale=64,
            )


class TestDeprecationShims:
    """The package exports no policy classes; their defining modules
    import without warnings."""

    def test_unknown_attribute_is_attribute_error(self):
        import repro.policies as policies

        with pytest.raises(AttributeError):
            policies.NoSuchPolicy

    def test_defining_module_import_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.policies.pom import PoMPolicy  # noqa: F401


class TestCli:
    def test_unknown_policy_exits_2_with_known_names(self, capsys):
        from repro import cli

        code = cli.main(["run", "ext-policy-matrix", "--policy", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope" in err and "profess" in err

    def test_malformed_spec_exits_2(self, capsys):
        from repro import cli

        code = cli.main(
            ["run", "ext-policy-matrix", "--policy", "mdm+bypass:2"]
        )
        assert code == 2
        assert "bypass" in capsys.readouterr().err

    def test_policies_listing(self, capsys):
        from repro import cli

        assert cli.main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "profess" in out and "swap styles" in out

    def test_policies_markdown(self, capsys):
        from repro import cli

        assert cli.main(["policies", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| `profess` | mdm | RSM |" in out
        assert "| `+stc:POLICY` |" in out


class TestMatrixSerialParallelIdentity:
    def test_restricted_sweep_identical_across_jobs(self):
        from repro.experiments.extensions import run_policy_matrix
        from repro.experiments.runner import ExperimentRunner

        def rows(jobs: int) -> list:
            runner = ExperimentRunner(
                scale=256,
                multi_requests=250,
                single_requests=250,
                jobs=jobs,
                policies=["pom", "mdm+rsm", "mdm+stc:lfu"],
            )
            return run_policy_matrix(runner).rows

        serial = rows(1)
        parallel = rows(2)
        assert serial == parallel
        assert [row[0] for row in serial] == ["pom", "profess", "mdm+stc:lfu"]
