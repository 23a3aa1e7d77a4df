"""Tests for the spec mini-language, the registries and spec-aware cache keys."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import canonical_faults, parse_faults
from repro.ordering import ORDERINGS, canonical_ordering, compute_ordering, resolve_ordering
from repro.pipeline import AnalysisPipeline, CaseSpec
from repro.registry import Registry
from repro.scheduling import (
    STRATEGIES,
    canonical_strategy,
    get_strategy,
    resolve_strategy,
)
from repro.scheduling.hybrid import HybridSlaveSelector
from repro.results import case_key_for
from repro.service.daemon import case_spec_from_query
from repro.specs import ParamSpec, SweepSpec, format_value, parse_spec, split_spec_list
from repro.tune.driver import _canonical_objective
from repro.tune.objective import OBJECTIVES
from repro.tune.search import SEARCHERS, canonical_searcher

#: the canonical form of every registered name (all defaults bound)
_CANONICAL = {
    "mumps-workload": "mumps-workload",
    "memory-basic": "memory-basic",
    "memory-slave": "memory-slave",
    "memory-task": "memory-task",
    "memory-full": "memory-full",
    "hybrid": "hybrid(alpha=0.5,use_predictions=true)",
    "metis": "metis(balance=0.5,handle_hubs=true,leaf_method=degree,leaf_size=64,seed=0)",
    "pord": "pord(balance=0.45,leaf_size=48,nd_levels=4,seed=0)",
    "amd": "amd(seed=0)",
    "amf": "amf(seed=0)",
    "rcm": "rcm",
    "natural": "natural",
    "grid": "grid(resolution=3)",
    "random": "random(samples=8)",
    "halving": "halving(eta=2,fidelity=scale,rungs=3,samples=8)",
    "makespan": "makespan",
    "peak-memory": "peak-memory",
    "avg-memory": "avg-memory",
    "weighted": "weighted(memory=1,time=1)",
    "robustness": "robustness(metric=p95)",
}
#: spellings with parameters, and their canonical forms
_SPELLED_CANONICAL = {
    "Hybrid( use_predictions=false, alpha=.25 )": "hybrid(alpha=0.25,use_predictions=false)",
    "METIS(seed=3, leaf_size=32)": "metis(balance=0.5,handle_hubs=true,leaf_method=degree,leaf_size=32,seed=3)",
    "Pord(balance=0.450)": "pord(balance=0.45,leaf_size=48,nd_levels=4,seed=0)",
    "halving(rungs=2,fidelity=nprocs)": "halving(eta=2,fidelity=nprocs,rungs=2,samples=8)",
    "weighted(time=2.5)": "weighted(memory=1,time=2.5)",
    "robustness(metric=p50)": "robustness(metric=p50)",
}


# --------------------------------------------------------------------------- #
# parse_spec
# --------------------------------------------------------------------------- #
class TestParseSpec:
    def test_bare_name(self):
        spec = parse_spec("memory-full")
        assert spec.name == "memory-full"
        assert spec.params == ()
        assert spec.canonical() == "memory-full"

    def test_params_of_every_type(self):
        spec = parse_spec("hybrid(alpha=0.3, use_predictions=false, seed=7, mode=greedy)")
        assert spec.kwargs == {
            "alpha": 0.3,
            "use_predictions": False,
            "seed": 7,
            "mode": "greedy",
        }
        assert isinstance(spec.kwargs["seed"], int)
        assert isinstance(spec.kwargs["alpha"], float)

    def test_roundtrip_string_object_string(self):
        for text in (
            "memory-full",
            "hybrid(alpha=0.3)",
            "hybrid(alpha=0.25,use_predictions=false)",
            "metis(balance=0.5,leaf_method=degree,leaf_size=32)",
        ):
            spec = parse_spec(text)
            assert parse_spec(spec.canonical()) == spec
            assert spec.canonical() == text.replace(" ", "")

    def test_param_order_is_canonicalised(self):
        a = parse_spec("hybrid(alpha=0.3, use_predictions=true)")
        b = parse_spec("hybrid(use_predictions=true, alpha=0.3)")
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical() == b.canonical()

    def test_idempotent_on_paramspec(self):
        spec = parse_spec("hybrid(alpha=0.3)")
        assert parse_spec(spec) is spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "hybrid(",
            "hybrid(alpha)",
            "hybrid(alpha=0.3))",
            "hybrid(alpha=0.3,alpha=0.4)",
            "hy brid",
            "hybrid(=3)",
            "hybrid(alpha=)",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_to_dict_roundtrip(self):
        spec = parse_spec("hybrid(alpha=0.3)")
        clone = ParamSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_equal_values_canonicalise_equally(self):
        # 1 == 1.0 in Python, so the canonical (cache-key) form must agree too
        a = parse_spec("hybrid(alpha=1)")
        b = parse_spec("hybrid(alpha=1.0)")
        assert a == b
        assert a.canonical() == b.canonical() == "hybrid(alpha=1)"
        assert parse_spec("hybrid(alpha=0.5)").canonical() == "hybrid(alpha=0.5)"

    def test_quoted_values_roundtrip_without_escapes(self):
        spec = ParamSpec("x", (("k", "it's fine"),))
        assert parse_spec(spec.canonical()) == spec
        spec = ParamSpec("x", (("k", 'say "hi" now'),))
        assert parse_spec(spec.canonical()) == spec
        with pytest.raises(ValueError, match="both quote"):
            ParamSpec("x", (("k", """both ' and " quotes"""),)).canonical()

    def test_split_spec_list_respects_parens(self):
        parts = split_spec_list("mumps-workload,hybrid(alpha=0.25,use_predictions=false),amd")
        assert parts == ["mumps-workload", "hybrid(alpha=0.25,use_predictions=false)", "amd"]


# --------------------------------------------------------------------------- #
# registries
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_mapping_view(self):
        registry = Registry("thing")
        registry.add("Alpha", 1, description="first")
        registry.add("beta", 2)
        assert list(registry) == ["Alpha", "beta"]
        assert registry["ALPHA"] == 1
        assert "alpha" in registry and "beta" in registry and "gamma" not in registry
        assert len(registry) == 2
        assert dict(registry.items()) == {"Alpha": 1, "beta": 2}

    def test_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'hybrid'"):
            STRATEGIES.get("hybird")
        with pytest.raises(ValueError, match="did you mean"):
            ORDERINGS.get("metsi")

    def test_register_decorator_uses_docstring(self):
        registry = Registry("fn")

        @registry.register("thing", params={"x": 1})
        def thing(x=1):
            """Does the thing."""

        assert registry.get("THING") is thing
        assert registry.params_of("thing") == {"x": 1}
        assert registry.describe() == [
            {"name": "thing", "description": "Does the thing.", "params": {"x": 1}}
        ]

    def test_builtin_registries_expose_metadata(self):
        strategies = {e["name"]: e for e in STRATEGIES.describe()}
        assert "alpha" in strategies["hybrid"]["params"]
        orderings = {e["name"]: e for e in ORDERINGS.describe()}
        assert "leaf_size" in orderings["metis"]["params"]

    def test_canonical_matches_every_family_helper_byte_for_byte(self):
        # what each family's own helper returned before they all delegated
        # to Registry.canonical: pipeline artifact keys are built from these
        families = (
            (STRATEGIES, canonical_strategy),
            (ORDERINGS, canonical_ordering),
            (SEARCHERS, canonical_searcher),
            (OBJECTIVES, _canonical_objective),
        )
        assert {name for registry, _ in families for name in registry} == set(_CANONICAL)
        for registry, helper in families:
            for name in registry:
                assert registry.canonical(name.upper()) == _CANONICAL[name]
                assert helper(name.upper()) == _CANONICAL[name]
            for spelled, canonical in _SPELLED_CANONICAL.items():
                if parse_spec(spelled).name.lower() in registry:
                    assert registry.canonical(spelled) == helper(spelled) == canonical

    def test_canonical_rejects_what_resolve_rejects(self):
        with pytest.raises(ValueError, match="accepted"):
            STRATEGIES.canonical("hybrid(gamma=1)")
        with pytest.raises(ValueError, match="did you mean 'metis'"):
            ORDERINGS.canonical("metsi")


# --------------------------------------------------------------------------- #
# parameterized strategies and orderings
# --------------------------------------------------------------------------- #
class TestParameterizedStrategies:
    def test_resolve_binds_params(self):
        strategy, params = resolve_strategy("hybrid(alpha=0.25)")
        assert strategy.name == "hybrid"
        assert params == {"alpha": 0.25}
        slave, _ = strategy.build(**params)
        assert isinstance(slave, HybridSlaveSelector)
        assert slave.alpha == 0.25

    def test_build_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="accepted"):
            resolve_strategy("hybrid(gamma=1)")
        with pytest.raises(ValueError, match="accepted: none"):
            resolve_strategy("mumps-workload(alpha=0.5)")
        with pytest.raises(ValueError, match="accepted"):
            get_strategy("hybrid").build(gamma=1)

    def test_get_strategy_accepts_spec_strings(self):
        assert get_strategy("hybrid(alpha=0.3)").name == "hybrid"

    def test_canonical_binds_defaults(self):
        assert (
            canonical_strategy("hybrid")
            == canonical_strategy("HYBRID(alpha=0.5)")
            == "hybrid(alpha=0.5,use_predictions=true)"
        )
        assert canonical_strategy("hybrid(alpha=0.3)") != canonical_strategy("hybrid")
        assert canonical_strategy("memory-full") == "memory-full"

    def test_ordering_specs(self):
        name, params = resolve_ordering("metis(leaf_size=32)")
        assert name == "metis"
        assert params == {"leaf_size": 32}
        assert canonical_ordering("metis") == canonical_ordering("METIS(leaf_size=64)")
        assert canonical_ordering("metis(leaf_size=32)") != canonical_ordering("metis")
        with pytest.raises(ValueError):
            resolve_ordering("metis(bogus=1)")

    def test_compute_ordering_with_spec_params(self, small_grid=None):
        from repro.sparse import grid_2d

        pattern = grid_2d(8, 8)
        a = compute_ordering(pattern, "metis(leaf_size=16)")
        b = compute_ordering(pattern, "metis", leaf_size=16)
        assert (a == b).all()


# --------------------------------------------------------------------------- #
# cache keys are sensitive to spec params and per-case overrides
# --------------------------------------------------------------------------- #
def engine(**kwargs) -> AnalysisPipeline:
    kwargs.setdefault("nprocs", 4)
    kwargs.setdefault("scale", 0.2)
    return AnalysisPipeline(**kwargs)


def key(e: AnalysisPipeline, stage: str, spec: CaseSpec) -> str:
    """An analysis stage key, or the result key for ``stage == "result"``."""
    return case_key_for(e, spec) if stage == "result" else e.stage_key(stage, spec)


class TestSpecCacheKeys:
    def test_strategy_params_change_simulation_key(self):
        e = engine()
        a = CaseSpec("XENON2", "metis", "hybrid(alpha=0.3)")
        b = CaseSpec("XENON2", "metis", "hybrid(alpha=0.5)")
        bare = CaseSpec("XENON2", "metis", "hybrid")
        # an alpha=0.3 result must never be addressed by the alpha=0.5 key …
        assert case_key_for(e, a) != case_key_for(e, b)
        # … while the explicit default and the bare name share one identity
        assert case_key_for(e, b) == case_key_for(e, bare)
        # the analysis phase is strategy-independent and stays shared
        for stage in ("pattern", "ordering", "tree", "split", "mapping"):
            assert e.stage_key(stage, a) == e.stage_key(stage, b)

    def test_ordering_params_change_ordering_key_downstream(self):
        e = engine()
        a = CaseSpec("XENON2", "metis")
        b = CaseSpec("XENON2", "metis(leaf_size=32)")
        c = CaseSpec("XENON2", "METIS(leaf_size=64)")
        assert e.stage_key("pattern", a) == e.stage_key("pattern", b)
        for stage in ("ordering", "tree", "split", "mapping", "result"):
            assert key(e, stage, a) != key(e, stage, b)
            assert key(e, stage, a) == key(e, stage, c)

    def test_nprocs_override_changes_mapping_key_only(self):
        e = engine(nprocs=4)
        base = CaseSpec("XENON2", "metis")
        override = CaseSpec("XENON2", "metis", nprocs=8)
        for stage in ("pattern", "ordering", "tree", "split"):
            assert e.stage_key(stage, base) == e.stage_key(stage, override)
        for stage in ("mapping", "result"):
            assert key(e, stage, base) != key(e, stage, override)
        # an override equal to the engine default is a no-op
        same = CaseSpec("XENON2", "metis", nprocs=4)
        for stage in ("pattern", "ordering", "tree", "split", "mapping", "result"):
            assert key(e, stage, base) == key(e, stage, same)

    def test_scale_override_changes_everything(self):
        e = engine(scale=0.2)
        base = CaseSpec("XENON2", "metis")
        override = CaseSpec("XENON2", "metis", scale=0.25)
        for stage in ("pattern", "ordering", "tree", "split", "mapping", "result"):
            assert key(e, stage, base) != key(e, stage, override)

    def test_split_threshold_override(self):
        e = engine()
        base = CaseSpec("XENON2", "metis", split=True)
        override = CaseSpec("XENON2", "metis", split=True, split_threshold=2_000)
        assert e.stage_key("split", base) != e.stage_key("split", override)
        assert e.stage_key("tree", base) == e.stage_key("tree", override)

    def test_hybrid_variant_not_served_from_other_alpha_cache(self):
        # end to end: running alpha extremes through one engine must yield the
        # metrics a fresh single-case engine computes, not a cache cross-hit
        shared = engine(nprocs=4)
        extreme = CaseSpec("XENON2", "metis", "hybrid(alpha=0.0)")
        lone = engine(nprocs=4).run_case(extreme)
        shared.run_case(CaseSpec("XENON2", "metis", "hybrid(alpha=1.0)"))
        mixed = shared.run_case(extreme)
        assert mixed.max_peak_stack == lone.max_peak_stack
        assert mixed.total_time == lone.total_time


# --------------------------------------------------------------------------- #
# CaseSpec / SweepSpec serialization
# --------------------------------------------------------------------------- #
class TestSerialization:
    def test_case_spec_roundtrip(self):
        spec = CaseSpec("XENON2", "metis", "hybrid(alpha=0.3)", split=True, nprocs=16, scale=0.5)
        clone = CaseSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_case_spec_dict_omits_defaults(self):
        assert CaseSpec("XENON2", "metis").to_dict() == {"problem": "XENON2", "ordering": "metis"}

    def test_case_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown CaseSpec fields"):
            CaseSpec.from_dict({"problem": "XENON2", "ordering": "metis", "bogus": 1})

    def test_sweep_spec_expand_grid_order(self):
        sweep = SweepSpec(
            problems="XENON2",
            strategies=["hybrid(alpha=0.25)", "hybrid(alpha=0.75)"],
            nprocs=[8, 16],
        )
        specs = sweep.expand()
        assert len(specs) == len(sweep) == 4
        assert [(s.strategy, s.nprocs) for s in specs] == [
            ("hybrid(alpha=0.25)", 8),
            ("hybrid(alpha=0.25)", 16),
            ("hybrid(alpha=0.75)", 8),
            ("hybrid(alpha=0.75)", 16),
        ]

    def test_sweep_spec_roundtrip(self):
        sweep = SweepSpec(problems=["XENON2", "PRE2"], split=[False, True], nprocs=[4, None])
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert clone.expand() == sweep.expand()

    def test_sweep_spec_needs_problems(self):
        with pytest.raises(ValueError):
            SweepSpec()

    def test_analysis_signature_extends_only_when_overridden(self):
        plain = CaseSpec("XENON2", "metis")
        assert plain.analysis_signature() == ("XENON2", canonical_ordering("metis"), False)
        override = CaseSpec("XENON2", "metis", nprocs=8)
        assert override.analysis_signature() != plain.analysis_signature()


# --------------------------------------------------------------------------- #
# properties of the mini-language and of the keys built on it
# --------------------------------------------------------------------------- #
_NAMES = st.from_regex(r"[a-z][a-z0-9_.\-]{0,7}", fullmatch=True)
_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True)
_VALUES = st.one_of(
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False),
    st.text(max_size=8).filter(lambda text: not ("'" in text and '"' in text)),
    # strings that read as another type unless quoted
    st.sampled_from(["12", "-3", "1e5", "inf", "nan", "true", "False", "none", "NULL"]),
)


def _float_spellings(value: float) -> st.SearchStrategy[str]:
    """Spellings of ``value`` that parse back to exactly the same float."""
    text = repr(value)
    spellings = [text, f"{value:.17g}", f"{value:.17E}"]
    if text.startswith("0."):
        spellings.append(text[1:])  # .5
    if "." in text and "e" not in text:
        spellings.append(text + "00")  # 0.500
    return st.sampled_from(spellings)


def _any_case(text: str) -> st.SearchStrategy[str]:
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(text, upper))
    )


@st.composite
def _spelled(draw, name: str, params: dict[str, object], *, any_case: bool = True) -> str:
    """One spelling of ``name(params)``: any name case, order, float form and spacing."""
    items = draw(st.permutations(list(params.items())))
    pad = st.sampled_from(["", " ", "  "])
    rendered = []
    for key, value in items:
        text = draw(_float_spellings(value)) if isinstance(value, float) else format_value(value)
        rendered.append(f"{draw(pad)}{key}{draw(pad)}={draw(pad)}{text}{draw(pad)}")
    spelled_name = draw(_any_case(name)) if any_case else name
    if not rendered and draw(st.booleans()):
        return spelled_name
    return f"{spelled_name}{draw(pad)}({','.join(rendered)})"


@st.composite
def _with_defaults(draw, registry: Registry, name: str, params: dict[str, object]) -> dict[str, object]:
    """``params`` plus any subset of ``name``'s other declared defaults, spelled out."""
    declared = registry.params_of(name)
    missing = sorted(set(declared) - set(params))
    chosen = draw(st.lists(st.sampled_from(missing), unique=True)) if missing else []
    return {**params, **{key: declared[key] for key in chosen}}


#: every fault model's parameters, each with the values it accepts
_FAULT_PARAMS = {
    "stragglers": {"frac": st.floats(0.0, 1.0), "slowdown": st.floats(0.01, 100.0)},
    "slowdown": {
        "n": st.integers(1, 16),
        "span": st.floats(0.01, 10.0),
        "duration": st.floats(1e-4, 1.0),
        "factor": st.floats(0.1, 10.0),
    },
    "msgloss": {
        "p": st.floats(0.0, 0.99),
        "retry_timeout": st.floats(1e-6, 1.0),
        "backoff": st.floats(1.0, 8.0),
    },
}


@st.composite
def _fault_texts(draw) -> str:
    """A valid fault spec in any order of models, with any subset of parameters."""
    models = draw(st.lists(st.sampled_from(sorted(_FAULT_PARAMS)), min_size=1, max_size=3, unique=True))
    segments = []
    for model in models:
        chosen = draw(st.lists(st.sampled_from(sorted(_FAULT_PARAMS[model])), unique=True))
        params = {key: draw(_FAULT_PARAMS[model][key]) for key in chosen}
        # fault model names are case-sensitive
        segments.append(draw(_spelled(model, params, any_case=False)))
    return "+".join(segments)


@st.composite
def _sweeps(draw) -> SweepSpec:
    def axis(values, *, min_size=0):
        return draw(st.lists(values, min_size=min_size, max_size=3))

    return SweepSpec(
        problems=axis(st.sampled_from(["XENON2", "PRE2", "GUPTA3"]), min_size=1),
        orderings=axis(st.sampled_from(["metis", "amd", "metis(leaf_size=32)"]), min_size=1),
        strategies=axis(
            st.sampled_from(["memory-full", "mumps-workload", "hybrid(alpha=0.25)"]), min_size=1
        ),
        split=axis(st.booleans(), min_size=1),
        nprocs=axis(st.one_of(st.none(), st.integers(1, 128))),
        scale=axis(st.one_of(st.none(), st.floats(0.05, 2.0), st.integers(1, 3))),
        split_threshold=axis(st.one_of(st.none(), st.integers(1, 10**6))),
        faults=axis(st.one_of(st.none(), _fault_texts())),
        track_traces=draw(st.booleans()),
        fault_seed=draw(st.integers(0, 2**31)),
        replications=draw(st.integers(1, 5)),
    )


_KEY_ENGINE = AnalysisPipeline(nprocs=8, scale=0.2, cache_dir="")


class TestSpecProperties:
    @settings(max_examples=100, deadline=None)
    @given(_NAMES, st.dictionaries(_KEYS, _VALUES, max_size=4))
    def test_canonical_form_parses_back_to_the_spec(self, name, params):
        spec = ParamSpec(name, tuple(params.items()))
        text = spec.canonical()
        assert parse_spec(text) == spec
        assert parse_spec(text).canonical() == text

    @settings(max_examples=60, deadline=None)
    @given(
        _NAMES,
        st.dictionaries(_KEYS, st.one_of(st.integers(-99, 99), st.floats(allow_nan=False)), max_size=3),
        st.data(),
    )
    def test_every_spelling_canonicalises_to_one_form(self, name, params, data):
        spelled = data.draw(_spelled(name, params))
        canonical = ParamSpec(name, tuple(params.items())).canonical()
        assert parse_spec(spelled).name.lower() == name
        assert parse_spec(spelled).params == parse_spec(canonical).params
        assert parse_spec(parse_spec(spelled).canonical()).canonical() == parse_spec(spelled).canonical()

    @settings(max_examples=40, deadline=None)
    @given(_sweeps())
    def test_sweep_spec_dict_roundtrip(self, sweep):
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict()))) == sweep

    @settings(max_examples=60, deadline=None)
    @given(_fault_texts())
    def test_canonical_faults_is_idempotent(self, text):
        canonical = canonical_faults(text)
        assert canonical_faults(canonical) == canonical
        assert parse_faults(canonical) == parse_faults(text)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["xenon2", "pre2", "bmwcra_1"]),
        st.sampled_from(
            [("metis", {}), ("amd", {}), ("pord", {}), ("metis", {"leaf_size": 32}), ("amf", {"seed": 3})]
        ),
        st.one_of(
            st.tuples(st.sampled_from(["memory-full", "mumps-workload", "hybrid"]), st.just({})),
            st.tuples(st.just("hybrid"), st.fixed_dictionaries({"alpha": st.floats(0.0, 1.0)})),
            st.tuples(st.just("hybrid"), st.fixed_dictionaries({"use_predictions": st.booleans()})),
        ),
        st.booleans(),
        st.data(),
    )
    def test_equal_cases_share_a_store_key_whatever_the_spelling(
        self, problem, ordering, strategy, split, data
    ):
        """Defaults explicit or implicit, any parameter order, any name case: one key."""
        def key(spelling: tuple[str, str, str]) -> str:
            query = {"problem": spelling[0], "ordering": spelling[1], "strategy": spelling[2]}
            if split:
                query["split"] = "true"
            from_query = case_key_for(_KEY_ENGINE, case_spec_from_query(query))
            direct = case_key_for(_KEY_ENGINE, CaseSpec(*spelling, split=split))
            assert from_query == direct
            return direct

        plain = (
            problem,
            ParamSpec(ordering[0], tuple(ordering[1].items())).canonical(),
            ParamSpec(strategy[0], tuple(strategy[1].items())).canonical(),
        )
        spelled = (
            data.draw(_any_case(problem)),
            data.draw(_spelled(ordering[0], data.draw(_with_defaults(ORDERINGS, *ordering)))),
            data.draw(_spelled(strategy[0], data.draw(_with_defaults(STRATEGIES, *strategy)))),
        )
        assert key(spelled) == key(plain)

    def test_example_spellings_share_a_store_key(self):
        keys = {
            case_key_for(_KEY_ENGINE, case_spec_from_query({"problem": "XENON2", "strategy": spelling}))
            for spelling in ("hybrid(alpha=.5)", "HYBRID(alpha=0.50)", "Hybrid( alpha = 5e-1 )")
        }
        assert len(keys) == 1
