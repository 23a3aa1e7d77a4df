"""Auto-tuning subsystem tests: spaces, searchers, objectives, the Tuner.

The acceptance contract (ISSUE 9): ``repro tune --seed N`` is deterministic
and resumable — two runs with the same seed produce byte-identical
leaderboard artifacts, an interrupted tune resumes recomputing only the
missing evaluations (proven via ``engine.stage_runs``), and successive
halving provably evaluates fewer simulate stages than the exhaustive grid
over the same space.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import STRATEGIES
from repro.session import open_session
from repro.specs import canonical_float, parse_spec
from repro.tune import (
    Choice,
    GridSearcher,
    HalvingSearcher,
    IntRange,
    Leaderboard,
    Range,
    RandomSearcher,
    Rung,
    SearchSpace,
    TuneConfig,
    TuneSpec,
    Tuner,
    bootstrap_ci,
    make_objective,
    make_searcher,
    parse_domain,
    parse_space,
)
from repro.tune.objective import aggregate, mixed_seed

NPROCS = 4
SCALE = 0.1

SPACE = "hybrid(alpha=0.0..1.0)"


def _tune_spec(searcher: str, seed: int = 11) -> TuneSpec:
    return TuneSpec(
        space=parse_space(SPACE),
        problems=["XENON2"],
        searcher=searcher,
        objective="peak-memory",
        seed=seed,
        nprocs=NPROCS,
        scale=SCALE,
    )


# --------------------------------------------------------------------------- #
# search space
# --------------------------------------------------------------------------- #
class TestDomains:
    def test_parse_float_range(self):
        domain = parse_domain("0.0..1.0")
        assert isinstance(domain, Range)
        assert (domain.lo, domain.hi, domain.log) == (0.0, 1.0, False)

    def test_parse_log_range_and_spec_roundtrip(self):
        domain = parse_domain("0.001..1.0:log")
        assert isinstance(domain, Range) and domain.log
        assert parse_domain(domain.spec()) == domain

    def test_parse_int_range(self):
        domain = parse_domain("8..64")
        assert isinstance(domain, IntRange)
        assert (domain.lo, domain.hi) == (8, 64)

    def test_parse_choice(self):
        domain = parse_domain("true|false")
        assert isinstance(domain, Choice)
        assert domain.values == (True, False)

    def test_single_value_is_one_element_choice(self):
        domain = parse_domain("0.25")
        assert isinstance(domain, Choice)
        assert domain.values == (0.25,)

    def test_bad_domains_raise(self):
        with pytest.raises(ValueError):
            parse_domain("1.0..0.0")  # lo >= hi
        with pytest.raises(ValueError):
            parse_domain("0.0..1.0:log")  # log needs lo > 0
        with pytest.raises(ValueError):
            parse_domain("0.0..1.0:exp")  # unknown flag
        with pytest.raises(ValueError):
            parse_domain("a|a")  # duplicate choice

    def test_sampling_is_seed_deterministic(self):
        domain = parse_domain("0.0..1.0")
        a = domain.sample(np.random.default_rng(3))
        b = domain.sample(np.random.default_rng(3))
        assert a == b

    def test_int_range_sampling_stays_in_bounds(self):
        domain = parse_domain("8..16")
        rng = np.random.default_rng(0)
        values = {domain.sample(rng) for _ in range(200)}
        assert values <= set(range(8, 17))
        assert len(values) > 1

    def test_grid_endpoints_and_size(self):
        assert parse_domain("0.0..1.0").grid(3) == (0.0, 0.5, 1.0)
        assert parse_domain("8..64").grid(2) == (8, 64)
        assert parse_domain("a|b").grid(7) == ("a", "b")


class TestSearchSpace:
    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            parse_space("hybrid(nonsense=0.0..1.0)")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            parse_space("no-such-strategy(alpha=0.0..1.0)")

    def test_sampled_config_renders_canonical_spec(self):
        space = parse_space(SPACE)
        config = space.sample(np.random.default_rng(5))
        # the rendered strategy string must be its own canonical form, so
        # store/cache keys collide with hand-written specs
        assert str(parse_spec(config.strategy)) == config.strategy

    def test_sample_is_seed_deterministic(self):
        space = parse_space("hybrid(alpha=0.0..1.0,use_predictions=true|false)")
        a = space.sample(np.random.default_rng(9))
        b = space.sample(np.random.default_rng(9))
        assert a == b and a.key == b.key

    def test_grid_covers_product(self):
        space = parse_space("hybrid(alpha=0.0..1.0,use_predictions=true|false)")
        configs = space.grid(3)
        assert len(configs) == space.grid_size(3) == 6
        assert len({c.key for c in configs}) == 6

    def test_round_trip_dict(self):
        space = parse_space(SPACE, split=(False, True), split_threshold="300|500")
        again = SearchSpace.from_dict(space.to_dict())
        assert again.canonical() == space.canonical()
        assert again.to_dict() == space.to_dict()

    def test_parse_space_idempotent(self):
        space = parse_space(SPACE)
        assert parse_space(space) is space


def _float_ranges(*, positive: bool = False) -> st.SearchStrategy[Range]:
    bound = st.floats(1e-6 if positive else -1e6, 1e6, allow_nan=False)
    return st.tuples(bound, bound, st.booleans()).filter(
        lambda t: canonical_float(t[0]) < canonical_float(t[1])
    ).map(
        lambda t: Range(t[0], t[1], log=positive and t[2])
    )


def _int_ranges(lo: int, hi: int) -> st.SearchStrategy[IntRange]:
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi), st.booleans()).filter(
        lambda t: t[0] < t[1]
    ).map(lambda t: IntRange(t[0], t[1], log=t[0] > 0 and t[2]))


#: a domain for each declared strategy parameter, of the value type it takes
_PARAM_DOMAINS = {
    "alpha": st.one_of(
        _float_ranges(),
        _float_ranges(positive=True),
        _int_ranges(0, 3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique_by=canonical_float).map(
            lambda values: Choice(tuple(values))
        ),
    ),
    "use_predictions": st.permutations([True, False]).flatmap(
        lambda order: st.integers(1, 2).map(lambda n: Choice(tuple(order[:n])))
    ),
}


@st.composite
def _spaces(draw) -> SearchSpace:
    """A space over any registered preset, any subset of its parameters."""
    name = draw(st.sampled_from(list(STRATEGIES)))
    keys = draw(st.lists(st.sampled_from(sorted(STRATEGIES.params_of(name)) or [""]), unique=True))
    params = tuple((key, draw(_PARAM_DOMAINS[key])) for key in keys if key)
    split = draw(st.sampled_from([(False,), (True,), (False, True), (True, False)]))
    threshold = draw(
        st.one_of(
            st.none(),
            _int_ranges(1, 10**6),
            st.lists(st.integers(1, 10**6), min_size=1, max_size=3, unique=True).map(
                lambda values: Choice(tuple(values))
            ),
        )
    )
    return SearchSpace(strategy=name, params=params, split=split, split_threshold=threshold)


def _inside(domain, value) -> bool:
    if isinstance(domain, Choice):
        return value in domain.values
    if isinstance(domain, IntRange) and (isinstance(value, bool) or not isinstance(value, int)):
        return False
    return domain.lo <= value <= domain.hi


class TestSearchSpaceProperties:
    @settings(max_examples=80, deadline=None)
    @given(_spaces())
    def test_canonical_and_dict_forms_round_trip(self, space):
        parsed = parse_space(space.canonical(), split=space.split, split_threshold=space.split_threshold)
        assert parsed == space and parsed.canonical() == space.canonical()
        assert SearchSpace.from_dict(space.to_dict()) == space
        assert SearchSpace.from_dict(json.loads(json.dumps(space.to_dict()))) == space

    @settings(max_examples=60, deadline=None)
    @given(_spaces(), st.integers(1, 4))
    def test_grid_size_counts_the_grid(self, space, resolution):
        assert space.grid_size(resolution) == len(space.grid(resolution))

    @settings(max_examples=60, deadline=None)
    @given(_spaces(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_every_config_resolves_and_lies_inside_its_domains(self, space, resolution, seed):
        rng = np.random.default_rng(seed)
        configs = space.grid(resolution) + [space.sample(rng) for _ in range(4)]
        domains = dict(space.params)
        for config in configs:
            entry, params = STRATEGIES.resolve(config.strategy)
            assert entry.name == space.strategy
            assert set(params) == set(domains)
            for key, value in params.items():
                assert _inside(domains[key], value), (key, value, domains[key])
            assert config.split in space.split
            if space.split_threshold is None:
                assert config.split_threshold is None
            else:
                assert _inside(space.split_threshold, config.split_threshold)


# --------------------------------------------------------------------------- #
# searchers
# --------------------------------------------------------------------------- #
def _alpha_of(config: TuneConfig) -> float:
    spec = parse_spec(config.strategy)
    return float(dict(spec.params).get("alpha", 0.5))


def _closest_to(target: float):
    def evaluate(configs, rung):
        return [abs(_alpha_of(c) - target) for c in configs]

    return evaluate


class TestSearchers:
    def test_grid_runs_every_point_once(self):
        space = parse_space(SPACE)
        outcome = GridSearcher(resolution=5).run(
            space, np.random.default_rng(0), _closest_to(0.3)
        )
        assert len(outcome.trials) == 5
        assert all(len(t.scores) == 1 for t in outcome.trials)
        assert _alpha_of(outcome.ranked()[0].config) == 0.25

    def test_random_draws_distinct_configs(self):
        space = parse_space(SPACE)
        outcome = RandomSearcher(samples=6).run(
            space, np.random.default_rng(1), _closest_to(0.5)
        )
        keys = [t.config.key for t in outcome.trials]
        assert len(keys) == len(set(keys)) == 6

    def test_halving_ladder_fractions(self):
        rungs = HalvingSearcher(samples=8, eta=2, rungs=3).ladder()
        assert [r.scale_fraction for r in rungs] == [0.25, 0.5, 1.0]
        assert [r.subset_fraction for r in rungs] == [1.0, 1.0, 1.0]
        both = HalvingSearcher(samples=8, eta=2, rungs=2, fidelity="both").ladder()
        assert [(r.scale_fraction, r.subset_fraction) for r in both] == [(0.5, 0.5), (1.0, 1.0)]

    def test_halving_promotes_top_fraction(self):
        space = parse_space(SPACE)
        searcher = HalvingSearcher(samples=8, eta=2, rungs=2)
        outcome = searcher.run(space, np.random.default_rng(2), _closest_to(0.4))
        by_rung = {0: 0, 1: 0}
        for trial in outcome.trials:
            for rung_index, _ in trial.scores:
                by_rung[rung_index] += 1
        assert by_rung == {0: 8, 1: 4}
        # the winner reached the deepest rung
        assert outcome.ranked()[0].last_rung == 1

    def test_halving_plan_counts(self):
        searcher = HalvingSearcher(samples=8, eta=2, rungs=3)
        plan = searcher.plan(parse_space(SPACE))
        assert [count for count, _, _ in plan] == [8, 4, 2]

    def test_make_searcher_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_searcher("no-such-searcher")
        with pytest.raises(ValueError):
            make_searcher("halving(eta=1)")
        with pytest.raises(ValueError):
            make_searcher("halving(bogus=2)")

    def test_deterministic_tie_break_by_key(self):
        space = parse_space(SPACE)
        outcome = GridSearcher(resolution=3).run(
            space, np.random.default_rng(0), lambda cs, r: [1.0] * len(cs)
        )
        ranked = [t.config.key for t in outcome.ranked()]
        assert ranked == sorted(ranked)


# --------------------------------------------------------------------------- #
# objectives
# --------------------------------------------------------------------------- #
class TestObjectives:
    def test_registry_resolution(self):
        for name in ("makespan", "peak-memory", "avg-memory", "weighted"):
            assert make_objective(name) is not None
        with pytest.raises(ValueError):
            make_objective("no-such-objective")

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            make_objective("weighted(memory=0.0,time=0.0)")
        with pytest.raises(ValueError):
            make_objective("weighted(memory=-1.0)")

    def test_aggregate_mean(self):
        assert aggregate([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            aggregate([])

    def test_bootstrap_ci_deterministic(self):
        scores = [3.0, 1.0, 2.0, 5.0, 4.0]
        a = bootstrap_ci(scores, seed=7)
        b = bootstrap_ci(scores, seed=7)
        assert a == b
        assert a[0] <= a[1]
        assert bootstrap_ci(scores, seed=8) != a

    def test_bootstrap_ci_degenerates_on_single_score(self):
        assert bootstrap_ci([2.5], seed=0) == (2.5, 2.5)

    def test_mixed_seed_stable_and_label_sensitive(self):
        assert mixed_seed(7, "a") == mixed_seed(7, "a")
        assert mixed_seed(7, "a") != mixed_seed(7, "b")


# --------------------------------------------------------------------------- #
# TuneSpec
# --------------------------------------------------------------------------- #
class TestTuneSpec:
    def test_round_trip(self):
        spec = _tune_spec("halving(samples=4,eta=2,rungs=2)")
        again = TuneSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_canonicalises_searcher_and_objective(self):
        spec = _tune_spec("halving")
        assert spec.searcher == "halving(eta=2,fidelity=scale,rungs=3,samples=8)"
        assert spec.objective == "peak-memory"

    def test_rejects_bool_nprocs(self):
        with pytest.raises(ValueError):
            TuneSpec(space=parse_space(SPACE), problems=["XENON2"], nprocs=True)

    def test_needs_problems(self):
        with pytest.raises(ValueError):
            TuneSpec(space=parse_space(SPACE), problems=[])

    def test_planned_evaluations(self):
        spec = _tune_spec("halving(samples=4,eta=2,rungs=2)")
        assert spec.planned_evaluations() == 6  # 4 at rung 0 + 2 at rung 1
        grid = _tune_spec("grid(resolution=8)")
        assert grid.planned_evaluations() == 8


# --------------------------------------------------------------------------- #
# the Tuner: determinism, resume, racing-beats-grid
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference_board(tmp_path_factory):
    """The uninterrupted halving tune every other run must match byte for byte."""
    store = tmp_path_factory.mktemp("tune-ref") / "store"
    spec = _tune_spec("halving(samples=4,eta=2,rungs=2)")
    with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
        board = Tuner(session, spec, store=str(store)).run()
        runs = dict(session.engine.stage_runs)
    return spec, board, runs


class TestTunerDeterminism:
    def test_same_seed_twice_is_byte_identical(self, tmp_path, reference_board):
        spec, board, _ = reference_board
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            again = Tuner(session, spec, store=str(tmp_path / "store")).run()
        assert again.to_bytes() == board.to_bytes()

    def test_different_seed_differs(self, tmp_path, reference_board):
        spec, board, _ = reference_board
        other = _tune_spec("halving(samples=4,eta=2,rungs=2)", seed=99)
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            again = Tuner(session, other, store=str(tmp_path / "store")).run()
        assert again.to_bytes() != board.to_bytes()

    def test_artifact_save_load_round_trip(self, tmp_path, reference_board):
        _, board, _ = reference_board
        path = board.save(tmp_path / "leaderboard.json")
        loaded = Leaderboard.load(path)
        assert loaded.to_bytes() == board.to_bytes()
        # the on-disk bytes ARE the canonical encoding
        assert path.read_bytes() == board.to_bytes()

    def test_artifact_carries_no_wall_clock(self, reference_board):
        _, board, _ = reference_board
        payload = json.dumps(board.to_dict())
        for forbidden in ("timestamp", "created_at", "elapsed", "computed", "skipped"):
            assert forbidden not in payload

    def test_entries_ranked_and_scored(self, reference_board):
        spec, board, _ = reference_board
        assert [e.rank for e in board.entries] == list(range(1, len(board.entries) + 1))
        assert board.best is board.entries[0]
        assert board.entries[0].rung >= board.entries[-1].rung
        for entry in board.entries:
            assert entry.ci_low <= entry.ci_high
            assert set(entry.per_problem) <= set(spec.problems)
        assert board.evaluations == 6

    def test_evaluations_counted_via_stage_runs(self, reference_board):
        _, board, runs = reference_board
        assert runs["simulate"] == board.evaluations == 6


class TestTunerResume:
    def test_interrupt_then_resume_recomputes_only_missing(self, tmp_path):
        store = tmp_path / "store"
        spec = _tune_spec("grid(resolution=5)")

        class Interrupter:
            def __init__(self, after: int) -> None:
                self.after = after
                self.seen = 0

            def __call__(self, event) -> None:
                self.seen += 1
                if self.seen >= self.after:
                    raise KeyboardInterrupt("simulated interrupt")

        # interrupted run (in-process: every completed case is durable
        # before the interrupt fires)
        with open_session(
            nprocs=NPROCS, scale=SCALE, cache_dir="", progress=Interrupter(after=2)
        ) as session:
            with pytest.raises(KeyboardInterrupt):
                Tuner(session, spec, store=str(store)).run()
            interrupted_runs = session.engine.stage_runs["simulate"]
        assert 0 < interrupted_runs < 5

        # resumed run recomputes ONLY the missing evaluations
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            board = Tuner(session, spec, store=str(store)).run()
            assert session.engine.stage_runs["simulate"] == 5 - interrupted_runs

        # and the artifact is byte-identical to an uninterrupted fresh run
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            fresh = Tuner(session, spec, store=str(tmp_path / "fresh")).run()
        assert board.to_bytes() == fresh.to_bytes()

    def test_rerun_over_complete_store_touches_no_engine(self, tmp_path, reference_board):
        spec, board, _ = reference_board
        store = tmp_path / "store"
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            Tuner(session, spec, store=str(store)).run()
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            again = Tuner(session, spec, store=str(store)).run()
            assert sum(session.engine.stage_runs.values()) == 0
        assert again.to_bytes() == board.to_bytes()


class TestHalvingBeatsGrid:
    def test_halving_runs_fewer_simulate_stages_than_grid(self, tmp_path, reference_board):
        _, _, halving_runs = reference_board
        grid_spec = _tune_spec("grid(resolution=8)")
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            Tuner(session, grid_spec, store=str(tmp_path / "store")).run()
            grid_runs = dict(session.engine.stage_runs)
        assert halving_runs["simulate"] < grid_runs["simulate"]
        assert grid_runs["simulate"] == 8


class TestStoreKeyCollision:
    def test_tuned_keys_collide_with_hand_written_specs(self, tmp_path):
        """A hand-written sweep over the sampled spec hits the tune store."""
        store = tmp_path / "store"
        spec = _tune_spec("random(samples=2)")
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            Tuner(session, spec, store=str(store)).run()
        config = spec.space.sample(np.random.default_rng(spec.seed))
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            view = session.sweep(
                problems=["XENON2"],
                strategies=[config.strategy],  # the canonical rendering, retyped
                split=[config.split],
                nprocs=[NPROCS],
                scale=[SCALE],
                store=str(store),
            )
            assert view.computed == 0 and view.skipped == 1
            assert sum(session.engine.stage_runs.values()) == 0


class TestRungModel:
    def test_rung_full_property(self):
        assert Rung(index=0).full
        assert not Rung(index=0, scale_fraction=0.5).full
