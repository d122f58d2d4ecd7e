import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (AbsCoordMinusC, ConfigError, ConstantRelaxation,
                    Constraint, ControlError, Cyclic, Explicit, Halfspace,
                    Harmonic, Intermittent, MaxAffine, MaxDisplacement, MaxViolation,
                    PhiOne, PoolIndexError, Problem, QuadCoordMinusC,
                    RandomSets, RemotestSet, Repetitive, RunConfig, Sublevel,
                    UniformOverActive, empirical_well_matched,
                    positivity_diagnostic, solve)


def a2_problem():
    return Problem(2, [Constraint(0, Sublevel(AbsCoordMinusC(axis=1, c=1.0))),
                       Constraint(1, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))])


def test_cyclic_order(axis_halfspaces):
    c = Cyclic([0, 1])
    x = np.zeros(2)
    assert c.indices(0, x, axis_halfspaces) == (0,)
    assert c.indices(1, x, axis_halfspaces) == (1,)
    assert c.indices(2, x, axis_halfspaces) == (0,)


def test_cyclic_is_the_intermittent_control_of_singletons():
    pool = Problem(1, [Constraint(i, Halfspace([1.0], float(i))) for i in range(5)])
    x = np.zeros(1)
    for order in ([0], [3, 1, 4, 1, 0], range(5), [np.int64(2), 4.0]):
        cyclic = Cyclic(order)
        inter = Intermittent([(i,) for i in cyclic.order])
        assert cyclic.max_card == inter.max_card == 1
        for k in range(12):
            got = cyclic.indices(k, x, pool)
            assert got == inter.indices(k, x, pool)
            assert type(got) is tuple and type(got[0]) is int
    assert (Cyclic.kind, Intermittent.kind) == ("cyclic", "intermittent")
    assert Repetitive(lambda k: (0, 1), max_card=2).max_card == 2
    assert RemotestSet().max_card == MaxViolation().max_card == 1


def test_remotest_picks_largest_distance(axis_halfspaces):
    c = RemotestSet()
    assert c.indices(0, np.array([2.0, 1.0]), axis_halfspaces) == (0,)
    assert c.indices(0, np.array([1.0, 2.0]), axis_halfspaces) == (1,)


def test_remotest_needs_an_exact_distance():
    hull = Sublevel(MaxAffine([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)]))
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0)), Constraint(1, hull)])
    with pytest.raises(ControlError, match="^remotest control needs an exact "
                                           "distance for constraint 1$"):
        RemotestSet().indices(0, np.array([2.0, 2.0]), p)


def test_max_violation_on_a2():
    p = a2_problem()
    # f1(2,2) = 1, f2(2,2) = 3
    assert MaxViolation().indices(0, np.array([2.0, 2.0]), p) == (1,)


def test_max_displacement(axis_halfspaces):
    c = MaxDisplacement()
    assert c.indices(0, np.array([0.5, 3.0]), axis_halfspaces) == (1,)


def test_maximal_requires_finite_pool():
    p = Problem(1, pool=lambda i: Constraint(i, Halfspace([1.0], float(i))),
                m=math.inf)
    with pytest.raises(ControlError, match="maximal control requires finite pool"):
        RemotestSet().indices(0, np.array([0.0]), p)


def test_out_of_pool_index_raises(axis_halfspaces):
    with pytest.raises(PoolIndexError):
        Cyclic([5]).indices(0, np.zeros(2), axis_halfspaces)


def test_out_of_pool_index_raises_at_the_step_that_emits_it(axis_halfspaces):
    c = Explicit([(0,), (1,), (5,)])
    x = np.zeros(2)
    assert c.indices(0, x, axis_halfspaces) == (0,)
    assert c.indices(1, x, axis_halfspaces) == (1,)
    with pytest.raises(PoolIndexError, match=r"^index out of pool: 5$"):
        c.indices(2, x, axis_halfspaces)
    # The first index outside the pool in emission order, not the largest.
    c = Intermittent([(0, 1), (1, 5, 7, 0)])
    assert c.indices(0, x, axis_halfspaces) == (0, 1)
    with pytest.raises(PoolIndexError, match=r"^index out of pool: 5$"):
        c.indices(1, x, axis_halfspaces)
    with pytest.raises(PoolIndexError, match=r"^index out of pool: -1$"):
        Cyclic([1, -1]).indices(1, x, axis_halfspaces)
    c = RandomSets([((0,), 0.5), ((1, 2), 0.5)], seed=3)
    wide = Problem(2, [Constraint(i, Halfspace([1.0, 0.0], 0.0)) for i in range(3)])
    draws = [c.indices(k, x, wide) for k in range(20)]
    assert set(draws) == {(0,), (1, 2)}
    for k, drawn in enumerate(draws):
        if drawn == (1, 2):
            with pytest.raises(PoolIndexError, match=r"^index out of pool: 2$"):
                c.indices(k, x, axis_halfspaces)
        else:
            assert c.indices(k, x, axis_halfspaces) == (0,)
    c = Repetitive(lambda k: (0,) if k < 3 else (1, 3), max_card=2)
    assert [c.indices(k, x, axis_halfspaces) for k in range(3)] == [(0,)] * 3
    with pytest.raises(PoolIndexError, match=r"^index out of pool: 3$"):
        c.indices(3, x, axis_halfspaces)


def explicit_run(problem, sets, x0):
    return RunConfig(problem=problem, control=Explicit(sets),
                     relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                     phi=PhiOne(), weights=UniformOverActive(), x0=x0)


def test_a_run_meets_a_bad_set_only_when_it_gets_there(axis_halfspaces):
    # From (1, 1) the steps on C_0 and C_1 reach the feasible set at k = 2,
    # whose test comes before the control is asked for I_2.
    result = solve(explicit_run(axis_halfspaces, [(0,), (1,), (5,)], [1.0, 1.0]))
    assert result.status == "feasible" and result.k_feasible == 2
    # Two steps on C_1 leave C_0 violated: the run asks for I_2, which
    # holds the index outside the pool; without it the run gets as far as
    # the end of the list.
    with pytest.raises(PoolIndexError, match=r"^index out of pool: 5$"):
        solve(explicit_run(axis_halfspaces, [(1,), (1,), (5,)], [1.0, 1.0]))
    with pytest.raises(ControlError, match="exhausted at step 2"):
        solve(explicit_run(axis_halfspaces, [(1,), (1,)], [1.0, 1.0]))


def test_index_set_faults_are_config_errors_at_construction(axis_halfspaces):
    # The constructors raised ControlError("control emitted ...") before
    # anything was emitted; now the fault names the set by its field path.
    for make, message in [
            (lambda: Intermittent([(0,), (1, 1)]), "blocks[1] has duplicate indices (1, 1)"),
            (lambda: Explicit([(0,), ()]), "sets[1] is empty"),
            (lambda: RandomSets([((0,), 0.5), ((), 0.5)], seed=1),
             "atoms[1].indices is empty"),
            (lambda: RandomSets([((0, 1, 0), 1.0)], seed=1),
             "atoms[0].indices has duplicate indices (0, 1, 0)")]:
        with pytest.raises(ConfigError) as err:
            make()
        assert type(err.value) is ConfigError and str(err.value) == message
    # What a Repetitive callable emits is still a ControlError.
    x = np.zeros(2)
    for emitted, message in [((0, 0), "control emitted duplicate indices (0, 0)"),
                             ((), "control emitted an empty index set")]:
        control = Repetitive(lambda k, s=emitted: s, max_card=2)
        with pytest.raises(ControlError) as err:
            control.indices(0, x, axis_halfspaces)
        assert str(err.value) == message


def test_lazy_pools_materialize_every_emitted_index():
    made = []

    def pool(i):
        made.append(i)
        return Constraint(i, Halfspace([1.0], float(i)))

    # is_lazy and is_finite are plain attributes, as every emission reads them.
    listed = Problem(1, [Constraint(0, Halfspace([1.0], 0.0))])
    p = Problem(1, pool=pool, m=10)
    infinite = Problem(1, pool=pool, m=math.inf)
    assert [(q.is_lazy, q.is_finite) for q in (listed, p, infinite)] == \
        [(False, True), (True, True), (True, False)]
    assert all({"is_lazy", "is_finite"} <= vars(q).keys() for q in (listed, p, infinite))
    x = np.zeros(1)
    assert Intermittent([(4, 2, 7)]).indices(0, x, p) == (4, 2, 7)
    assert made == [4, 2, 7]
    with pytest.raises(PoolIndexError, match=r"^index out of pool: 10$"):
        Cyclic([3, 10]).indices(1, x, p)
    assert made == [4, 2, 7]
    assert Cyclic([123456]).indices(0, x, infinite) == (123456,)
    assert made[-1] == 123456
    wrong = Problem(1, pool=lambda i: Constraint(0, Halfspace([1.0], 0.0)), m=3)
    with pytest.raises(ConfigError, match="pool returned constraint with index 0 for 2"):
        Cyclic([2]).indices(0, x, wrong)


def test_emission_validation(axis_halfspaces):
    with pytest.raises(ControlError):
        Repetitive(lambda k: ()).indices(0, np.zeros(2), axis_halfspaces)
    with pytest.raises(ControlError):
        Repetitive(lambda k: (0, 0)).indices(0, np.zeros(2), axis_halfspaces)
    with pytest.raises(ControlError):
        # emits two indices with declared max_card 1
        Repetitive(lambda k: (0, 1), max_card=1).indices(
            0, np.zeros(2), axis_halfspaces)


def test_explicit_exhausted(axis_halfspaces):
    c = Explicit([(0,), (1,)])
    assert c.indices(1, np.zeros(2), axis_halfspaces) == (1,)
    with pytest.raises(ControlError, match="exhausted"):
        c.indices(2, np.zeros(2), axis_halfspaces)


def test_well_matched_cyclic_hits(axis_halfspaces):
    p = axis_halfspaces
    probes = [np.array([1.0, 1.0]), np.array([0.5, -1.0]), np.array([-1.0, 2.0])]
    rep = empirical_well_matched(Cyclic([0, 1]), p, probes, horizon=4)
    assert rep.ok
    assert all(pr.hits >= 1 for pr in rep.probes)
    assert "no violation found" in rep.summary()


def test_well_matched_horizon_is_an_integer(axis_halfspaces):
    # True ran as a horizon of 1, and 10.0 or "10" raised a TypeError.
    probes = [np.array([1.0, 1.0])]
    for horizon in (True, 2.5, "10"):
        with pytest.raises(ConfigError, match="^horizon must be an integer"):
            empirical_well_matched(Cyclic([0, 1]), axis_halfspaces, probes, horizon)
    rep = empirical_well_matched(Cyclic([0, 1]), axis_halfspaces, probes, 10.0)
    assert rep.horizon == 10 and type(rep.horizon) is int
    assert rep.summary() == "no violation found within horizon 10 (1 probes)"


def test_well_matched_flags_starved_index(axis_halfspaces):
    # control never emits index 0; probe violates only C_0
    control = Explicit([(1,)] * 20)
    probe = np.array([1.0, -1.0])
    rep = empirical_well_matched(control, axis_halfspaces, [probe], horizon=20)
    assert not rep.ok
    assert rep.probes[0].hits == 0
    assert "necessary condition failed" in rep.summary()


def test_well_matched_random_frequency():
    m, n = 4, 1000
    p = Problem(2, [Constraint(i, Halfspace([1.0, 0.0], -float(i))) for i in range(m)])
    control = RandomSets.uniform_singletons(m, seed=42)
    x = np.array([-1.5, 0.0])  # violates constraints with i > 1.5: {2, 3}... check below
    viol = [i for i in range(m) if not p.constraint(i).violation(x) <= 0.0]
    rep = empirical_well_matched(control, p, [x], horizon=n)
    prob = len(viol) / m
    sigma = math.sqrt(prob * (1 - prob) / n)
    assert abs(rep.probes[0].hits / n - prob) <= 5 * sigma


def test_positivity_worked_examples(axis_halfspaces):
    p = axis_halfspaces
    probe_c1 = np.array([-1.0, 1.0])  # violates only the second set (index 1)
    uniform = RandomSets([((0,), 0.5), ((1,), 0.5)], seed=1)
    rep = positivity_diagnostic(uniform, p, [probe_c1])
    assert rep.probes[0][1] == 0.5 and rep.ok

    only_first = RandomSets([((0,), 1.0)], seed=1)
    rep = positivity_diagnostic(only_first, p, [probe_c1])
    assert rep.probes[0][1] == 0.0 and not rep.ok

    mixed = RandomSets([((0, 1), 0.3), ((0,), 0.7)], seed=1)
    rep = positivity_diagnostic(mixed, p, [probe_c1])
    assert rep.probes[0][1] == 0.3 and rep.ok


def covers_every_window(control, problem, span, starts):
    """Structural repetitiveness of a nonadaptive control: the union of each
    window of ``span`` consecutive emissions covers the whole pool."""
    x = np.zeros(problem.dim)
    emitted = [set(control.indices(k, x, problem)) for k in range(starts + span)]
    return all(set(problem.indices()) <= set().union(*emitted[n:n + span])
               for n in range(starts))


def test_structural_repetitiveness_windows():
    pool = lambda m: Problem(1, [Constraint(i, Halfspace([1.0], float(i)))
                                 for i in range(m)])
    s = 3
    assert covers_every_window(Cyclic([0, 1, 2]), pool(3), s, starts=3 * s)
    inter = Intermittent([(0, 1), (2,), (1, 3)])
    span = len(inter.blocks)
    assert covers_every_window(inter, pool(4), span, starts=3 * span)
    assert not covers_every_window(Cyclic([0, 1]), pool(3), 2, starts=6)


def test_random_sets_every_index_appears(axis_halfspaces):
    m = 6
    p = Problem(1, [Constraint(i, Halfspace([1.0], float(i))) for i in range(m)])
    control = RandomSets([((i,), 1.0 / m) for i in range(m)], seed=2024)
    seen = set()
    x = np.array([0.0])
    for k in range(10_000):
        seen.update(control.indices(k, x, p))
    assert seen == set(range(m))


def test_random_sets_deterministic_and_counter_based(axis_halfspaces):
    c1 = RandomSets.uniform_singletons(2, seed=99)
    c2 = RandomSets.uniform_singletons(2, seed=99)
    x = np.zeros(2)
    seq1 = [c1.indices(k, x, axis_halfspaces) for k in range(200)]
    seq2 = [c2.indices(k, x, axis_halfspaces) for k in range(200)]
    assert seq1 == seq2
    # draw at k is independent of the visiting order
    assert c1.indices(123, x, axis_halfspaces) == seq2[123]
    c3 = RandomSets.uniform_singletons(2, seed=100)
    assert [c3.indices(k, x, axis_halfspaces) for k in range(200)] != seq1


def test_random_sets_validation():
    with pytest.raises(ConfigError, match="sum"):
        RandomSets([((0,), 0.5), ((1,), 0.6)], seed=0)
    with pytest.raises(ConfigError):
        RandomSets([((0,), 1.5), ((1,), -0.5)], seed=0)


def test_probes_must_be_infeasible(axis_halfspaces):
    with pytest.raises(ConfigError):
        empirical_well_matched(Cyclic([0, 1]), axis_halfspaces,
                               [np.array([-1.0, -1.0])], horizon=4)


def reference_draw(seed: int, k: int) -> float:
    """The draw at step k as one generator per step."""
    return float(np.random.Generator(np.random.Philox(key=seed, counter=k)).random())


def test_block_draws_at_block_edges_and_huge_counters():
    block = RandomSets.DRAW_BLOCK
    for seed in (0, 5, 2 ** 64 - 1):
        control = RandomSets.uniform_singletons(3, seed)
        for k in (0, 1, block - 1, block, block + 1, 2 * block - 1, 2 ** 40,
                  2 ** 62, 2 ** 64 - 70, 5, 0):
            assert control.draw_uniform(k) == reference_draw(control.seed, k), (seed, k)


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
       base=st.one_of(st.integers(0, 300), st.integers(0, 2 ** 62)),
       offsets=st.lists(st.integers(-140, 140), min_size=1, max_size=30),
       order=st.sampled_from(["forward", "backward", "as drawn"]))
def test_block_draws_match_one_generator_per_step(seed, base, offsets, order):
    ks = [max(0, base + off) for off in offsets]
    if order != "as drawn":
        ks.sort(reverse=order == "backward")
    control = RandomSets.uniform_singletons(4, seed)
    for k in ks:
        assert control.draw_uniform(k) == reference_draw(control.seed, k), k
