import copy

import pytest
from hypothesis import given, settings, strategies as st

from d2dpc import gf2, scheme_a, sim
import oracles


def _keys(equations):
    """Every key of the system, in first-sight order."""
    return list(dict.fromkeys(v for vars_, _ in equations for v in vars_))


def _solve_all(equations):
    return gf2.solve_xor_system(equations, _keys(equations))


def _outcome(solver, equations):
    try:
        return solver(equations)
    except ValueError as err:
        return ("ValueError", str(err))


@st.composite
def consistent_systems(draw):
    """Random consistent XOR systems over several disjoint variable blocks.

    Rows are drawn inside one block, so the blocks are the connected
    components unless a block draws no row.  Single-unknown rows, wider
    rows and exact duplicates are all mixed in, in shuffled order.
    """
    values = {}
    rows = []
    for c in range(draw(st.integers(1, 4))):
        names = [(c, i) for i in range(draw(st.integers(1, 7)))]
        for v in names:
            values[v] = draw(st.integers(0, 255))
        for vars_ in draw(st.lists(st.sets(st.sampled_from(names), min_size=1), max_size=10)):
            rhs = 0
            for v in vars_:
                rhs ^= values[v]
            rows.append((vars_, rhs))
    if rows:
        dups = draw(st.lists(st.sampled_from(rows), max_size=3))
        rows += [(set(vars_), rhs) for vars_, rhs in dups]
    if draw(st.booleans()):
        rows.append((set(), 0))
    return draw(st.permutations(rows)), values


@st.composite
def flipped_systems(draw):
    """A consistent system with one rhs XORed by a nonzero mask."""
    rows, _ = draw(consistent_systems().filter(lambda sv: sv[0]))
    i = draw(st.integers(0, len(rows) - 1))
    vars_, rhs = rows[i]
    rows = list(rows)
    rows[i] = (set(vars_), rhs ^ draw(st.integers(1, 255)))
    return rows


@st.composite
def wanted_keys(draw, equations):
    """None, all or a random subset of the system's keys, plus keys the
    system does not name, in random order."""
    keys = _keys(equations)
    kind = draw(st.sampled_from(["none", "all", "subset"]))
    wanted = {"none": [], "all": keys}.get(kind)
    if wanted is None:
        wanted = [v for v in keys if draw(st.booleans())]
    wanted += draw(st.lists(st.tuples(st.just("absent"), st.integers(0, 3)), max_size=3))
    return draw(st.permutations(wanted))


@st.composite
def wide_systems(draw):
    """One consistent block of up to 40 unknowns, rows of 1-8 of them.

    There are at most as many rows as unknowns, so most systems are rank
    deficient.  The rows that name the free unknowns first come first, so
    those unknowns get the lowest bits and sit below the later pivots:
    back-substitution must clear every lower pivot from a row and keep
    its free bits.
    """
    n = draw(st.integers(2, 40))
    names = [("w", i) for i in range(n)]
    values = dict(zip(names, draw(st.lists(st.integers(0, 2**16 - 1), min_size=n, max_size=n))))
    row_vars = st.sets(st.sampled_from(names), min_size=1, max_size=min(8, n))
    rows = []
    for vars_ in draw(st.lists(row_vars, min_size=1, max_size=n)):
        rhs = 0
        for v in vars_:
            rhs ^= values[v]
        rows.append((vars_, rhs))
    return rows, values


@st.composite
def flipped_wide_systems(draw):
    """A wide system with one rhs XORed by a nonzero mask."""
    rows, _ = draw(wide_systems())
    i = draw(st.integers(0, len(rows) - 1))
    vars_, rhs = rows[i]
    rows[i] = (set(vars_), rhs ^ draw(st.integers(1, 2**16 - 1)))
    return rows


_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(consistent_systems())
def test_consistent_system_matches_full_elimination(system):
    equations, values = system
    before = copy.deepcopy(equations)
    solved = _solve_all(equations)
    assert equations == before  # caller's sets and rhs values untouched
    assert solved == oracles._eliminate(equations)
    assert all(values[v] == x for v, x in solved.items())


@_SETTINGS
@given(flipped_systems())
def test_flipped_system_matches_full_elimination(equations):
    before = copy.deepcopy(equations)
    got = _outcome(_solve_all, equations)
    assert equations == before
    assert got == _outcome(oracles._eliminate, equations)


@_SETTINGS
@given(wide_systems())
def test_wide_rank_deficient_system_matches_full_elimination(system):
    equations, values = system
    before = copy.deepcopy(equations)
    solved = _solve_all(equations)
    assert equations == before
    assert solved == oracles._eliminate(equations)
    assert all(values[v] == x for v, x in solved.items())


@_SETTINGS
@given(flipped_wide_systems())
def test_flipped_wide_system_matches_full_elimination(equations):
    before = copy.deepcopy(equations)
    got = _outcome(_solve_all, equations)
    assert equations == before
    assert got == _outcome(oracles._eliminate, equations)


@_SETTINGS
@given(st.one_of(consistent_systems(), wide_systems()), st.data())
def test_wanted_values_match_full_elimination(system, data):
    equations, _ = system
    wanted = data.draw(wanted_keys(equations))
    before = copy.deepcopy(equations)
    solved = gf2.solve_xor_system(equations, wanted)
    assert equations == before
    assert solved == {v: x for v, x in oracles._eliminate(equations).items() if v in wanted}


@_SETTINGS
@given(st.one_of(flipped_systems(), flipped_wide_systems()), st.data())
def test_wanted_values_raise_like_full_elimination(equations, data):
    wanted = data.draw(wanted_keys(equations))
    got = _outcome(lambda eqs: gf2.solve_xor_system(eqs, wanted), equations)
    expected = _outcome(oracles._eliminate, equations)
    if isinstance(expected, dict):
        expected = {v: x for v, x in expected.items() if v in wanted}
    assert got == expected


def test_free_unknowns_below_pivots_stay_unsolved():
    # a is seen first and takes the lowest bit; it stays free, while b and
    # d are determined only once c's pivot row is cleared from theirs
    eqs = [({"a", "b", "c"}, 7), ({"a", "c"}, 5), ({"a", "c", "d"}, 13)]
    assert _solve_all(eqs) == {"b": 2, "d": 8} == oracles._eliminate(eqs)
    eqs.append(({"a"}, 1))
    assert _solve_all(eqs) == {"a": 1, "b": 2, "c": 4, "d": 8} == oracles._eliminate(eqs)


def test_key_listed_twice_in_one_equation_cancels():
    eqs = [(["a", "b", "a"], 2), (["c", "c"], 0)]
    assert gf2.solve_xor_system(eqs, ["a", "b", "c"]) == {"b": 2}
    with pytest.raises(ValueError, match="inconsistent XOR system"):
        gf2.solve_xor_system([(["c", "c"], 1)], [])


def test_combination_only_variables_are_recovered():
    # no single-unknown row: each value is the XOR of two of the rows
    eqs = [({"a", "b"}, 3), ({"b", "c"}, 6), ({"a", "b", "c"}, 7)]
    assert _solve_all(eqs) == {"a": 1, "b": 2, "c": 4}


def test_peeling_leaves_undetermined_component_unsolved():
    eqs = [({"a"}, 5), ({"a", "b", "c"}, 7), ({"d", "e"}, 1)]
    assert _solve_all(eqs) == {"a": 5}


@pytest.mark.parametrize(
    "eqs",
    [
        [({"a"}, 1), ({"a"}, 2)],  # conflicting peeled values
        [({"a"}, 1), ({"b"}, 2), ({"a", "b"}, 0)],  # peeled down to 0 = 3
        [({"a", "b"}, 1), ({"b", "c"}, 1), ({"a", "c"}, 1)],  # 0 = 1 inside a component
        [(set(), 1)],
    ],
)
def test_inconsistent_systems_raise(eqs):
    # the forward reduction takes every row, wanted or not
    for wanted in (_keys(eqs), []):
        with pytest.raises(ValueError, match="inconsistent XOR system"):
            gf2.solve_xor_system(eqs, wanted)
    with pytest.raises(ValueError, match="inconsistent XOR system"):
        oracles._eliminate(eqs)


def test_receiver_systems_match_full_elimination():
    # the per-sender systems a real receiver solves, with leader-filtered
    # messages (t <= U - N) so that some subfiles need combinations
    p = scheme_a.params_for(3, 2, 2, seed=9)
    tr = sim.run_protocol("A", p, (1, 2, 2))
    for cache in tr.caches:
        known = cache.content
        by_sender = {}
        for m in tr.all_messages():
            unknowns = {sid for sid in m.composition if sid not in known}
            rhs = m.payload
            for sid in m.composition:
                if sid in known:
                    rhs ^= known[sid]
            if unknowns:
                by_sender.setdefault(m.sender, []).append((unknowns, rhs))
        for eqs in by_sender.values():
            assert _solve_all(eqs) == oracles._eliminate(eqs)
