import random
from fractions import Fraction

import pytest

import quadcantor as qc
from quadcantor import Coding, FieldElement, make_field


@pytest.fixture(scope="module")
def cantor(gauss):
    return qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)])


@pytest.fixture(scope="module")
def gaussian_four(gauss):
    return qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])


@pytest.fixture(scope="module")
def half_field_spec():
    field = make_field(-3)
    return qc.ifs_new(field.element(2), [field.element(0), field.element(1)])


def exhaustive_member(v, u, spec, radius_sq=None):
    """Depth-limited exhaustive digit search with the same disk pruning.

    A path longer than the number of retained states must revisit one, so
    searching to depth (#states + 1) is equivalent to cycle reachability.
    """
    r2 = radius_sq if radius_sq is not None else qc.bounding_radius_sq(spec)
    bn = r2.numerator * u * u
    bd = r2.denominator
    beta = spec.beta
    scaled = [a * u for a in spec.digits]
    if v.norm() * bd > bn:
        return False
    seen = {(v.x, v.y)}
    frontier = [v]
    while frontier:
        new = []
        for z in frontier:
            bz = beta * z
            for a in scaled:
                w = bz - a
                if w.norm() * bd <= bn and (w.x, w.y) not in seen:
                    seen.add((w.x, w.y))
                    new.append(w)
        frontier = new
    depth = len(seen) + 1
    field = spec.field
    # can_reach[key] = a path of length >= L leaves key; iterate L times
    can = set(seen)
    for _ in range(depth):
        nxt = set()
        for key in seen:
            z = field.element(*key)
            bz = beta * z
            for a in scaled:
                w = bz - a
                if w.norm() * bd <= bn and (w.x, w.y) in can:
                    nxt.add(key)
                    break
        can = nxt
    return (v.x, v.y) in can


class TestStateGraph:
    def test_quarter_cycle(self, gauss, cantor):
        graph = qc.build_state_graph(gauss.element(1), 4, cantor)
        keys = {(z.x, z.y) for z in graph.numerators}
        assert keys == {(1, 0), (3, 0)}
        assert graph.has_reachable_cycle

    def test_half_no_cycle(self, gauss, cantor):
        graph = qc.build_state_graph(gauss.element(1), 2, cantor)
        assert not graph.has_reachable_cycle
        assert graph.state_count >= 1

    def test_zero_self_loop(self, gauss, cantor):
        graph = qc.build_state_graph(gauss.element(0), 1, cantor)
        key = (0, 0)
        assert any(s == key for _, s in graph.edges[key])
        assert graph.has_reachable_cycle

    def test_root_outside_disk(self, gauss, cantor):
        graph = qc.build_state_graph(gauss.element(9), 2, cantor)
        assert graph.state_count == 0
        assert not graph.has_reachable_cycle

    def test_separation(self, gauss, cantor):
        graph = qc.build_state_graph(gauss.element(1), 4, cantor)
        nodes = graph.numerators
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                assert (nodes[i] - nodes[j]).norm() >= 1


class TestIsMember:
    def test_examples(self, gauss, cantor):
        assert qc.is_member(gauss.element(1), 4, cantor)
        assert not qc.is_member(gauss.element(1), 2, cantor)
        assert qc.is_member(gauss.element(0), 1, cantor)
        assert qc.is_member(gauss.element(1), 1, cantor)

    def test_fixed_points_of_maps(self, gauss, gaussian_four):
        # a/(beta-1) has the purely periodic coding (a)^inf
        for a in gaussian_four.digits:
            z = FieldElement.from_ratio(a, gaussian_four.beta - 1)
            assert qc.membership_of_value(z, gaussian_four)

    def test_enlarging_radius_never_changes_answers(self, gauss, cantor, gaussian_four):
        rng = random.Random(23)
        for spec in (cantor, gaussian_four):
            base = qc.bounding_radius_sq(spec)
            for _ in range(60):
                u = rng.randint(1, 32)
                v = gauss.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                got = qc.is_member(v, u, spec)
                assert got == qc.is_member(v, u, spec, radius_sq=4 * base)


class TestCoding:
    def test_quarter(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(1), 4, cantor)
        assert coding == Coding((), (gauss.element(0), gauss.element(2)))

    def test_three_quarters(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(3), 4, cantor)
        assert coding == Coding((), (gauss.element(2), gauss.element(0)))

    def test_one(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(1), 1, cantor)
        assert coding == Coding((), (gauss.element(2),))

    def test_nonmember_none(self, gauss, cantor):
        assert qc.coding_of(gauss.element(1), 2, cantor) is None

    def test_nonempty_preperiod(self, gauss, cantor):
        # 1/12 enters the quarter cycle after one step: 3*(1/12) - 0 = 1/4
        coding = qc.coding_of(gauss.element(1), 12, cantor)
        assert coding == Coding(
            (gauss.element(0),), (gauss.element(0), gauss.element(2))
        )
        assert qc.verify_coding(coding, gauss.element(1), 12, cantor)

    def test_geometric_series_value(self, gauss, cantor):
        # period [0, 2]: 2/9 * 1/(1 - 1/9) = 1/4
        coding = qc.coding_of(gauss.element(1), 4, cantor)
        assert qc.coding_value(coding, cantor.beta) == FieldElement(gauss.element(1), 4)

    def test_period_within_bound(self, gauss, cantor, gaussian_four):
        rng = random.Random(77)
        for spec in (cantor, gaussian_four):
            for _ in range(40):
                u = rng.randint(1, 24)
                v = gauss.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                coding = qc.coding_of(v, u, spec)
                if coding is not None:
                    assert len(coding.period) <= qc.period_bound(spec, u * u)


class TestVerifyCoding:
    def test_good_coding(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(1), 4, cantor)
        assert qc.verify_coding(coding, gauss.element(1), 4, cantor)

    def test_corrupted_digit(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(1), 4, cantor)
        bad = Coding(coding.preperiod, (coding.period[1], coding.period[1]))
        assert not qc.verify_coding(bad, gauss.element(1), 4, cantor)

    def test_empty_period_rejected(self, gauss, cantor):
        with pytest.raises(ValueError):
            qc.verify_coding(Coding((), ()), gauss.element(1), 4, cantor)

    def test_foreign_digit_rejected(self, gauss, cantor):
        with pytest.raises(ValueError):
            qc.verify_coding(
                Coding((), (gauss.element(1),)), gauss.element(1), 4, cantor
            )

    def test_all_member_codings_verify(self, gauss, cantor, gaussian_four):
        rng = random.Random(5)
        for spec in (cantor, gaussian_four):
            for _ in range(60):
                u = rng.randint(1, 24)
                v = gauss.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                coding = qc.coding_of(v, u, spec)
                member = qc.is_member(v, u, spec)
                assert (coding is not None) == member
                if coding is not None:
                    assert qc.verify_coding(coding, v, u, spec)


class TestConcurrentQueries:
    def test_threaded_membership_matches_sequential(self, cantor):
        from concurrent.futures import ThreadPoolExecutor

        field = cantor.field
        queries = [
            (field.element(x), u) for u in range(1, 20) for x in range(-u, 2 * u + 1)
        ]
        sequential = [qc.is_member(v, u, cantor) for v, u in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda q: qc.is_member(q[0], q[1], cantor), queries))
        assert threaded == sequential


class TestOracleEquivalence:
    def test_against_exhaustive_search(self, gauss, cantor, gaussian_four, half_field_spec):
        rng = random.Random(123)
        specs = [cantor, gaussian_four, half_field_spec]
        # non-real beta and digits, so every term of both basis products runs
        for d, beta in ((-2, (1, 1)), (-7, (1, 1)), (-11, (0, 1))):
            field = make_field(d)
            specs.append(
                qc.ifs_new(
                    field.element(*beta),
                    [field.element(0), field.element(1), field.element(0, 1)],
                )
            )
        checked = 0
        for spec in specs:
            field = spec.field
            for _ in range(40):
                u = rng.randint(1, 40)
                v = field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                assert qc.is_member(v, u, spec) == exhaustive_member(v, u, spec)
                checked += 1
        assert checked == 240

    def test_alive_states_within_period_bound(self, gauss, cantor):
        for v, u in [(gauss.element(1), 4), (gauss.element(1), 2), (gauss.element(1), 1)]:
            graph = qc.build_state_graph(v, u, cantor)
            assert graph.alive_count <= qc.period_bound(cantor, u * u)

    def test_state_counts_within_bound(self, gauss, cantor, gaussian_four, half_field_spec):
        # cycle-reaching states fit the bound by the covering argument; the
        # total retained count also stays below it on every tested query
        rng = random.Random(99)
        for spec in (cantor, gaussian_four, half_field_spec):
            field = spec.field
            for _ in range(80):
                u = rng.randint(1, 48)
                v = field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                graph = qc.build_state_graph(v, u, spec)
                bound = qc.period_bound(spec, u * u)
                assert graph.alive_count <= bound
                assert graph.state_count <= bound
