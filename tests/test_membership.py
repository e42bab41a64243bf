import itertools
import json
import random
from fractions import Fraction

import pytest

import quadcantor as qc
from quadcantor import Coding, FieldElement, make_field, membership
from quadcantor.cli import main


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


def exhaustive_graph(v, u, spec, region=None):
    """Reachable states and cycle-reaching states of v/u, by brute force.

    The states are numerators over u, pruned to the closed disk
    ``region = (centre, radius_sq)``, by default the 0-centred disk of R'.
    A full breadth-first closure (``seen``), then ``can``: the states from
    which a path of length #seen + 1 leaves.  Such a path must revisit a
    state, so ``can`` is exactly the set of states that reach a cycle.
    """
    if region is None:
        region = (FieldElement(spec.field.zero), qc.bounding_radius_sq(spec))
    centre, r2 = region
    beta = spec.beta
    scaled = [a * u for a in spec.digits]
    memo = {}

    def inside(w):
        key = (w.x, w.y)
        if key not in memo:
            memo[key] = (FieldElement(w, u) - centre).norm() <= r2
        return memo[key]

    if not inside(v):
        return set(), set()
    seen = {(v.x, v.y)}
    frontier = [v]
    while frontier:
        new = []
        for z in frontier:
            bz = beta * z
            for a in scaled:
                w = bz - a
                if inside(w) and (w.x, w.y) not in seen:
                    seen.add((w.x, w.y))
                    new.append(w)
        frontier = new
    depth = len(seen) + 1
    field = spec.field
    # can_reach[key] = a path of length >= L leaves key; iterate L times
    # (the sets only shrink, so a repeat is the fixed point)
    can = set(seen)
    for _ in range(depth):
        nxt = set()
        for key in can:
            z = field.element(*key)
            bz = beta * z
            for a in scaled:
                w = bz - a
                if inside(w) and (w.x, w.y) in can:
                    nxt.add(key)
                    break
        if nxt == can:
            break
        can = nxt
    return seen, can


def exhaustive_member(v, u, spec, region=None):
    return (v.x, v.y) in exhaustive_graph(v, u, spec, region)[1]


def exhaustive_coding(v, u, spec, can):
    """The lowest-alive-digit walk over the oracle's ``can`` set, or None.

    From each state take the lowest digit index whose successor reaches a
    cycle, and cut at the first repeated state.
    """
    if (v.x, v.y) not in can:
        return None
    pos = {(v.x, v.y): 0}
    digits = []
    z = v
    while True:
        for a in spec.digits:
            w = spec.beta * z - a * u
            if (w.x, w.y) in can:
                break
        else:
            raise AssertionError("a state that reaches a cycle has a successor that does")
        digits.append(a)
        z = w
        if (z.x, z.y) in pos:
            cut = pos[z.x, z.y]
            return Coding(tuple(digits[:cut]), tuple(digits[cut:]))
        pos[z.x, z.y] = len(digits)


class TestStateGraph:
    def test_quarter_cycle(self, gauss, cantor):
        v = gauss.element(1)
        seen, can = exhaustive_graph(v, 4, cantor)
        assert seen == {(1, 0), (3, 0)}
        assert qc.state_count(v, 4, cantor) == 2
        assert (1, 0) in can and qc.is_member(v, 4, cantor)

    def test_half_no_cycle(self, gauss, cantor):
        assert not qc.is_member(gauss.element(1), 2, cantor)
        assert qc.state_count(gauss.element(1), 2, cantor) >= 1

    def test_zero_self_loop(self, gauss, cantor):
        # 3*0 - 0 = 0: the root is its own successor under digit 0
        assert qc.state_count(gauss.element(0), 1, cantor) == 1
        assert qc.is_member(gauss.element(0), 1, cantor)

    def test_root_outside_disk(self, gauss, cantor):
        assert qc.state_count(gauss.element(9), 2, cantor) == 0
        assert not qc.is_member(gauss.element(9), 2, cantor)

    def test_separation(self, gauss, cantor):
        seen, _ = exhaustive_graph(gauss.element(1), 4, cantor)
        nodes = [gauss.element(*key) for key in sorted(seen)]
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                assert (nodes[i] - nodes[j]).norm() >= 1

    def test_matches_exhaustive_closure(self, gauss, cantor, gaussian_four, half_field_spec):
        rng = random.Random(41)
        outside = 0
        for spec in (cantor, gaussian_four, half_field_spec):
            field = spec.field
            for _ in range(40):
                u = rng.randint(1, 30)
                v = field.element(rng.randint(-3 * u, 3 * u), rng.randint(-2 * u, 2 * u))
                seen, _ = exhaustive_graph(v, u, spec, qc.orbit_disk(spec))
                assert qc.state_count(v, u, spec) == len(seen)
                outside += not seen
        assert outside > 0

    def test_cli_states_match_exhaustive_closure(self, capsys):
        rng = random.Random(8)
        specs = (("-1", "3", "0,2"), ("-1", "-2+w", "0,1,2,3"), ("-3", "2", "0,1"))
        outside = 0
        for d, beta, digits in specs:
            field = make_field(int(d))
            spec = qc.ifs_new(
                qc.parse_element(beta, field),
                [qc.parse_element(t, field) for t in digits.split(",")],
            )
            for _ in range(12):
                u = rng.randint(1, 20)
                v = field.element(rng.randint(-3 * u, 3 * u), rng.randint(-2 * u, 2 * u))
                point = FieldElement(v, u)
                assert main(
                    ["member", "-d", d, "--beta", beta, "--digits", digits,
                     "--point", f"{qc.element_text(point.num)}/{point.den}"]
                ) == 0
                record = json.loads(capsys.readouterr().out)
                seen, _ = exhaustive_graph(
                    point.num, point.den, spec, qc.orbit_disk(spec)
                )
                assert record["states"] == str(len(seen))
                outside += record["states"] == "0"
        assert outside > 0


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
            assert qc.is_member(z.num, z.den, gaussian_four)

    def test_enlarging_radius_never_changes_answers(self, gauss, cantor, gaussian_four):
        rng = random.Random(23)
        for spec in (cantor, gaussian_four):
            base = qc.bounding_radius_sq(spec)
            for _ in range(60):
                u = rng.randint(1, 32)
                v = gauss.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                got = qc.is_member(v, u, spec)
                region = (FieldElement(spec.field.zero), 4 * base)
                assert got == exhaustive_member(v, u, spec, region)


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


    def test_unreduced_fraction_codes_alike(self):
        # (v*k)/(u*k) explores the same rational states as v/u, so the
        # lowest-alive-digit walk must pick the same digits
        rng = random.Random(606)
        members = 0
        for d, beta in ((-1, (-1, 1)), (-2, (1, 1)), (-3, (1, 1)), (-7, (0, 1)), (-11, (0, 1))):
            field = make_field(d)
            spec = qc.ifs_new(
                field.element(*beta), [field.element(0), field.element(1), field.element(0, 1)]
            )
            for _ in range(12):
                coding = Coding(
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(0, 3))),
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(1, 4))),
                )
                z = qc.coding_value(coding, spec.beta)
                for v in (z.num, z.num + 1):
                    k = rng.randint(2, 9)
                    reduced = qc.coding_of(v, z.den, spec)
                    assert qc.coding_of(v * k, z.den * k, spec) == reduced
                    members += reduced is not None
        assert members >= 60


class TestSpaceCache:
    def test_wall_sweep_explores_one_space(self, gauss, cantor):
        membership._SPACES.clear()
        points = qc.enumerate_level(4, gauss.element(2), cantor)
        assert [str(p.value) for p in points] == ["0", "1/4", "3/4", "1"]
        assert list(membership._SPACES) == [(cantor, 2**8)]


# beta of norm 2 or 3 with digits {0, 1, w}: overlapping or complete digit
# sets, so orbit graphs fork into cycles beside dead branches, and digit 0
# gives the state 0 a self-loop
FORKING_SPECS = ((-1, (1, 1)), (-2, (0, 1)), (-3, (1, 1)), (-7, (0, 1)), (-11, (0, 1)))


class TestKernelQueryOrder:
    @staticmethod
    def queries():
        rng = random.Random(4242)
        out = []
        for d, beta in FORKING_SPECS:
            field = make_field(d)
            spec = qc.ifs_new(
                field.element(*beta), [field.element(0), field.element(1), field.element(0, 1)]
            )
            for _ in range(10):
                coding = Coding(
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(0, 3))),
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(1, 3))),
                )
                z = qc.coding_value(coding, spec.beta)
                out += [(spec, z.num, z.den), (spec, z.num + 1, z.den)]
            for _ in range(14):
                u = rng.randint(1, 12)
                out.append(
                    (spec, field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u)), u)
                )
            out += [(spec, field.zero, u) for u in (1, 2, 3)]
        return out

    @staticmethod
    def answers(queries):
        membership._SPACES.clear()
        got = {}
        for spec, v, u in queries:
            got[spec, v, u] = (
                qc.is_member(v, u, spec),
                qc.coding_of(v, u, spec),
                qc.state_count(v, u, spec),
            )
        return got

    def test_orders_agree_with_each_other_and_exhaustive_search(self):
        queries = self.queries()
        forward = self.answers(queries)
        forks = 0  # states with an alive successor beside a dead one
        for space in membership._SPACES.values():
            for s in space.alive:
                labels = {space.alive[w] for w in _disk_successors(space, s)}
                forks += labels == {True, False}
        shuffled = list(queries)
        random.Random(7).shuffle(shuffled)
        assert self.answers(shuffled) == forward
        assert forks > 0
        members = 0
        for (spec, v, u), (member, coding, count) in forward.items():
            seen, can = exhaustive_graph(v, u, spec, qc.orbit_disk(spec))
            assert member == ((v.x, v.y) in can)
            assert count == len(seen)
            assert (coding is not None) == member
            if member:
                assert qc.verify_coding(coding, v, u, spec)
                members += 1
        assert 0 < members < len(forward)

    def test_alive_keys_are_closed_in_the_disk(self):
        # the labels stand in for successor lists: after every query each
        # key lies in the disk, and each successor in the disk is a key
        queries = self.queries()
        random.Random(7).shuffle(queries)
        membership._SPACES.clear()
        for spec, v, u in queries:
            qc.coding_of(v, u, spec)
            space = membership._SPACES[spec, u]
            for s in space.alive:
                assert space.inside(*s)
                assert all(w in space.alive for w in _disk_successors(space, s))


def _disk_successors(space, s):
    """The successors beta*s - a of an orbit state that lie in the disk."""
    m00, m01, m10, m11 = space.beta_matrix
    x, y = s
    bx, by = m00 * x + m01 * y, m10 * x + m11 * y
    out = [(bx - ax, by - ay) for ax, ay in space.scaled_digits]
    return [w for w in out if space.inside(*w)]


def disk_specs():
    """Seeded random specs over five fields, plus specs with known disks.

    {-1, 1, w} over Z[i] keeps the 0-centred disk (its recentred one is
    larger).  The Cantor set and {0, 1} over base 2 reach their recentred
    disk's boundary at the fixed points 0 and 1, so a centre or radius that
    is off by one step loses members there.
    """
    rng = random.Random(9090)
    specs = []
    for d in (-1, -2, -3, -7, -11):
        field = make_field(d)
        specs.append(
            qc.ifs_new(field.element(1, 1), [field.element(-1), field.element(1), field.omega])
        )
    gauss, eisenstein = make_field(-1), make_field(-3)
    specs.append(qc.ifs_new(gauss.element(3), [gauss.element(0), gauss.element(2)]))
    specs.append(qc.ifs_new(eisenstein.element(2), [eisenstein.element(0), eisenstein.element(1)]))
    while len(specs) < 19:
        field = make_field(rng.choice((-1, -2, -3, -7, -11)))
        beta = field.element(rng.randint(-2, 2), rng.randint(-2, 2))
        digits = {
            field.element(rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(rng.randint(2, 3))
        }
        if not 2 <= beta.norm() <= 3 or len(digits) < 2:
            continue
        specs.append(qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y))))
    return specs


class TestRecentredDisk:
    def test_answers_match_zero_centred_oracle(self):
        rng = random.Random(5150)
        kinds = set()
        members = queries = 0
        for spec in disk_specs():
            centre, _ = qc.orbit_disk(spec)
            kinds.add((centre.num.is_zero(), spec.field.half_basis))
            field = spec.field
            points = [FieldElement.from_ratio(a, spec.beta - 1) for a in spec.digits]
            for _ in range(10):
                coding = Coding(
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(0, 2))),
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(1, 3))),
                )
                z = qc.coding_value(coding, spec.beta)
                points += [z, FieldElement(z.num + 1, z.den)]
            for _ in range(10):
                u = rng.randint(1, 12)
                points.append(
                    FieldElement(field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u)), u)
                )
            for p in points:
                v, u = p.num, p.den
                _, can = exhaustive_graph(v, u, spec)
                member = (v.x, v.y) in can
                assert qc.is_member(v, u, spec) == member
                assert qc.coding_of(v, u, spec) == exhaustive_coding(v, u, spec, can)
                members += member
                queries += 1
        # both disks, in whole- and half-basis fields; members and non-members
        assert {(True, False), (False, False), (False, True)} <= kinds
        assert 0.2 < members / queries < 0.9

    def test_short_periodic_points_inside(self):
        for spec in disk_specs():
            centre, r2 = qc.orbit_disk(spec)
            assert r2 <= qc.bounding_radius_sq(spec)
            for m in (1, 2, 3):
                bm = spec.beta**m
                for word in itertools.product(spec.digits, repeat=m):
                    num = spec.field.zero
                    for a in word:
                        num = num * spec.beta + a
                    p = FieldElement.from_ratio(num, bm - 1)
                    assert (p - centre).norm() <= r2


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

    def test_zero_denominator_rejected(self, gauss, cantor):
        coding = qc.coding_of(gauss.element(0), 1, cantor)
        with pytest.raises(ZeroDivisionError):
            qc.verify_coding(coding, gauss.element(0), 0, cantor)

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
            _, can = exhaustive_graph(v, u, cantor)
            assert len(can) <= qc.period_bound(cantor, u * u)

    def test_state_counts_within_bound(self, gauss, cantor, gaussian_four, half_field_spec):
        # cycle-reaching states fit the bound by the covering argument; the
        # total retained count also stays below it on every tested query
        rng = random.Random(99)
        for spec in (cantor, gaussian_four, half_field_spec):
            field = spec.field
            for _ in range(80):
                u = rng.randint(1, 48)
                v = field.element(rng.randint(-2 * u, 2 * u), rng.randint(-u, u))
                _, can = exhaustive_graph(v, u, spec)
                bound = qc.period_bound(spec, u * u)
                assert len(can) <= bound
                assert qc.state_count(v, u, spec) <= bound
