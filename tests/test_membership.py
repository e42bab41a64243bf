import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcantor as qc
from quadcantor import Coding, FieldElement, make_field
from quadcantor.cli import main
from quadcantor.membership import _coding_ratio
from quadcantor.quadring import QuadInt, mul_matrix
from test_holes import _case_two_specs


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
        region = (FieldElement(spec.field.zero), spec.radius_sq)
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
                seen, _ = exhaustive_graph(v, u, spec, spec.disk)
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
                    point.num, point.den, spec, spec.disk
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
            base = spec.radius_sq
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

    def test_value_of_a_digit_from_another_field_raises(self, gauss):
        other = make_field(-2)
        coding = Coding((), (other.element(0), other.element(2)))
        with pytest.raises(qc.FieldError):
            qc.coding_value(coding, gauss.element(3))

    def test_value_of_int_digits_is_that_of_rational_integers(self, gauss, cantor):
        # 1/12 = [0](0 2) and 5/12 = [1](0 2) in base 3
        for pre, v in (((0,), 1), ((1,), 5)):
            value = qc.coding_value(Coding(pre, (0, 2)), cantor.beta)
            assert value == FieldElement(gauss.element(v), 12)

    def test_walk_raises_on_a_state_labelled_dead(self, gauss, cantor):
        # a -1 label on a member's walk can only be a wrong label; the walk
        # would index the digits with it and never meet a repeated state
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        v, u = gauss.element(1), 12
        assert qc.coding_of(v, u, spec) is not None
        space = spec._spaces[u]
        x, y = space.d * v.x - space.cux, space.d * v.y - space.cuy
        m00, m01, m10, m11 = spec.beta_matrix
        ax, ay = space.scaled_digits[space.alive[x, y]]
        space.alive[m00 * x + m01 * y - ax, m10 * x + m11 * y - ay] = -1
        with pytest.raises(ArithmeticError, match="labelled dead"):
            qc.coding_of(v, u, spec)

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
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        points = qc.enumerate_level(4, gauss.element(2), spec)
        assert [str(p.value) for p in points] == ["0", "1/4", "3/4", "1"]
        assert list(spec._spaces) == [2**8]


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
        for spec, _, _ in queries:
            spec._spaces.clear()
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
        shuffled = list(queries)
        random.Random(7).shuffle(shuffled)
        assert self.answers(shuffled) == forward
        forks = 0  # states with an alive successor beside a dead one
        members = 0
        for (spec, v, u), (member, coding, count) in forward.items():
            seen, can = exhaustive_graph(v, u, spec, spec.disk)
            for key in seen:
                labels = {w in can for w in _oracle_successors(spec, u, key) if w in seen}
                forks += labels == {True, False}
            assert member == ((v.x, v.y) in can)
            assert count == len(seen)
            assert (coding is not None) == member
            if member:
                assert qc.verify_coding(coding, v, u, spec)
                members += 1
        assert 0 < members < len(forward)
        assert forks > 0

    def test_labels_are_the_lowest_alive_digits(self):
        # after every query each key lies in a region the spec's searches
        # read, the disk or, once published halfway, the cover; its label
        # agrees with the oracle's cycle-reaching set, and an alive key's
        # label is the lowest digit whose successor reaches a cycle
        queries = self.queries()
        random.Random(7).shuffle(queries)
        for spec, v, u in queries:
            spec._spaces.clear()
        reaches = {}  # (spec, u) -> {numerator: reaches a cycle}
        specs = {spec for spec, _, _ in queries}

        def stored():
            return sum(len(space.alive) for spec in specs for space in spec._spaces.values())

        for n, (spec, v, u) in enumerate(queries):
            if n == len(queries) // 2:
                for cover_spec in specs:
                    cover_spec.cover.cells = cover_spec.cover.build(cover_spec)
                before_cover = stored()
            qc.coding_of(v, u, spec)
            space = spec._spaces[u]
            known = reaches.setdefault((spec, u), {})
            for s, label in space.alive.items():
                assert space.inside(*s) or in_cover(spec, space, s)
                key = _numerator(space, s)
                if key not in known:
                    # the disk of twice the radius holds every cell of the cover
                    centre, r2 = spec.disk
                    region = spec.disk if space.inside(*s) else (centre, 4 * r2)
                    seen, can = exhaustive_graph(spec.field.element(*key), u, spec, region)
                    known.update({w: w in can for w in seen})
                assert (label >= 0) == known[key]
                if label >= 0:
                    alive = [known.get(w, False) for w in _oracle_successors(spec, u, key)]
                    assert label == alive.index(True)
        assert stored() > before_cover

    def test_dead_branch_beside_a_member_is_searched_later(self):
        # a member's search stops at its lowest alive digit, so a dead
        # successor under a higher digit stays unlabelled; a query rooted
        # there must still find it dead
        checked = 0
        for spec, v, u in self.queries():
            seen, can = exhaustive_graph(v, u, spec, spec.disk)
            if (v.x, v.y) not in can:
                continue
            succ = _oracle_successors(spec, u, (v.x, v.y))
            low = next(i for i, w in enumerate(succ) if w in can)
            dead = [w for w in succ[low + 1 :] if w in seen and w not in can]
            if not dead:
                continue
            fresh = qc.ifs_new(spec.beta, spec.digits)
            assert qc.is_member(v, u, fresh)
            space = fresh._spaces[u]
            roots = [spec.field.element(*key) for key in dead]
            unlabelled = [
                w for w in roots
                if (space.d * w.x - space.cux, space.d * w.y - space.cuy) not in space.alive
            ]
            for w in unlabelled:
                branch, _ = exhaustive_graph(w, u, spec, spec.disk)
                assert not qc.is_member(w, u, fresh)
                assert qc.coding_of(w, u, fresh) is None
                assert qc.state_count(w, u, fresh) == len(branch)
                checked += 1
        assert checked > 0


def in_cover(spec, space, s):
    """Whether the state s of a space lies in a cell of the spec's published cover."""
    cover = spec.cover
    q = space.u * cover.gd
    return cover.cells is not None and ((s[0] * cover.gn) // q, (s[1] * cover.gn) // q) in cover.cells


def _oracle_successors(spec, u, key):
    """The successors beta*z - a*u of a numerator, in digit order, as pairs."""
    bz = spec.beta * spec.field.element(*key)
    return [((bz - a * u).x, (bz - a * u).y) for a in spec.digits]


def _numerator(space, s):
    """The numerator v over u of the orbit state s = D*v - C*u."""
    x, y = s[0] + space.cux, s[1] + space.cuy
    assert x % space.d == 0 and y % space.d == 0
    return x // space.d, y // space.d


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
            centre, _ = spec.disk
            kinds.add((centre.num.is_zero(), spec.field.s == 1))
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
            centre, r2 = spec.disk
            assert r2 <= spec.radius_sq
            for m in (1, 2, 3):
                bm = spec.beta**m
                for word in itertools.product(spec.digits, repeat=m):
                    num = spec.field.zero
                    for a in word:
                        num = num * spec.beta + a
                    p = FieldElement.from_ratio(num, bm - 1)
                    assert (p - centre).norm() <= r2


# the member-batch benchmark's specs: (d, beta, digits), elements as (x, y)
BATCH_SPECS = (
    (-1, (3, 0), ((0, 0), (2, 0))),
    (-1, (-2, 1), ((0, 0), (1, 0), (2, 0), (3, 0))),
    (-3, (2, 0), ((0, 0), (1, 0))),
)


def cover_specs():
    """Seeded specs over five fields, each with a non-real digit and a cover
    of at most 1024 pieces, so that a few hundred queries pay for it; then
    the member-batch specs."""
    rng = random.Random(3030)
    specs = []
    for d in (-1, -2, -3, -7, -11):
        field = make_field(d)
        found = 0
        while found < 2:
            beta = field.element(rng.randint(-3, 3), rng.randint(-2, 2))
            digits = {
                field.element(rng.randint(-2, 2), rng.randint(-1, 1))
                for _ in range(rng.randint(2, 4))
            }
            if beta.norm() < 3 or len(digits) < 2 or all(a.y == 0 for a in digits):
                continue
            spec = qc.ifs_new(beta, sorted(digits, key=lambda a: (a.x, a.y)))
            if spec.cover.pieces <= 1024:
                specs.append(spec)
                found += 1
    for d, beta, digits in BATCH_SPECS:
        field = make_field(d)
        specs.append(qc.ifs_new(field.element(*beta), [field.element(*a) for a in digits]))
    return specs


def cover_cell(spec, p):
    """The cover cell of the point p: that of D*(p - c) on the grid of side gd/gn."""
    centre, _ = spec.disk
    t = (p - centre) * centre.den
    cover = spec.cover
    q = t.den * cover.gd
    return (t.num.x * cover.gn) // q, (t.num.y * cover.gn) // q


def plain_cover(spec):
    """(``Cover.depth``, ``Cover.build``) the plain way: the least depth t
    with 4*D^2*r'^2*gn^2 <= gd^2*N(beta)^t, stepped up one at a time, and
    the pieces grown through mul_matrix(conj(beta)^j) at each depth j."""
    centre, r2 = spec.disk
    rn, rd = r2.numerator, r2.denominator
    gn, gd = spec.cover.gn, spec.cover.gd
    b = spec.beta.norm()
    t = 0
    while 4 * centre.den**2 * rn * gn**2 > gd**2 * rd * b**t:
        t += 1
    pieces = {(0, 0)}
    for j in range(1, t + 1):
        m00, m01, m10, m11 = mul_matrix(spec.beta.conj() ** j)
        step = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in spec.shifted_digits]
        pieces = {(b * x + ax, b * y + ay) for x, y in pieces for ax, ay in step}

    def ceil_sqrt(n, d):
        k = math.isqrt(n // d)
        return k if k * k * d >= n else k + 1

    nyy = -spec.field.t
    disc = 4 * nyy - spec.field.s ** 2
    rho = 4 * centre.den**2 * rn * b**t
    hx, hy = ceil_sqrt(nyy * rho, disc * rd), ceil_sqrt(rho, disc * rd)
    unit = gd * b**t
    cells = {
        (i, j)
        for x, y in pieces
        for j in range((y - hy) * gn // unit, (y + hy) * gn // unit + 1)
        for i in range((x - hx) * gn // unit, (x + hx) * gn // unit + 1)
    }
    return t, frozenset(cells)


class TestCover:
    def test_short_periodic_points_lie_in_kept_cells(self):
        # every point of S with a purely periodic coding of period <= 4
        checked = 0
        for spec in cover_specs():
            cells = spec.cover.build(spec)
            for m in range(1, 5):
                for word in itertools.product(spec.digits, repeat=m):
                    p = qc.coding_value(Coding((), word), spec.beta)
                    assert cover_cell(spec, p) in cells
                    checked += 1
        assert checked > 1000

    def test_build_matches_the_plain_build(self):
        # the cover specs, then seeded case-(ii) specs with covers of at
        # most 4096 pieces
        specs = cover_specs()
        rng = random.Random(4040)
        specs += [s for s, _ in _case_two_specs(rng, 60) if s.cover.pieces <= 4096]
        depths = set()
        for spec in specs:
            assert (spec.cover.depth, spec.cover.build(spec)) == plain_cover(spec)
            depths.add(spec.cover.depth)
        assert len(specs) >= 60 and len(depths) >= 3

    def test_answers_match_the_oracle_before_and_after_the_cover(self):
        # built members and near misses on fresh specs, in one process; the
        # cover is published by the build rule partway through each spec
        rng = random.Random(6060)
        queries = 0
        for spec in cover_specs():
            phases = {True: 0, False: 0}  # queries with and without the cover
            for _ in range(64):
                coding = Coding(
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(0, 2))),
                    tuple(rng.choice(spec.digits) for _ in range(rng.randint(1, 3))),
                )
                z = qc.coding_value(coding, spec.beta)
                for v in (z.num, z.num + 1, z.num + spec.field.omega):
                    phases[spec.cover.cells is not None] += 1
                    _, can = exhaustive_graph(v, z.den, spec, spec.disk)
                    assert qc.is_member(v, z.den, spec) == ((v.x, v.y) in can)
                    assert qc.coding_of(v, z.den, spec) == exhaustive_coding(v, z.den, spec, can)
            assert phases[True] > 0 and phases[False] > 0
            assert spec.cover.labelled >= spec.cover.pieces
            queries += sum(phases.values())
        assert queries >= 2000

    def test_cover_is_built_once_the_searches_have_paid(self, gauss):
        spec = qc.ifs_new(gauss.element(-2, 1), [gauss.element(k) for k in range(4)])
        cover = spec.cover
        assert (cover.depth, cover.pieces) == (5, 4**5)
        u = 5**4 - 1
        for x, y in itertools.product(range(-u, 2 * u, 7), range(-u, u, 5)):
            qc.is_member(gauss.element(x, y), u, spec)
            assert (cover.cells is not None) == (cover.labelled >= cover.pieces)
            if cover.cells is not None:
                break
        assert cover.cells == cover.build(spec)


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

    def test_int_digits_rejected(self, gauss, cantor):
        # the plain int 0 compares equal to the digit 0 but is no digit
        for coding in (Coding((), (0, 2)), Coding((0,), (gauss.element(0), gauss.element(2)))):
            with pytest.raises(ValueError):
                qc.verify_coding(coding, gauss.element(1), 12, cantor)

    def test_digit_of_another_field_rejected(self, gauss, cantor):
        # the same coordinates as the digits 0 and 2, in Z[sqrt(-2)]
        other = make_field(-2)
        for coding in (
            Coding((), (other.element(0), other.element(2))),
            Coding((other.element(0),), (gauss.element(0), gauss.element(2))),
        ):
            with pytest.raises(ValueError):
                qc.verify_coding(coding, gauss.element(1), 12, cantor)

    def test_digit_of_an_equal_field_accepted(self, gauss, cantor):
        # a field built again is equal to the spec's, though not the same object
        again = make_field(-1)
        assert again is not gauss
        coding = Coding((again.element(0),), (again.element(0), again.element(2)))
        assert qc.verify_coding(coding, gauss.element(1), 12, cantor)

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


DIFF_FIELDS = {d: make_field(d) for d in (-1, -2, -3, -7)}
SMALL = st.integers(min_value=-4, max_value=4)


@st.composite
def spec_and_coding(draw):
    """A random spec over d in DIFF_FIELDS and a random coding in its digits."""
    field = DIFF_FIELDS[draw(st.sampled_from(sorted(DIFF_FIELDS)))]
    beta = draw(
        st.tuples(SMALL, SMALL)
        .map(lambda xy: field.element(*xy))
        .filter(lambda b: b.norm() >= 2)
    )
    digits = draw(st.lists(st.tuples(SMALL, SMALL), min_size=2, max_size=4, unique=True))
    spec = qc.ifs_new(beta, [field.element(*a) for a in digits])
    word = st.sampled_from(spec.digits)
    coding = Coding(
        tuple(draw(st.lists(word, max_size=4))),
        tuple(draw(st.lists(word, min_size=1, max_size=4))),
    )
    return spec, coding


def ring_horner_ratio(coding, beta):
    """The coding's value num/den by QuadInt arithmetic and powers of beta."""

    def horner(word):
        w = beta.field.zero
        for a in word:
            w = w * beta + a
        return w

    bm = beta ** len(coding.period)
    bk = beta ** len(coding.preperiod)
    return horner(coding.preperiod) * (bm - 1) + horner(coding.period), bk * (bm - 1)


class TestVerifyCodingDifferential:
    """The orbit walk against the coding's value, computed in the field."""

    @settings(max_examples=300, deadline=None)
    @given(case=spec_and_coding(), scale=st.integers(1, 5), sign=st.sampled_from((1, -1)), data=st.data())
    def test_walk_agrees_with_the_value(self, case, scale, sign, data):
        spec, coding = case

        def agrees(c, v, u):
            expected = qc.coding_value(c, spec.beta) == FieldElement(v) / u
            assert qc.verify_coding(c, v, u, spec) == expected
            return expected

        z = qc.coding_value(coding, spec.beta)
        # v/u not in lowest terms for scale > 1, and u < 0 for sign -1
        k = sign * scale
        v, u = z.num * k, z.den * k
        assert agrees(coding, v, u)
        assert not agrees(coding, v + 1, u)
        word = (*coding.preperiod, *coding.period)
        j = data.draw(st.integers(0, len(word) - 1))
        other = data.draw(st.sampled_from([a for a in spec.digits if a != word[j]]))
        changed = (*word[:j], other, *word[j + 1 :])
        cut = len(coding.preperiod)
        agrees(Coding(changed[:cut], changed[cut:]), v, u)

    @settings(max_examples=300, deadline=None)
    @given(case=spec_and_coding())
    def test_coding_ratio_is_the_ring_horner_ratio(self, case):
        spec, coding = case
        assert _coding_ratio(coding, spec.beta) == ring_horner_ratio(coding, spec.beta)


def quadint_coding_value(coding, beta):
    """``coding_value`` by its former QuadInt arithmetic, kept as the oracle:
    Horner passes on pairs, then ring products through ``_coerce`` and
    ``FieldElement.from_ratio``."""
    m00, m01, m10, m11 = mul_matrix(beta)
    field = beta.field

    def horner(digits):
        wx = wy = 0
        bx, by = 1, 0
        for a in digits:
            if type(a) is not QuadInt or a.field is not field:
                a = field.zero + a
            wx, wy = m00 * wx + m01 * wy + a.x, m10 * wx + m11 * wy + a.y
            bx, by = m00 * bx + m01 * by, m10 * bx + m11 * by
        return QuadInt(field, wx, wy), QuadInt(field, bx, by)

    wpre, bk = horner(coding.preperiod)
    wper, bm = horner(coding.period)
    return FieldElement.from_ratio(wpre * (bm - 1) + wper, bk * (bm - 1))


@st.composite
def mixed_coding(draw):
    """A random spec and a coding whose digits are its own, plain ints, or
    (sometimes) one element of another field."""
    spec, _ = draw(spec_and_coding())
    digit = st.one_of(st.sampled_from(spec.digits), SMALL)
    word = list(draw(st.lists(digit, max_size=8)))
    if draw(st.booleans()):
        other = make_field(-5)  # not among DIFF_FIELDS
        word.insert(draw(st.integers(0, len(word))), other.element(*draw(st.tuples(SMALL, SMALL))))
    cut = draw(st.integers(0, len(word)))
    return spec, Coding(tuple(word[:cut]), (*word[cut:], draw(digit)))


class TestCodingValueDifferential:
    @settings(max_examples=300, deadline=None)
    @given(case=mixed_coding())
    def test_matches_quadint_arithmetic(self, case):
        spec, coding = case
        try:
            expected = quadint_coding_value(coding, spec.beta)
        except qc.FieldError:
            with pytest.raises(qc.FieldError):
                qc.coding_value(coding, spec.beta)
            return
        got = qc.coding_value(coding, spec.beta)
        assert got == expected
        assert (got.num.x, got.num.y, got.den) == (expected.num.x, expected.num.y, expected.den)


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

    def test_threaded_codings_and_state_counts_match_sequential(self):
        # each run starts from fresh specs, so threads meet states that
        # another thread's search has started and not labelled yet; a short
        # switch interval makes such interleavings frequent
        import sys
        from concurrent.futures import ThreadPoolExecutor

        calls = [
            (fn, spec, v, u)
            for fn in (qc.coding_of, qc.state_count, qc.is_member)
            for spec, v, u in TestKernelQueryOrder.queries()
        ]
        random.Random(31).shuffle(calls)

        def run(mapper):
            fresh = {spec: qc.ifs_new(spec.beta, spec.digits) for _, spec, _, _ in calls}
            return list(mapper(lambda c: c[0](c[2], c[3], fresh[c[1]]), calls))

        sequential = run(map)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = run(lambda fn, items: pool.map(fn, items, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential

    def test_threaded_queries_with_the_cover_published_mid_batch(self):
        # each fresh spec's cover pays for itself after 24 labelled states,
        # so some thread's search builds and publishes it while the other
        # threads search under the disk
        import sys
        from concurrent.futures import ThreadPoolExecutor

        calls = [
            (fn, spec, v, u)
            for fn in (qc.coding_of, qc.state_count, qc.is_member)
            for spec, v, u in TestKernelQueryOrder.queries()
        ]
        random.Random(53).shuffle(calls)

        def run(mapper):
            fresh = {spec: qc.ifs_new(spec.beta, spec.digits) for _, spec, _, _ in calls}
            for spec in fresh.values():
                spec.cover.pieces = 24
            answers = list(mapper(lambda c: c[0](c[2], c[3], fresh[c[1]]), calls))
            assert all(spec.cover.cells is not None for spec in fresh.values())
            return answers

        sequential = run(map)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = run(lambda fn, items: pool.map(fn, items, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential

    def test_walk_searches_a_state_it_finds_unlabelled(self):
        # a concurrent search writes the root's label before those of the
        # states its digits lead to; dropping every other label leaves the
        # walk in that position at each step
        members = 0
        for spec, v, u in TestKernelQueryOrder.queries():
            fresh = qc.ifs_new(spec.beta, spec.digits)
            coding = qc.coding_of(v, u, fresh)
            if coding is None:
                continue
            space = fresh._spaces[u]
            root = (space.d * v.x - space.cux, space.d * v.y - space.cuy)
            labels = space.alive
            space.alive = {root: labels[root]}
            assert qc.coding_of(v, u, fresh) == coding
            assert space.alive.items() <= labels.items()
            members += len(coding.preperiod) + len(coding.period) > 1
        assert members > 0


QUERIES = (qc.is_member, qc.coding_of, qc.state_count)


def verify_coding_query(v, u, spec):
    """``verify_coding`` of a coding over the spec's digits, called as a query."""
    return qc.verify_coding(Coding((), spec.digits), v, u, spec)


class TestQueryInputs:
    """Bad inputs raise before any orbit space is looked up or built."""

    @pytest.mark.parametrize("query", (*QUERIES, verify_coding_query))
    def test_numerator_of_another_field_raises(self, query, cantor):
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        with pytest.raises(qc.FieldError):
            query(make_field(-3).element(1), 4, spec)
        assert not spec._spaces

    @pytest.mark.parametrize("query", (*QUERIES, verify_coding_query))
    def test_numerator_that_is_no_quadint_raises(self, query, gauss, cantor):
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        for v in (1, FieldElement(gauss.one)):
            with pytest.raises(TypeError, match=f"must be a QuadInt, not {type(v).__name__}"):
                query(v, 4, spec)
        assert not spec._spaces

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("u", (2.5, 4.0, True, Fraction(4)))
    def test_denominator_that_is_no_int_raises(self, query, u, gauss, cantor):
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        with pytest.raises(TypeError):
            query(gauss.element(1), u, spec)
        assert not spec._spaces

    @pytest.mark.parametrize("query", QUERIES)
    def test_denominator_below_one_raises(self, query, gauss, cantor):
        spec = qc.ifs_new(cantor.beta, cantor.digits)
        for u in (0, -4):
            with pytest.raises(ValueError):
                query(gauss.element(1), u, spec)
        assert not spec._spaces


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
