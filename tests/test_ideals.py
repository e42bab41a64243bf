import collections
import math
import random

import pytest

import quadcantor as qc
from quadcantor import IdealHNF, ideals, make_field, ntheory


def _minpoly_value(field, r, p):
    if field.d % 4 == 1:
        return (r * r - r + (1 - field.d) // 4) % p
    return (r * r - field.d) % p


def _brute_roots(field, p):
    return [r for r in range(p) if _minpoly_value(field, r, p) == 0]


def _primes_upto(n):
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n + 1, i):
                sieve[j] = False
    return [i for i, v in enumerate(sieve) if v]


class TestHNF:
    def test_principal_two(self, gauss):
        ideal = qc.ideal_from_generators([gauss.element(2)])
        assert (ideal.a, ideal.b, ideal.c) == (2, 0, 2)
        assert ideal.norm == 4

    def test_one_plus_i(self, gauss):
        ideal = qc.ideal_from_generators([gauss.element(1, 1)])
        assert ideal.norm == 2
        assert ideal.contains(gauss.element(2))  # 2 = (1+i)(1-i)

    def test_redundant_generator(self, gauss):
        lone = qc.ideal_from_generators([gauss.element(1, 1)])
        both = qc.ideal_from_generators([gauss.element(2), gauss.element(1, 1)])
        assert lone == both

    def test_all_zero_rejected(self, gauss):
        with pytest.raises(ValueError):
            qc.ideal_from_generators([gauss.zero])

    def test_invariants_enforced(self, gauss):
        with pytest.raises(ValueError):
            IdealHNF(gauss, 4, 1, 2)  # c does not divide b

    @pytest.mark.parametrize("abc", [(0, 0, 1), (4, 4, 1)], ids=["a below 1", "b not below a"])
    def test_bounds_enforced(self, gauss, abc):
        with pytest.raises(ValueError):
            IdealHNF(gauss, *abc)

    @pytest.mark.parametrize(
        "call",
        [
            lambda i, z: i.contains(z),
            lambda i, z: qc.reduce_mod(z, i),
            lambda i, z: qc.ideal_from_generators([i.basis()[0], z]),
            lambda i, z: qc.ideal_mul(i, qc.principal_ideal(z)),
            lambda i, z: qc.exact_div(i.basis()[0], z),
        ],
        ids=["contains", "reduce_mod", "ideal_from_generators", "ideal_mul", "exact_div"],
    )
    def test_operands_of_another_field_rejected(self, gauss, eisenstein, call):
        ideal = qc.ideal_from_generators([gauss.element(2, 1)])
        with pytest.raises(qc.FieldError):
            call(ideal, eisenstein.element(1, 1))


class TestIdealMul:
    def test_square_of_ramified(self, gauss):
        p = qc.ideal_from_generators([gauss.element(1, 1)])
        assert qc.ideal_mul(p, p) == qc.principal_ideal(gauss.element(2))

    def test_unit_identity(self, gauss):
        ideal = qc.ideal_from_generators([gauss.element(3, 2)])
        assert qc.ideal_mul(ideal, qc.unit_ideal(gauss)) == ideal

    def test_negative_power_rejected(self, gauss):
        with pytest.raises(ValueError):
            qc.ideal_pow(qc.principal_ideal(gauss.element(1, 1)), -1)

    def test_norm_multiplicative_random(self):
        rng = random.Random(7)
        for d in (-1, -2, -3, -7, -11):
            field = make_field(d)
            for _ in range(25):
                g1 = field.element(rng.randint(-20, 20), rng.randint(-20, 20))
                g2 = field.element(rng.randint(-20, 20), rng.randint(-20, 20))
                if g1.is_zero() or g2.is_zero():
                    continue
                i, j = qc.principal_ideal(g1), qc.principal_ideal(g2)
                assert qc.ideal_mul(i, j).norm == i.norm * j.norm


class TestPrimeSplitting:
    def test_two_ramifies_in_gauss(self, gauss):
        s = qc.factor_rational_prime(gauss, 2)
        assert s.kind == "ramified"
        prime = s.primes[0]
        assert (prime.e, prime.f) == (2, 1)
        assert qc.ideal_mul(prime.hnf, prime.hnf) == qc.principal_ideal(gauss.element(2))

    def test_five_splits_in_gauss(self, gauss):
        s = qc.factor_rational_prime(gauss, 5)
        assert s.kind == "split"
        assert sorted(p.root for p in s.primes) == _brute_roots(gauss, 5) == [2, 3]

    def test_three_inert_in_gauss(self, gauss):
        s = qc.factor_rational_prime(gauss, 3)
        assert s.kind == "inert"
        assert s.primes[0].f == 2 and s.primes[0].norm == 9
        assert _brute_roots(gauss, 3) == []

    def test_composite_rejected(self, gauss):
        with pytest.raises(ValueError):
            qc.factor_rational_prime(gauss, 6)

    # non-UFD fields: 2 ramifies in -5 and -6 and splits in -15
    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -11, -15])
    def test_agrees_with_root_search(self, d):
        field = make_field(d)
        for p in _primes_upto(200):
            s = qc.factor_rational_prime(field, p)
            roots = _brute_roots(field, p)
            if not roots:
                assert s.kind == "inert"
            elif field.disc % p == 0:
                assert s.kind == "ramified"
                assert len(roots) == 1 and s.primes[0].root == roots[0]
            else:
                assert s.kind == "split"
                assert sorted(q.root for q in s.primes) == roots
                assert s.primes[0].hnf.conjugate() == s.primes[1].hnf
                assert s.primes[1].hnf.conjugate() == s.primes[0].hnf
            rebuilt = qc.unit_ideal(field)
            mult = 2 if s.kind == "ramified" else 1
            for prime in s.primes:
                rebuilt = qc.ideal_mul(rebuilt, qc.ideal_pow(prime.hnf, mult))
            assert rebuilt == qc.principal_ideal(field.element(p))


class TestConjugate:
    def test_closed_form_matches_generators(self):
        rng = random.Random(11)
        for d in (-1, -2, -3, -5, -6, -7, -11, -15, -21, -23):
            field = make_field(d)
            for _ in range(30):
                gens = [
                    field.element(rng.randint(-30, 30), rng.randint(-30, 30))
                    for _ in range(rng.randint(1, 2))
                ]
                if all(g.is_zero() for g in gens):
                    continue
                ideal = qc.ideal_from_generators(gens)
                conj = ideal.conjugate()
                rebuilt = qc.ideal_from_generators([g.conj() for g in ideal.basis()])
                assert conj == rebuilt
                assert qc.ideal_mul(ideal, conj) == qc.principal_ideal(
                    field.element(ideal.norm)
                )


class TestFactorElement:
    def test_ten(self, gauss):
        fact = qc.factor_element(gauss.element(10))
        by_key = {(p.p, p.root): b for p, b in fact.factors}
        assert by_key == {(2, 1): 2, (5, 2): 1, (5, 3): 1}

    def test_inert_three(self, gauss):
        fact = qc.factor_element(gauss.element(3))
        assert len(fact.factors) == 1
        prime, b = fact.factors[0]
        assert prime.f == 2 and b == 1 and prime.norm == 9

    def test_prime_norm_element(self, gauss):
        alpha = gauss.element(-4, 1)
        fact = qc.factor_element(alpha)
        assert alpha.norm() == 17
        assert len(fact.factors) == 1
        prime, b = fact.factors[0]
        assert b == 1 and prime.p == 17
        # brute root: w = r must make -4 + r vanish mod 17
        assert prime.root == 4 and prime.contains(alpha)

    def test_unit_and_zero_rejected(self, gauss):
        with pytest.raises(ValueError):
            qc.factor_element(gauss.one)
        with pytest.raises(ValueError):
            qc.factor_element(gauss.zero)

    def test_one_primality_proof_per_prime(self, gauss, monkeypatch):
        # norm 2^2 * 3^2 * 1009 * 1013 * 1019^2: the small primes come from
        # trial division, unproven; each larger one is proven exactly once
        proofs = collections.Counter()
        real = ntheory.is_prime

        def counted(n):
            found = real(n)
            proofs[n] += found
            return found

        monkeypatch.setattr(ntheory, "is_prime", counted)
        monkeypatch.setattr(ideals, "is_prime", counted)
        alpha = gauss.element(28, 15) * gauss.element(22, 23) * gauss.element(1019 * 6)
        fact = qc.factor_element(alpha)
        assert sorted({p.p for p in fact.primes}) == [2, 3, 1009, 1013, 1019]
        assert +proofs == collections.Counter({1009: 1, 1013: 1, 1019: 1})
        with pytest.raises(ValueError):
            qc.factor_rational_prime(gauss, 91)

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for d in (-1, -2, -3, -5, -7):
            field = make_field(d)
            done = 0
            while done < 15:
                alpha = field.element(rng.randint(-40, 40), rng.randint(-40, 40))
                if alpha.norm() < 2:
                    continue
                fact = qc.factor_element(alpha)
                rebuilt = ideals.prime_power_product(field, fact.primes, fact.exponents)
                assert rebuilt == qc.principal_ideal(alpha)
                assert math.prod(p.norm**b for p, b in fact.factors) == alpha.norm()
                done += 1


class TestPrimePowerProduct:
    def test_matches_ideal_mul_of_powers(self, gauss):
        fact = qc.factor_element(gauss.element(10))
        for exps in ((0, 0, 0), (3, 0, 1), (1, 2, 4)):
            want = qc.unit_ideal(gauss)
            for prime, n in zip(fact.primes, exps):
                want = qc.ideal_mul(want, qc.ideal_pow(prime.hnf, n))
            assert ideals.prime_power_product(gauss, fact.primes, exps) == want
        assert ideals.prime_power_product(gauss, (), ()) == qc.unit_ideal(gauss)


class TestValuation:
    def test_examples(self, gauss):
        p2 = qc.factor_rational_prime(gauss, 2).primes[0]
        p5 = next(p for p in qc.factor_rational_prime(gauss, 5).primes if p.root == 2)
        assert qc.valuation(gauss.element(4), p2) == 4
        assert qc.valuation(gauss.element(10), p5) == 1
        assert qc.valuation(gauss.element(3), p5) == 0

    def test_zero_rejected(self, gauss):
        p2 = qc.factor_rational_prime(gauss, 2).primes[0]
        with pytest.raises(ValueError):
            qc.valuation(gauss.zero, p2)

    def test_additive(self, gauss):
        rng = random.Random(3)
        p2 = qc.factor_rational_prime(gauss, 2).primes[0]
        p5 = next(p for p in qc.factor_rational_prime(gauss, 5).primes if p.root == 2)
        for prime in (p2, p5):
            for _ in range(20):
                z = gauss.element(rng.randint(-30, 30), rng.randint(-30, 30))
                w = gauss.element(rng.randint(-30, 30), rng.randint(-30, 30))
                if z.is_zero() or w.is_zero():
                    continue
                assert qc.valuation(z * w, prime) == qc.valuation(z, prime) + qc.valuation(
                    w, prime
                )


def _valuation_ascending(z, prime):
    """Reference: climb P, P^2, P^3, ... while the power contains z."""
    k, power = 0, prime.hnf
    while power.contains(z):
        k += 1
        power = qc.ideal_mul(power, prime.hnf)
    return k


def _generator(prime):
    """A generator of the principal prime ideal, by a search over small elements."""
    field = prime.hnf.field
    bound = math.isqrt(4 * prime.norm) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            z = field.element(x, y)
            if z.norm() == prime.norm and prime.contains(z):
                return z
    raise AssertionError(f"no generator found for {prime}")


class TestValuationGallop:
    @pytest.mark.parametrize("d", [-1, -2, -3, -7])
    def test_matches_ascending_powers(self, d):
        # class number one: each prime is pi*O_K, and pi^v * c with c outside
        # P has valuation exactly v; v runs over 0, 1 and 2^j - 1, 2^j, 2^j + 1,
        # so the content p^c of an inert or ramified pi^v meets the edges of
        # the gallop in ntheory.padic_valuation
        field = make_field(d)
        rng = random.Random(29 - d)
        kinds = {}
        for p in _primes_upto(50):
            splitting = qc.factor_rational_prime(field, p)
            kinds.setdefault(splitting.kind, splitting.primes[0])
        assert set(kinds) == {"split", "inert", "ramified"}
        targets = sorted({0, 1} | {(1 << j) + e for j in range(1, 7) for e in (-1, 0, 1)})
        for prime in kinds.values():
            pi = _generator(prime)
            for v in targets:
                c = field.zero
                while c.is_zero() or prime.contains(c):
                    c = field.element(rng.randint(-9, 9), rng.randint(-9, 9))
                z = pi**v * c
                assert qc.valuation(z, prime) == _valuation_ascending(z, prime) == v


VALUATION_FIELDS = (-1, -2, -3, -5, -6, -7, -11, -15, -23)


class TestValuationFormula:
    """``valuation`` against the ascending climb over every prime above
    p <= 13, in fields with and without unique factorization."""

    @pytest.mark.parametrize("d", VALUATION_FIELDS)
    def test_matches_ascending_climb(self, d):
        # each element is tested against every prime over its p: random
        # elements, and points of P and P^2 for each P over p, so a split
        # prime sees elements of its conjugate; each is multiplied by p^k
        field = make_field(d)
        rng = random.Random(7 - d)
        for p in _primes_upto(13):
            primes = qc.factor_rational_prime(field, p).primes
            pool = [field.element(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(6)]
            for prime in primes:
                for a, b in (prime.hnf.basis(), qc.ideal_mul(prime.hnf, prime.hnf).basis()):
                    pool += [a * rng.randint(-6, 6) + b * rng.randint(-6, 6) for _ in range(3)]
            for z in pool:
                if z.is_zero():
                    continue
                for k in range(4):
                    zk = z * p**k
                    for prime in primes:
                        assert qc.valuation(zk, prime) == _valuation_ascending(zk, prime)

    def test_fields_hold_every_kind_over_two_and_three(self):
        for p in (2, 3):
            kinds = {qc.factor_rational_prime(make_field(d), p).kind for d in VALUATION_FIELDS}
            assert kinds == {"split", "inert", "ramified"}


def _factor_reference(alpha):
    """Per-prime path: split each rational prime of N(alpha) and take alpha's
    valuation at every prime over it."""
    sympy = pytest.importorskip("sympy")
    factors = []
    for p in sorted(sympy.factorint(alpha.norm())):
        for prime in qc.factor_rational_prime(alpha.field, p).primes:
            v = qc.valuation(alpha, prime)
            if v:
                factors.append((prime, v))
    return tuple(factors)


class TestFactorElementDifferential:
    """``factor_element``, which reads the primes of alpha's primitive part
    off alpha, against the per-prime path."""

    @pytest.mark.parametrize("d", VALUATION_FIELDS)
    def test_matches_per_prime_path(self, d):
        # units times products of small prime-norm elements, random elements,
        # each with a content g: the primes of g take the splitting path, the
        # others the root -x'/y' mod p, among them ramified primes and, for
        # d = -7, -15, -23, split primes over 2
        field = make_field(d)
        rng = random.Random(36 - d)
        box = [field.element(x, y) for x in range(-7, 8) for y in range(-7, 8)]
        units = [z for z in box if z.norm() == 1]
        atoms = [z for z in box if z.norm() > 1 and ntheory.is_prime(z.norm())]
        atoms += [field.element(p) for p in (2, 3, 5, 7)]
        contents = (1, 1, 1, 2, 3, 4, 6, 8, 9, 12, -d, 2 * 3 * 1009)
        read_off = set()
        for i in range(160):
            if i % 2:
                alpha = field.element(rng.randint(-90, 90), rng.randint(-90, 90))
            else:
                alpha = rng.choice(units)
                for _ in range(rng.randint(1, 3)):
                    alpha = alpha * rng.choice(atoms) ** rng.randint(1, 3)
            alpha = alpha * rng.choice(contents)
            if alpha.norm() < 2:
                continue
            fact = qc.factor_element(alpha)
            assert fact.factors == _factor_reference(alpha), alpha
            g = math.gcd(alpha.x, alpha.y)
            read_off |= {(prime.e, prime.p == 2) for prime in fact.primes if g % prime.p}
        assert (2, False) in read_off or (2, True) in read_off  # a ramified prime
        if d in (-7, -15, -23):
            assert (1, True) in read_off  # a split prime over 2


def _coprime(a, b):
    """(a) + (b) = O_K, read off the HNF of the ideal the two generate."""
    return qc.ideal_from_generators([a, b]).is_unit()


class TestCoprime:
    def test_examples(self, gauss):
        assert _coprime(gauss.element(2), gauss.element(3))
        assert not _coprime(gauss.element(1, 1), gauss.element(2))
        assert _coprime(gauss.element(-4, 1), gauss.element(-2, 1))
        # the same pairs as alpha and beta of preconditions
        for alpha, beta, coprime in (((2, 0), (3, 0), True), ((1, 1), (2, 0), False), ((-4, 1), (-2, 1), True)):
            spec = qc.ifs_new(gauss.element(*beta), [gauss.zero, gauss.one])
            assert qc.preconditions(gauss.element(*alpha), spec).alpha_beta_coprime is coprime

    def test_matches_disjoint_supports(self):
        rng = random.Random(5)
        for d in (-1, -3, -5):
            field = make_field(d)
            done = 0
            while done < 15:
                a = field.element(rng.randint(-15, 15), rng.randint(-15, 15))
                b = field.element(rng.randint(-15, 15), rng.randint(-15, 15))
                if a.norm() < 2 or b.norm() < 2:
                    continue
                pa = {p.hnf for p, _ in qc.factor_element(a).factors}
                pb = {p.hnf for p, _ in qc.factor_element(b).factors}
                assert _coprime(a, b) == pa.isdisjoint(pb)
                done += 1


class TestReduceMod:
    def test_examples(self, gauss):
        p5 = next(p for p in qc.factor_rational_prime(gauss, 5).primes if p.root == 2)
        ideal = p5.hnf
        assert qc.reduce_mod(gauss.element(7), ideal) == qc.reduce_mod(gauss.element(2), ideal)
        assert qc.reduce_mod(gauss.omega, ideal) == qc.reduce_mod(gauss.element(2), ideal)
        assert qc.reduce_mod(gauss.zero, ideal) == gauss.zero

    def test_idempotent_and_compatible(self, gauss):
        rng = random.Random(9)
        ideal = qc.ideal_from_generators([gauss.element(4, 7)])
        for _ in range(30):
            a = gauss.element(rng.randint(-99, 99), rng.randint(-99, 99))
            b = gauss.element(rng.randint(-99, 99), rng.randint(-99, 99))
            ra = qc.reduce_mod(a, ideal)
            assert qc.reduce_mod(ra, ideal) == ra
            lhs = qc.reduce_mod(a * b, ideal)
            rhs = qc.reduce_mod(qc.reduce_mod(a, ideal) * qc.reduce_mod(b, ideal), ideal)
            assert lhs == rhs

    def test_residue_count(self, gauss):
        ideal = qc.ideal_from_generators([gauss.element(1, 2)])  # norm 5
        residues = {
            qc.reduce_mod(gauss.element(x, y), ideal)
            for x in range(-6, 7)
            for y in range(-6, 7)
        }
        assert len(residues) == ideal.norm

    def test_residue_count_half_basis(self, eisenstein):
        ideal = qc.ideal_from_generators([eisenstein.element(2, 1)])  # norm 7
        residues = {
            qc.reduce_mod(eisenstein.element(x, y), ideal)
            for x in range(-8, 9)
            for y in range(-8, 9)
        }
        assert len(residues) == ideal.norm
