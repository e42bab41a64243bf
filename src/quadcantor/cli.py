"""Command-line front end: factor, order, member, intersect, bound, dim,
render, cns.

Every subcommand builds one record from plain library values and hands it
to ``_emit``, which applies the format: ``_plain`` writes every number as a
decimal string, so arbitrary precision survives serialization, and the
record is printed as JSON with sorted keys and the integer ``schema``
version.  Exit codes: 0 success, 1 element-syntax error, 2 failed
precondition, float overflow or a file that cannot be read or written,
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import math
import os
import sys
from fractions import Fraction

from . import cns as cnsmod
from .errors import CapExceededError, FieldError, ParseError, PreconditionError
from .fractal import (
    covering_constants,
    ifs_new,
    period_bound,
    sample_points,
    similarity_dimension,
)
from .ideals import IdealHNF, factor_element, factor_rational_prime
from .intersection import (
    DEFAULT_CAP,
    certified_bound,
    full_intersection,
    preconditions,
    tuple_is_excluded,
)
from .membership import coding_of, state_count
from .orders import c2_constant, stabilization
from .quadring import FieldElement, QuadInt, make_field, parse_element, parse_point

SCHEMA = 1


def _plain(value):
    """The JSON form of a record value: bools, strings and None as they are,
    a float to 15 significant digits, an integer, element (``element_text``),
    field element or fraction as its exact text, containers member by member.
    A record (a named tuple) is rejected here, where ``json.dumps`` would
    write it as a bare list of its fields; anything else is left for
    ``json.dumps`` to reject."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):
        return f"{value:.15g}"
    if isinstance(value, (int, QuadInt, FieldElement, Fraction)):
        return str(value)
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            raise TypeError(f"a {type(value).__name__} record is not JSON serializable")
        return [_plain(v) for v in value]
    return value


def _emit(record: dict) -> None:
    print(json.dumps(_plain(record) | {"schema": SCHEMA}, sort_keys=True, indent=2))


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise PreconditionError(f"missing required option --{name.replace('_', '-')}")


def _cap_of(args, default: int) -> int:
    cap = int(args.cap) if args.cap is not None else default
    if cap < 0:
        raise PreconditionError("--cap must be nonnegative")
    return cap


def _field_of(args):
    _require(args, "d")
    return make_field(int(args.d))


def _spec_of(args, field):
    _require(args, "beta", "digits")
    beta = parse_element(args.beta, field)
    digits = [parse_element(t, field) for t in args.digits.split(",")]
    return ifs_new(beta, digits)


def _cmd_factor(args) -> None:
    field = _field_of(args)
    element = parse_element(args.element, field)
    fact = factor_element(element)
    _emit(
        {
            "command": "factor",
            "d": field.d,
            "element": element,
            "norm": element.norm(),
            "factors": [
                {
                    "p": p.p,
                    "e": p.e,
                    "f": p.f,
                    "hnf": [p.hnf.a, p.hnf.b, p.hnf.c],
                    "exponent": b,
                }
                for p, b in fact.factors
            ],
        }
    )


def _pick_prime(field, args):
    _require(args, "p")
    p = int(args.p)
    splitting = factor_rational_prime(field, p)
    if args.hnf is not None:
        a, b, c = (int(t) for t in args.hnf.split(","))
        want = IdealHNF(field, a, b, c)
        for prime in splitting.primes:
            if prime.hnf == want:
                return prime
        raise PreconditionError(f"hnf {args.hnf} is not a prime above {p}")
    if args.root is not None:
        r = int(args.root) % p
        for prime in splitting.primes:
            if prime.root == r:
                return prime
        raise PreconditionError(f"w-{r} does not cut out a prime above {p}")
    if len(splitting.primes) == 1:
        return splitting.primes[0]
    raise PreconditionError(f"{p} splits; disambiguate with --root or --hnf")


def _decimal_digits(m: int, p: int, lift: int) -> int:
    """Decimal digits of m * p^lift, building the number only at a power of ten."""
    with decimal.localcontext() as ctx:
        # 30 fractional digits beyond the integer part of the logarithm
        ctx.prec = 30 + (lift * p.bit_length()).bit_length() // 3
        log = decimal.Decimal(m).log10() + lift * decimal.Decimal(p).log10()
        k = int(log.to_integral_value())
        if abs(log - k) < decimal.Decimal("1e-20"):  # at a power of ten, decide exactly
            return k + (m * p**lift >= 10**k)
        return int(log) + 1


def _cmd_order(args) -> None:
    field = _field_of(args)
    _require(args, "beta")
    beta = parse_element(args.beta, field)
    prime = _pick_prime(field, args)
    n = int(args.n) if args.n is not None else 1
    stab = stabilization(beta, prime)
    m, lift = stab.order_factors(n)  # the order m * p^lift, sized before it is built
    limit = sys.get_int_max_str_digits()
    # m p^lift >= 2^(lift (p.bit_length() - 1)) and 2^10 > 10^3 prove `over`.
    # The exact count is a logarithm to as many digits as lift has, costing
    # more than their square, so it is skipped past lift ~ 10^(limit/10).
    over = limit and lift * (prime.p.bit_length() - 1) >= 10 * -(-limit // 3)
    cheap = not over or lift.bit_length() <= limit // 3
    digits = _decimal_digits(m, prime.p, lift) if cheap else None
    if over or (limit and digits > limit):
        raise CapExceededError(
            f"the order has {digits or f'more than {limit}'} decimal digits, "
            f"over the interpreter's limit of {limit} for printing an integer",
            estimate=digits or limit + 1,
            cap=limit,
        )
    order = m * prime.p**lift
    _emit(
        {
            "command": "order",
            "d": field.d,
            "beta": beta,
            "p": prime.p,
            "e": prime.e,
            "f": prime.f,
            "n": n,
            "order": order,
            "n0": stab.n0,
            "m": stab.m,
            "used_closed_form": n > prime.e + 1,
        }
    )


def _cmd_member(args) -> None:
    field = _field_of(args)
    spec = _spec_of(args, field)
    _require(args, "point")
    point = parse_point(args.point, field)
    coding = coding_of(point.num, point.den, spec)
    _emit(
        {
            "command": "member",
            "d": field.d,
            "point": point,
            "member": coding is not None,
            "preperiod": coding.preperiod if coding else [],
            "period": coding.period if coding else [],
            "states": state_count(point.num, point.den, spec),
            "bound": period_bound(spec, point.den * point.den),
        }
    )


def _precondition_record(report) -> dict:
    return {
        "alpha_beta_coprime": report.alpha_beta_coprime,
        "case_ii_eligible": report.case_ii_eligible,
        "case_i_applicable": report.case_i_applicable,
        "case_ii_applicable": report.case_ii_applicable,
        "applicable_case": report.applicable_case,
        "alpha_factors": [
            {"p": p.p, "e": p.e, "f": p.f, "exponent": b}
            for p, b in report.alpha_factorization.factors
        ],
    }


def _cmd_intersect(args) -> None:
    field = _field_of(args)
    spec = _spec_of(args, field)
    _require(args, "alpha", "mode")
    alpha = parse_element(args.alpha, field)
    mode = args.mode
    n_max = int(args.nmax) if args.nmax is not None else None
    cap = _cap_of(args, DEFAULT_CAP)
    report = full_intersection(alpha, spec, mode=mode, n_max=n_max, cap=cap)
    points = []
    for pt in report.points:
        scaled = pt.value * alpha**pt.den_pow
        if not scaled.is_integral():
            raise ArithmeticError(f"{pt.value} times alpha^{pt.den_pow} is not integral")
        points.append(
            {
                "num": scaled.num,
                "den_pow": pt.den_pow,
                "value": pt.value,
                "tuple": pt.exponents,
                "preperiod": pt.coding.preperiod,
                "period": pt.coding.period,
            }
        )
    _emit(
        {
            "command": "intersect",
            "d": field.d,
            "alpha": alpha,
            "beta": spec.beta,
            "preconditions": _precondition_record(report.preconditions),
            "sigma": report.preconditions.sigma,
            "c1_params": {
                "r_prime_sq": spec.radius_sq,
                "beta_norm": spec.beta.norm(),
                "digit_count": len(spec.digits),
            },
            "c2": report.lower_bound.c2 if report.lower_bound else None,
            "n0": report.certified_n0,
            "level": report.level,
            "exhausted": report.exhausted,
            "points": points,
            "survivors": report.survivors,
            "swept": [_sweep_record(s) for s in report.swept],
            "fallback": [_sweep_record(s) for s in report.fallback] or None,
        }
        | _hole_record(report)
    )


def _hole_record(report) -> dict:
    """The ``hole`` key of a case-(ii) run, whose survivors the hole test
    decides: the largest hole found and the tuples it dropped, or None."""
    if report.preconditions.applicable_case != "case_ii":
        return {}
    hole = report.hole
    return {"hole": hole and {
        "centre": hole.centre, "rho_sq": hole.rho_sq, "nodes": hole.nodes, "dropped": report.dropped
    }}


def _sweep_record(sweep) -> dict:
    return {"tuple": sweep.exponents, "cost": sweep.cost, "swept": sweep.swept}


def _cmd_bound(args) -> None:
    field = _field_of(args)
    spec = _spec_of(args, field)
    _require(args, "alpha")
    alpha = parse_element(args.alpha, field)
    report = preconditions(alpha, spec)
    record = {
        "command": "bound",
        "d": field.d,
        "alpha": alpha,
        "beta": spec.beta,
        "preconditions": _precondition_record(report),
        "sigma": report.sigma,
        "r_prime_sq": spec.radius_sq,
        "case": report.applicable_case,
        "ell": report.alpha_factorization.ell,
    }
    if report.applicable_case is None:
        record.update(c2=None, m_exponents=None, n0=None, samples=[])
        _emit(record)
        return
    covering = covering_constants(spec)
    lb = c2_constant(spec.beta, report.alpha_factorization.primes)
    n0 = certified_bound(report, covering, lb)
    ell = report.alpha_factorization.ell
    tuples = [tuple(n0 if i == j else 0 for i in range(ell)) for j in range(ell)]
    samples = [
        {"tuple": t, "excluded": tuple_is_excluded(spec, lb, report.applicable_case, t)}
        for t in tuples
    ]
    record.update(c2=lb.c2, m_exponents=lb.m_exponents, n0=n0, samples=samples)
    _emit(record)


def _cmd_dim(args) -> None:
    field = _field_of(args)
    spec = _spec_of(args, field)
    rows = int(args.rows) if args.rows is not None else 8
    if rows < 0:
        raise PreconditionError("--rows must be nonnegative")
    r2 = spec.radius_sq
    r_prime = math.sqrt(float(r2))
    abs_beta = math.sqrt(spec.beta.norm())
    table = []
    for k in range(rows):
        table.append(
            {"k": k, "delta": r_prime / abs_beta**k, "bound": len(spec.digits) ** k}
        )
    _emit(
        {
            "command": "dim",
            "d": field.d,
            "beta": spec.beta,
            "sigma": similarity_dimension(spec),
            "r_prime_sq": r2,
            "covering": table,
        }
    )


def _render_svg(fh, pts) -> None:
    size = 800
    margin = 20
    lo_x, hi_x = min(z.real for z in pts), max(z.real for z in pts)
    lo_y, hi_y = min(z.imag for z in pts), max(z.imag for z in pts)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (size - 2 * margin) / span
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for z in pts:
        px = margin + (z.real - lo_x) * scale
        py = size - margin - (z.imag - lo_y) * scale
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1" fill="black"/>')
    lines.append("</svg>")
    fh.write("\n".join(lines))


def _cmd_render(args) -> None:
    field = _field_of(args)
    spec = _spec_of(args, field)
    _require(args, "depth", "out")
    depth = int(args.depth)
    pts = sample_points(spec, depth, cap=_cap_of(args, 1 << 20))
    # both outputs are opened before either is written, and an --svg that
    # cannot be opened takes the --out file with it
    with contextlib.ExitStack() as files:
        out = files.enter_context(open(args.out, "w"))
        try:
            svg = None if args.svg is None else files.enter_context(open(args.svg, "w"))
        except OSError:
            os.remove(args.out)
            raise
        for z in pts:
            out.write(f"{z.real:.12f},{z.imag:.12f}\n")
        if svg is not None:
            _render_svg(svg, pts)
    _emit(
        {
            "command": "render",
            "written": args.out,
            "svg": args.svg,
            "points": len(pts),
        }
    )


def _cmd_cns(args) -> None:
    _require(args, "n")
    basis = cnsmod.cns_basis(int(args.n))
    if (args.expand is None) == (args.evaluate is None):
        raise PreconditionError("cns needs exactly one of --expand or --evaluate")
    gauss = make_field(-1)
    if args.expand is not None:
        gamma = parse_element(args.expand, gauss)
        digits = cnsmod.expand(gamma, basis)
        _emit(
            {
                "command": "cns",
                "n": basis.n,
                "gamma": gamma,
                "digits": digits,
            }
        )
        return
    digits = [int(t) for t in args.evaluate.split(",")] if args.evaluate else []
    value = cnsmod.evaluate(digits, basis)
    _emit(
        {
            "command": "cns",
            "n": basis.n,
            "digits": digits,
            "value": value,
        }
    )


def _read_config(path: str, keys: frozenset[str]) -> dict[str, str]:
    """The ``key = value`` lines of a config file; each key must be in ``keys``."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (t.strip() for t in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in keys:
                raise PreconditionError(f"{path}:{lineno}: '{key}' is no option of any command")
            out[name] = value
    return out


def _apply_config(args) -> None:
    if getattr(args, "config", None) is None:
        return
    for key, value in _read_config(args.config, args.config_keys).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcantor",
        description="Exact arithmetic in imaginary quadratic rings and "
        "certified enumeration of radix points on self-similar sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False, spec=False, point=False):
        p.add_argument("-d", dest="d", default=None, help="field parameter d < 0")
        p.add_argument("--config", default=None, help="key=value defaults file")
        if alpha:
            p.add_argument("--alpha", default=None, help="alpha as element text")
        if spec:
            p.add_argument("--beta", default=None, help="beta as element text")
            p.add_argument(
                "--digits", default=None, help="comma-separated digit elements"
            )
        if point:
            p.add_argument("--point", default=None, help="query point v or v/u")

    p = sub.add_parser("factor", help="prime-ideal factorization of an element")
    common(p)
    p.add_argument("element", help="element text, e.g. '10' or '-4+w'")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("order", help="multiplicative order modulo a prime power")
    common(p)
    p.add_argument("--beta", default=None, help="beta as element text")
    p.add_argument("--p", default=None, help="rational prime below the ideal")
    p.add_argument("--root", default=None, help="root r for the prime (p, w-r)")
    p.add_argument("--hnf", default=None, help="prime ideal as a,b,c")
    p.add_argument("--n", default=None, help="power of the prime (default 1)")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("member", help="exact membership of v/u in S(beta, A)")
    common(p, spec=True, point=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("intersect", help="enumerate D_alpha intersected with S")
    common(p, alpha=True, spec=True)
    p.add_argument("--mode", default=None, choices=["certified", "bounded"])
    p.add_argument("--nmax", default=None, help="level for bounded mode")
    p.add_argument(
        "--cap", default=None, help="lattice points the sweep may touch (default 2^18)"
    )
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("bound", help="certificate computation trace only")
    common(p, alpha=True, spec=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("dim", help="similarity dimension and covering table")
    common(p, spec=True)
    p.add_argument("--rows", default=None, help="covering table rows (default 8)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("render", help="sample attractor points to CSV/SVG")
    common(p, spec=True)
    p.add_argument("--depth", default=None, help="digit depth of the sample")
    p.add_argument("--out", default=None, help="CSV output path (re,im lines)")
    p.add_argument("--svg", default=None, help="optional SVG scatter path")
    p.add_argument("--cap", default=None, help="sample-size cap")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("cns", help="canonical number system in base -n+i")
    p.add_argument("--config", default=None)
    p.add_argument("--n", default=None, help="base parameter: theta = -n+i")
    p.add_argument("--expand", default=None, help="Gaussian integer to expand")
    p.add_argument("--evaluate", default=None, help="digits d0,d1,... to evaluate")
    p.set_defaults(func=_cmd_cns)

    # a config file may set an option of any subcommand, and no other key
    keys = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}
    parser.set_defaults(config_keys=frozenset(keys - {"help"}))
    return parser


_VALUE_OPTS = frozenset({"--alpha", "--beta", "--point", "--expand", "--evaluate", "--digits"})


def _merge_leading_dash_values(argv: list[str]) -> list[str]:
    """Let element texts beginning with '-' follow their option normally."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt.startswith("-") and tok in _VALUE_OPTS:
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_merge_leading_dash_values(argv))
    try:
        _apply_config(args)
        args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc} (token: {exc.token!r})", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, FieldError, ValueError, ZeroDivisionError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"out of float range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
