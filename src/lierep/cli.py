"""Command-line front end.

Every subcommand maps to one library operation, takes only the cap flags it
reads and imports only the modules it runs, so a query loads only those.
It names its weight positionals, and ``main`` builds the root system and
parses those weights before any engine loads.  Usage errors come in that
order: argparse's, the system, each weight, then the subcommand's own (an
unread cap flag, a --word, a depth).  Output is a table by default and a
versioned JSON record with --json; identical invocations are byte-identical.
Exit codes: 0 success, 1 usage error, 2 resource cap exceeded, 3 internal
invariant violation.
"""

import argparse
import json
import re
import sys

from .config import METHODS, Caps
from .errors import CapExceeded, InvariantViolation
from .rootsystem import build_root_system, format_weight, parse_weight

SCHEMA = "1"


def _emit(args, data, text_lines):
    """Print the JSON record of `data` with --json, else the lines that
    the callable `text_lines` returns; it is not called for JSON."""
    if args.json:
        record = {"schema": SCHEMA}
        record.update(data)
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _word_name(word):
    """A Weyl group word as s1.s2, 0-based letters shown 1-based; e for the
    empty word."""
    return ".".join(f"s{i + 1}" for i in word) or "e"


def _refuse_unread(args, flag, why):
    """A usage error for a cap flag that this mode of a command never reads."""
    if getattr(args, flag[2:].replace("-", "_")) is not None:
        raise ValueError(f"{flag} is not read {why}")


def cmd_roots(args, rs):
    data = {
        "system": rs.label,
        "cartan": [list(r) for r in rs.cartan],
        "positive_roots": [list(r.coeffs) for r in rs.positive_roots],
        "rho": format_weight(rs.rho),
        "weyl_order": rs.weyl_group_order,
        "symmetrizers": list(rs.sym),
    }
    _emit(args, data, lambda: [
        f"root system {rs.label}",
        "cartan matrix: " + "; ".join(",".join(map(str, r))
                                      for r in rs.cartan),
        f"positive roots ({rs.nroots}): "
        + " ".join("+".join(map(str, r.coeffs)) for r in rs.positive_roots),
        f"|W| = {rs.weyl_group_order}"])


def cmd_weyl(args, rs):
    from .weyl import enumerate_weyl
    els = enumerate_weyl(rs, args.caps)
    data = {
        "system": rs.label,
        "order": len(els),
        "elements": [{"word": list(w.word), "length": w.length,
                      "sign": w.sign} for w in els],
        "longest": list(els[-1].word),
    }

    def lines():
        out = [f"|W({rs.label})| = {len(els)}"]
        for w in els:
            mark = "  <- longest" if w is els[-1] else ""
            out.append(f"  {_word_name(w.word):24s} length {w.length} "
                       f"sign {w.sign:+d}{mark}")
        return out
    _emit(args, data, lines)


def cmd_mult(args, rs, lam, mu):
    from .characters import (_enumerable, freudenthal_multiplicity,
                             weight_multiplicity)
    if not _enumerable(rs):
        _refuse_unread(args, "--max-weyl",
                       f"on {rs.label}, whose multiplicities Freudenthal's "
                       "formula gives alone")
    m = weight_multiplicity(rs, lam, mu, args.caps)
    f = freudenthal_multiplicity(rs, lam, mu)
    if m != f:
        raise InvariantViolation(
            f"multiplicity routes disagree: {m} vs {f}")
    _emit(args, {"system": rs.label, "highest": format_weight(lam),
                 "weight": format_weight(mu), "multiplicity": m},
          lambda: [str(m)])


def cmd_char(args, rs, lam):
    from .characters import character_of, weyl_dimension
    ch = character_of(rs, lam, args.caps)
    data = {"system": rs.label, "highest": format_weight(lam),
            "dimension": weyl_dimension(rs, lam), "character": ch.to_json()}
    _emit(args, data, lambda: [
        f"dim V({format_weight(lam)}) = {data['dimension']}",
        *(f"  {k}: {v}" for k, v in sorted(data["character"].items()))])


def cmd_decompose(args, rs, lam, mu):
    from .tensor import decompose, decompose_all
    if args.method not in ("steinberg", "all"):
        _refuse_unread(args, "--max-weyl", f"by --method={args.method}")
    if args.method == "all":
        data = decompose_all(rs, lam, mu, args.caps)["character"].to_json()
        data["method"] = "all"
        data["agreement"] = {m: True for m in METHODS}
    else:
        data = decompose(rs, lam, mu, args.method, args.caps).to_json()

    def lines():
        out = [f"V({format_weight(lam)}) (x) V({format_weight(mu)}) ="]
        out += [f"  V({k}) x {v}" for k, v in sorted(data["entries"].items())]
        if args.method == "all":
            out.append("methods agree: " + " ".join(METHODS))
        return out
    _emit(args, data, lines)


def cmd_minimal_type(args, rs, lam, mu):
    from .tensor import extreme_types
    cartan, minimal = extreme_types(rs, lam, mu)
    data = {"system": rs.label, "lambda": format_weight(lam),
            "mu": format_weight(mu), "cartan": format_weight(cartan),
            "minimal": format_weight(minimal)}
    _emit(args, data, lambda: [data["minimal"]])


def cmd_prv(args, rs, lam, mu):
    from .tensor import generalized_prv
    from .weyl import enumerate_weyl, from_word
    if not args.kprv:
        _refuse_unread(args, "--max-dim", "without --kprv")
    if args.word is not None:
        try:
            word = () if args.word == "e" else \
                tuple(int(x) - 1 for x in args.word.split(","))
        except ValueError:
            raise ValueError(f"word {args.word!r} is not e or 1-based "
                             "reflection indices like 1,2") from None
        els = [from_word(rs, word)]
    else:
        els = list(enumerate_weyl(rs, args.caps))
    reports = []
    for w in els:
        rep = generalized_prv(rs, lam, mu, w, args.caps, with_kprv=args.kprv)
        reports.append(dict(rep, word=list(w.word),
                            target=format_weight(rep["target"])))
    data = {"system": rs.label, "lambda": format_weight(lam),
            "mu": format_weight(mu), "reports": reports}

    def lines():
        out = []
        for r in reports:
            extra = f" submodule-count {r['kprv_mult']}" \
                if r["kprv_mult"] is not None else ""
            out.append(f"w={_word_name(r['word']):20s} "
                       f"target {r['target']:12s} "
                       f"mult {r['mult']} bound {r['lower_bound']}{extra}")
        return out
    _emit(args, data, lines)


def cmd_shapovalov_det(args, rs):
    from fractions import Fraction
    from .determinants import shapovalov_det
    # exact rationals: shapovalov_det refuses a non-integer entry itself
    depth = tuple(Fraction(x) for x in args.depth.split(","))
    direct = shapovalov_det(rs, depth, "direct", args.max_height)
    formula = shapovalov_det(rs, depth, "formula", args.max_height)
    ratio = direct.ratio_to(formula)
    if ratio is None and sum(depth) > 0:
        raise InvariantViolation("determinant does not match the formula")
    data = {"system": rs.label, "depth": [int(x) for x in depth],
            "direct": repr(direct.expand()),
            "formula": formula.to_json(),
            "ratio": str(ratio) if ratio is not None else "1"}
    _emit(args, data, lambda: [f"direct  = {data['direct']}",
                               f"formula = {formula.expand()!r}",
                               f"ratio   = {data['ratio']}"])


def cmd_prv_det(args, rs, mu):
    from .determinants import prv_det
    det, lead, spectra = prv_det(rs, mu, args.caps)
    data = {"system": rs.label, "mu": format_weight(mu),
            "determinant": det.to_json(),
            "leading": lead.to_json(),
            "degree": det.degree(),
            "spectra": {"+".join(map(str, k)): {str(j): m
                                                for j, m in sorted(v.items())}
                        for k, v in sorted(spectra.items())}}

    def lines():
        out = [f"det = {det.expand()!r} (degree {data['degree']})"]
        for k, v in sorted(spectra.items()):
            out.append(f"  root {'+'.join(map(str, k))}: "
                       f"spectrum {dict(sorted(v.items()))}")
        return out
    _emit(args, data, lines)


def cmd_central_char(args, rs, lam):
    from .centralchar import central_character
    from .enveloping import casimir, chevalley_basis, hc_projection
    from .weyl import twisted_orbit_id
    basis = chevalley_basis(rs)
    value = central_character(rs, basis, lam, casimir(basis))
    data = {"system": rs.label, "lambda": format_weight(lam),
            "casimir": str(value),
            "orbit_id": format_weight(twisted_orbit_id(rs, lam)),
            "projection": repr(hc_projection(basis, casimir(basis)))}
    _emit(args, data, lambda: [f"Casimir acts by {value}",
                               f"dot-orbit id {data['orbit_id']}"])


def cmd_hc_invariants(args, rs, lam, nu):
    from .hcmodules import HCParams, invariants
    p = HCParams(lam, nu)
    inv = invariants(rs, p)
    data = {"system": rs.label, "params": p.to_json(),
            "minimal_type": format_weight(inv.minimal_type),
            "inf_char": [",".join(map(str, part))
                         for part in inv.inf_char.parts]}
    _emit(args, data, lambda: [
        f"minimal type {data['minimal_type']}",
        f"infinitesimal character {data['inf_char']}"])


def cmd_hc_equivalent(args, rs, lam, nu, lam2, nu2):
    from .hcmodules import HCParams, equivalent
    p, q = HCParams(lam, nu), HCParams(lam2, nu2)
    ok, w = equivalent(rs, p, q, args.caps)
    data = {"system": rs.label, "p": p.to_json(), "q": q.to_json(),
            "equivalent": ok,
            "witness": list(w.word) if ok else None}
    _emit(args, data, lambda: [f"equivalent via w = {_word_name(w.word)}"
                               if ok else "not equivalent"])


def cmd_hc_class_zero(args, rs, lam):
    from .hcmodules import class_zero
    rep = class_zero(rs, lam, caps=args.caps)
    mults = rep["mults"].to_json()["entries"] if rep["mults"] else None
    data = {"system": rs.label, "lambda": format_weight(lam),
            "complete": rep["complete"],
            "canonical": format_weight(rep["canonical"]),
            "mults": mults}

    def lines():
        out = [f"complete: {rep['complete']}",
               f"canonical parameter: {data['canonical']}"]
        if mults:
            out += [f"  V({k}) x {v}" for k, v in sorted(mults.items())]
        return out
    _emit(args, data, lines)


def cmd_hc_finite_dim(args, rs, lam, nu):
    from .hcmodules import HCParams, finite_dimensional
    p = HCParams(lam, nu)
    fd = finite_dimensional(rs, p)
    data = {"system": rs.label, "params": p.to_json(),
            "finite_dimensional": fd is not None,
            "pair": [format_weight(fd[0]), format_weight(fd[1])]
            if fd else None}
    _emit(args, data,
          lambda: [f"V({data['pair'][0]} , {data['pair'][1]})" if fd
                   else "not finite-dimensional"])


def cmd_hc_count(args, rs, lam, mu):
    from .hcmodules import isoclass_count
    n = isoclass_count(rs, lam, mu, args.caps)
    data = {"system": rs.label, "lambda": format_weight(lam),
            "mu": format_weight(mu), "classes": n}
    _emit(args, data, lambda: [str(n)])


def cmd_selftest(args):
    from . import selfcheck
    names = None if args.criteria is None else args.criteria.split(",")
    results = selfcheck.run(names, stream=None if args.json else sys.stdout)
    _emit(args, {"results": [{"name": r.name, "passed": r.passed,
                              "detail": r.detail,
                              "seconds": round(r.seconds, 2)}
                             for r in results]}, list)  # text: run streams it
    return 0 if all(r.passed for r in results) else 3


# a weight with a negative first coordinate, such as -1,2 or -1/2,2: no
# option starts with a digit, so such a token is always an argument
_NEGATIVE_WEIGHT = re.compile(r"-\d[-\d,./]*")


class _Parser(argparse.ArgumentParser):
    """Reads negative weights as positionals; argparse alone accepts only
    plain negative numbers there, and takes -1,2 for an unknown option."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_WEIGHT.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="machine-readable output")
    # one parent per cap flag, given only to the commands whose call reads it
    dim_cap = argparse.ArgumentParser(add_help=False)
    dim_cap.add_argument("--max-dim", type=int, default=None,
                         help="module dimension and character caps")
    weyl_cap = argparse.ArgumentParser(add_help=False)
    weyl_cap.add_argument("--max-weyl", type=int, default=None,
                          help="Weyl group enumeration cap")
    top = _Parser(
        prog="lierep",
        description="exact semisimple Lie representation computations")
    sub = top.add_subparsers(dest="command", required=True)

    def declare(p, fn, weights):
        """fn(args, rs, *weights): main parses each named positional."""
        for name in weights.split():
            p.add_argument(name)
        p.set_defaults(fn=fn, weights=weights.split())
        return p

    def system_cmd(name, fn, help_, weights, *caps):
        p = sub.add_parser(name, help=help_, parents=[output, *caps])
        p.add_argument("system", help="root system spec, e.g. A2")
        return declare(p, fn, weights)

    system_cmd("roots", cmd_roots, "root system structure data", "")
    system_cmd("weyl", cmd_weyl, "enumerate the Weyl group", "", weyl_cap)
    system_cmd("mult", cmd_mult, "weight multiplicity in V(highest)",
               "highest weight", weyl_cap)
    system_cmd("char", cmd_char, "full formal character", "highest", dim_cap)
    p = system_cmd("decompose", cmd_decompose, "tensor product decomposition",
                   "lam mu", dim_cap, weyl_cap)
    p.add_argument("--method", default="character",
                   choices=list(METHODS) + ["all"])
    system_cmd("minimal-type", cmd_minimal_type,
               "smallest component of a tensor product", "lam mu")
    p = system_cmd("prv", cmd_prv, "extreme component report", "lam mu",
                   dim_cap, weyl_cap)
    p.add_argument("--word", default=None,
                   help="1-based reflection word like 1,2 (default: all w)")
    p.add_argument("--kprv", action="store_true",
                   help="also count inside the generated submodule")
    p = system_cmd("shapovalov-det", cmd_shapovalov_det,
                   "contravariant form determinant at a depth", "")
    p.add_argument("depth", help="root-lattice coordinates, e.g. 1,1")
    p.add_argument("--max-height", type=int, default=None)
    system_cmd("prv-det", cmd_prv_det,
               "zero-weight determinant product formula", "mu", dim_cap)
    system_cmd("central-char", cmd_central_char, "Casimir central character",
               "lam")

    p = sub.add_parser("hc", help="two-parameter module calculus")
    p.add_argument("system")
    hsub = p.add_subparsers(dest="hc_cmd", required=True)

    def hc_cmd(name, fn, weights, *caps):
        declare(hsub.add_parser(name, parents=[output, *caps]), fn, weights)

    hc_cmd("invariants", cmd_hc_invariants, "lam nu")
    hc_cmd("equivalent", cmd_hc_equivalent, "lam nu lam2 nu2", weyl_cap)
    hc_cmd("class-zero", cmd_hc_class_zero, "lam", dim_cap)
    hc_cmd("finite-dim", cmd_hc_finite_dim, "lam nu")
    hc_cmd("count", cmd_hc_count, "lam nu", weyl_cap)

    p = sub.add_parser("selftest", help="run the acceptance corpus",
                       parents=[output])
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset of criteria names")
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args.caps = Caps.from_flags(getattr(args, "max_dim", None),
                                getattr(args, "max_weyl", None))
    try:
        if args.command == "selftest":
            return cmd_selftest(args)
        rs = build_root_system(args.system)
        args.fn(args, rs, *[parse_weight(getattr(args, name), rs.rank)
                            for name in args.weights])
        return 0
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
