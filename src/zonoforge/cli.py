"""Command-line front end.

Commands read one JSON input document describing the configuration and
write one JSON report; reports are deterministic byte-for-byte for
identical inputs (including the seed).  With --output the JSON goes to the
file and a short human summary goes to stdout; without it the JSON itself
is the stdout output.

Exit codes: 0 all certificates passed, 1 a certificate failed (or an
internal consistency check tripped), 2 bad input or a usage error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from . import __version__
from .config import (
    Config,
    SemiExternalFamily,
    bases,
    ensure_family,
    facets,
    i_internal_bases,
    independents,
    internal_bases,
    make_config,
    semiexternal_close,
    valuation_histogram,
)
from .errors import InputError, ZonoforgeError
from .graded import kernel
from .poly import monomials
from .verify import BATTERIES, run_theorem, search_internal_extension
from .zonotopal import bundle_for

DOC_FIELDS = ("matrix", "b0", "lambda", "lambda_b0", "iprime", "iprime_closed", "i", "seed")


def _rat(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(
            f"field {where}: expected an integer or a 'p/q' string, got {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"field {where}: bad rational {value!r} ({exc})") from exc


def _rat_matrix(rows, where: str):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"field {where}: expected a non-empty list of rows")
    width = len(rows[0])
    if not width:
        raise InputError(f"field {where}: the matrix has no columns")
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"field {where}[{i}]: ragged row (expected {width} entries)")
        out.append([_rat(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def _rat_list(values, where: str):
    if not isinstance(values, list):
        raise InputError(f"field {where}: expected a list")
    return [None if x is None else _rat(x, f"{where}[{j}]") for j, x in enumerate(values)]


def _index_list(values, where: str, ncols: int) -> list:
    if not isinstance(values, list):
        raise InputError(f"field {where}: expected a list of column indices")
    out = []
    for j, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InputError(f"field {where}[{j}]: expected an integer index, got {x!r}")
        if not 0 <= x < ncols:
            raise InputError(
                f"field {where}[{j}]: column index {x} out of range (configuration has {ncols})"
            )
        if x in out:
            raise InputError(f"field {where}[{j}]: repeated column index {x}")
        out.append(x)
    return out


def parse_document(raw: dict):
    """Parse and validate a configuration document.

    Returns (config, meta) where meta carries iprime seeds/closed flag, the
    i index list and the seed.
    """
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")
    unknown = sorted(set(raw) - set(DOC_FIELDS))
    if unknown:
        raise InputError(f"unknown document fields: {', '.join(unknown)}")
    if "matrix" not in raw:
        raise InputError("field matrix: required")
    mat = _rat_matrix(raw["matrix"], "matrix")
    b0 = _rat_matrix(raw["b0"], "b0") if raw.get("b0") is not None else None
    lam = _rat_list(raw["lambda"], "lambda") if raw.get("lambda") is not None else None
    lam_b0 = _rat_list(raw["lambda_b0"], "lambda_b0") if raw.get("lambda_b0") is not None else None
    c = make_config(mat, b0_rows=b0, lam=lam, lam_b0=lam_b0)

    closed = raw.get("iprime_closed", False)
    if not isinstance(closed, bool):
        raise InputError(f"field iprime_closed: expected a boolean, got {closed!r}")
    meta = {"iprime": None, "iprime_closed": closed, "i": None}
    if raw.get("iprime") is not None:
        if not isinstance(raw["iprime"], list):
            raise InputError("field iprime: expected a list of index lists")
        meta["iprime"] = [
            frozenset(_index_list(m, f"iprime[{k}]", c.ncols))
            for k, m in enumerate(raw["iprime"])
        ]
    if raw.get("i") is not None:
        meta["i"] = _index_list(raw["i"], "i", c.ncols)
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"field seed: expected an integer, got {seed!r}")
    meta["seed"] = seed
    return c, meta


def _family(c: Config, meta) -> SemiExternalFamily | None:
    if meta["iprime"] is None:
        return None
    if meta["iprime_closed"]:
        return ensure_family(c, SemiExternalFamily(tuple(meta["iprime"])))
    return semiexternal_close(c, meta["iprime"])


def _echo(c: Config, meta) -> dict:
    return {
        "matrix": [[str(x) for x in row] for row in zip(*c.columns)],
        "b0": None if c.b0 is None else [[str(x) for x in row] for row in zip(*c.b0)],
        "lambda": None if c.lam is None else [None if x is None else str(x) for x in c.lam],
        "lambda_b0": None
        if c.lam_b0 is None
        else [None if x is None else str(x) for x in c.lam_b0],
        "iprime": None
        if meta["iprime"] is None
        else [sorted(m) for m in meta["iprime"]],
        "iprime_closed": meta["iprime_closed"],
        "i": meta["i"],
        "seed": meta["seed"],
    }


def _render(nvars: int, poly) -> str:
    """The text of a (degree, integer row, denominator) polynomial.

    Terms follow the graded-lex monomials, joined by " + " and " - ".  A
    coefficient is row entry / denominator in lowest terms, printed as p or
    p/q before "*" and the variables (t1^2*t3), and left out when it is 1
    and there are variables; the zero polynomial is "0".
    """
    d, row, den = poly
    text = ""
    for exp, x in zip(monomials(nvars, d), row):
        if not x:
            continue
        g = gcd(x, den)
        num, q = abs(x) // g, den // g
        mag = str(num) if q == 1 else f"{num}/{q}"
        variables = "*".join([f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}" for i, e in enumerate(exp) if e])
        if not variables:
            body = mag
        elif mag == "1":
            body = variables
        else:
            body = f"{mag}*{variables}"
        if text:
            text += " - " if x < 0 else " + "
        elif x < 0:
            text = "-"
        text += body
    return text or "0"


def _render_ideal(gens) -> list:
    """Generator texts in (degree, text) order."""
    return [text for _, text in sorted((g[0], _render(gens.nvars, g)) for g in gens.gens)]


def cmd_matroid(c: Config, meta) -> dict:
    result = {
        "n": c.n,
        "n_columns": c.ncols,
        "bases": [sorted(b) for b in bases(c)],
        "independents": [sorted(s) for s in independents(c)],
        "facets": [
            {
                "normal": [str(x) for x in f.normal],
                "members": sorted(f.members),
                "multiplicity": f.mult,
            }
            for f in facets(c)
        ],
        "valuation_histogram": {
            "bases": list(valuation_histogram(c, bases(c))),
            "independents": list(valuation_histogram(c, independents(c))),
        },
        "internal_bases": [sorted(b) for b in internal_bases(c)],
    }
    result["i_internal_bases"] = None if meta["i"] is None else [
        sorted(b) for b in i_internal_bases(c, frozenset(meta["i"]))
    ]
    return result


def cmd_space(c: Config, meta, kind: str, dmax=None) -> dict:
    bundle = bundle_for(
        c,
        kind,
        fam=_family(c, meta) if kind == "semi_external" else None,
        i_set=None if meta["i"] is None else frozenset(meta["i"]),
    )
    result = {
        "kind": bundle.kind,
        "dim": bundle.dim(),
        "hilbert": {
            "valuation": list(bundle.hilbert_valuation),
            "quotient": list(bundle.hilbert_algebraic),
            "space": list(bundle.p_space.hilbert()),
        },
        "q_basis": None
        if bundle.q_basis is None
        else [
            {"columns": sorted(cols), "poly": _render(c.n, q)}
            for cols, q in bundle.q_basis
        ],
        "i_ideal": _render_ideal(bundle.i_ideal),
        "ieps_ideal": None
        if bundle.ieps_ideal is None
        else _render_ideal(bundle.ieps_ideal),
        "j_ideal": _render_ideal(bundle.j_ideal),
        "family": None
        if bundle.family is None
        else [sorted(m) for m in bundle.family],
        "i": None if bundle.i_set is None else sorted(bundle.i_set),
        "restricted_bases": None
        if bundle.b_minus is None
        else [sorted(b) for b in bundle.b_minus],
        "order": None if bundle.order is None else list(bundle.order),
    }
    result["d_space"] = None if dmax is None else {
        "dmax": dmax,
        "basis": [_render(c.n, p) for p in kernel(bundle.j_ideal, dmax).basis_polys()],
    }
    return result


def cmd_verify(c: Config, meta, theorem: str, seed: int, dmax=None) -> dict:
    needs = BATTERIES[theorem][1] if theorem in BATTERIES else None
    fam = _family(c, meta) if needs == "family" else None
    return run_theorem(
        theorem,
        c,
        fam=fam,
        i_set=None if meta["i"] is None else frozenset(meta["i"]),
        seed=seed,
        dmax=dmax,
    )


def _human_matroid(result) -> str:
    lines = [
        f"configuration: n={result['n']}, columns={result['n_columns']}",
        f"bases: {len(result['bases'])}",
        f"independents: {len(result['independents'])}",
        f"internal bases: {len(result['internal_bases'])}",
        "facets (normal : members : multiplicity):",
    ]
    for f in result["facets"]:
        normal = "(" + ", ".join(f["normal"]) + ")"
        lines.append(f"  {normal} : {f['members']} : {f['multiplicity']}")
    lines.append(f"valuation histogram over bases: {result['valuation_histogram']['bases']}")
    lines.append(
        f"valuation histogram over independents: {result['valuation_histogram']['independents']}"
    )
    if result["i_internal_bases"] is not None:
        lines.append(f"bases internal relative to i: {result['i_internal_bases']}")
    return "\n".join(lines)


def _human_space(result) -> str:
    lines = [
        f"kind: {result['kind']}",
        f"dimension: {result['dim']}",
        f"hilbert (valuation): {result['hilbert']['valuation']}",
        f"hilbert (quotient):  {result['hilbert']['quotient']}",
        f"hilbert (space):     {result['hilbert']['space']}",
        f"power ideal generators: {len(result['i_ideal'])}",
        f"cover ideal generators: {len(result['j_ideal'])}",
    ]
    if result["q_basis"] is not None:
        lines.append("generator polynomials:")
        for entry in result["q_basis"]:
            lines.append(f"  {entry['columns']}: {entry['poly']}")
    if result["restricted_bases"] is not None:
        lines.append(f"restricted bases: {result['restricted_bases']}")
    return "\n".join(lines)


def _human_verify(result) -> str:
    lines = [f"theorem {result['theorem']}: {'PASS' if result['passed'] else 'FAIL'}"]
    for row in result["checks"]:
        mark = "pass" if row["passed"] else "FAIL"
        note = ""
        if "skipped" in row:
            note = f" (skipped: {row['skipped']})"
        elif "holds" in row:
            note = f" (holds: {row['holds']}, witness: {row['witness']})"
        lines.append(f"  [{mark}] {row['check']}{note}")
    return "\n".join(lines)


def _human_search(result) -> str:
    return "\n".join(
        [
            f"bounds: n<={result['bounds']['max_n']}, columns<={result['bounds']['max_cols']}",
            f"configurations examined: {result['configs_examined']}"
            f" (skipped {result['configs_skipped_rank']} rank-deficient,"
            f" {result['configs_skipped_coloop']} with coloops)",
            f"independent triples checked: {result['triples_checked']}",
            f"violations found: {len(result['violations'])}",
        ]
    )


USAGE = """\
usage: zonoforge COMMAND [--FLAG VALUE | --FLAG=VALUE]... | -h | --help | --version
Exact certificates for hierarchical spaces of a rational vector configuration.

  matroid     --input DOC [--seed N] [--output FILE]
              bases, independents, facets, histograms
  space       --input DOC --kind KIND [--dmax N] [--seed N] [--output FILE]
              construct one space bundle
  verify      --input DOC --theorem NAME [--dmax N] [--seed N] [--output FILE]
              run one theorem's certificate battery
  search-r37  [--input DOC] [--max-n N] [--max-cols N] [--output FILE]
              search small configurations for a patched-extension violation

  --input DOC     JSON configuration document
  --output FILE   write the JSON report here (human summary to stdout)
  --seed N        override the document's seed
  --kind KIND     central|external|semi_external|semi_internal
  --theorem NAME  th1|exzono|pi|plus|basis|explus|t26|t28|t33|t34|r37
  --dmax N        space: also render the cover-ideal kernel up to this degree;
                  verify: override the direct-sum certificate depth (N >= 0)
  --max-n N       largest ambient dimension (the search starts at 3; cap 3)
  --max-cols N    largest column count (cap 6)"""


def _natural(value: str) -> int:
    if int(value) < 0:
        raise ValueError(value)
    return int(value)


def _kind(value: str) -> str:
    if value in ("central", "external", "semi_external", "semi_internal"):
        return value
    raise ValueError(value)


# command -> flag -> (attribute, converter, default, required)
_INPUT, _OUTPUT = ("input", str, None, True), ("output", str, None, False)
_SEED, _DMAX = ("seed", int, None, False), ("dmax", _natural, None, False)
COMMANDS = {
    "matroid": {"--input": _INPUT, "--output": _OUTPUT, "--seed": _SEED},
    "space": {"--input": _INPUT, "--output": _OUTPUT, "--seed": _SEED,
              "--kind": ("kind", _kind, None, True), "--dmax": _DMAX},
    "verify": {"--input": _INPUT, "--output": _OUTPUT, "--seed": _SEED,
               "--theorem": ("theorem", str, None, True), "--dmax": _DMAX},
    "search-r37": {"--input": ("input", str, None, False), "--output": _OUTPUT,
                   "--max-n": ("max_n", int, 3, False), "--max-cols": ("max_cols", int, 4, False)},
}


def _parse_argv(argv: list) -> SimpleNamespace:
    """One pass over argv against COMMANDS; a usage error raises ValueError."""
    flags = COMMANDS.get(argv[0]) if argv else None
    if flags is None:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "missing command")
    args = {attr: default for attr, _, default, _ in flags.values()}
    rest = iter(argv[1:])
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"{argv[0]}: unrecognized argument {token!r}")
        if not eq:
            value = next(rest, None)
            if value is None or value in flags:
                raise ValueError(f"argument {flag}: expected a value")
        attr, convert, _, _ = flags[flag]
        try:
            args[attr] = convert(value)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid value {value!r}") from None
    missing = [f for f, (attr, _, _, required) in flags.items() if required and args[attr] is None]
    if missing:
        raise ValueError(f"{argv[0]}: missing required {', '.join(missing)}")
    return SimpleNamespace(command=argv[0], **args)


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    if "--version" in argv:
        print(f"zonoforge {__version__}")
        return 0
    try:
        args = _parse_argv(argv)
    except ValueError as exc:
        print(f"{USAGE}\nzonoforge: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "search-r37":
            echo = {}
            if args.input:
                c, meta = parse_document(_load(args.input))
                echo = _echo(c, meta)
            result = search_internal_extension(args.max_n, args.max_cols)
            report = {
                "command": "search-r37",
                "version": __version__,
                "input": echo,
                "result": result,
                "passed": True,
            }
            human = _human_search(result)
        else:
            c, meta = parse_document(_load(args.input))
            seed = args.seed if args.seed is not None else meta["seed"]
            meta = dict(meta, seed=seed)
            if args.command == "matroid":
                result = cmd_matroid(c, meta)
                passed = True
                human = _human_matroid(result)
            elif args.command == "space":
                result = cmd_space(c, meta, args.kind, args.dmax)
                passed = True
                human = _human_space(result)
            else:
                result = cmd_verify(c, meta, args.theorem, seed, args.dmax)
                passed = result["passed"]
                human = _human_verify(result)
            report = {
                "command": args.command,
                "version": __version__,
                "input": _echo(c, meta),
                "result": result,
                "passed": passed,
            }
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ZonoforgeError as exc:
        print(f"certificate failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write output file: {exc}", file=sys.stderr)
            return 2
        print(human)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1
