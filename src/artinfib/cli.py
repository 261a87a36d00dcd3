"""Command line driver and report serialization.

Four subcommands cover the pipeline: ``cohomology`` prints the
invariant-factor tables of the Laurent-coefficient complex, ``milnor``
the fiber Betti numbers with monodromy data, ``verify`` the
well-filteredness check plus the series-window shift comparison, and
``family`` the full pipeline on a user-supplied polynomial family.

One driver runs them: it loops over the coefficient domains, and each
subcommand contributes only a compute step returning one per-domain
result with optional sections (family rank, well-filtered check,
groups, shift comparison, Milnor report).  Three renderers, pretty,
JSON and CSV, draw from the sections that are set.

Exit codes: 0 success, 1 when a verification that should hold
mathematically fails (a shift mismatch anywhere, or a reflection-group
complex that is not well filtered), 2 for input errors.  Reports are
deterministic: identical configurations give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Optional

from .complexes import (CochainComplex, WellFilteredResult,
                        build_generic_complex, build_salvetti_complex,
                        is_well_filtered, load_family)
from .coxeter import CoxeterSystem, system_from_string
from .domains import GF, QQ, Domain, domain_from_spec
from .errors import ArtinfibError, NotStabilized, NotWellFiltered
from .homology import (ShiftReport, cohomology, monodromy_char_poly,
                       verify_shift_theorem)
from .laurent import format_poly

SCHEMA_VERSION = 1

PROVENANCE = {
    "betti": "dimension over the coefficient field of the torsion part of "
             "the degree k+1 Laurent cohomology of the group complex",
    "charpoly": "characteristic polynomial of multiplication by q on that "
                "torsion module; q acts as the monodromy of the fiber",
    "eigenvalues": "cyclotomic factorization of the characteristic "
                   "polynomial; (n, m) stands for the primitive n-th roots "
                   "of unity with multiplicity m",
    "verification": "the same dimensions recomputed independently from "
                    "truncated two-sided series windows and compared "
                    "degree by degree",
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed command line: one input source, one output format.

    ``degrees`` is None (all) or a tuple of closed intervals ``(lo, hi)``.
    """

    command: str
    type_label: Optional[str] = None
    family_path: Optional[str] = None
    coeff: str = "Q"
    primes: tuple = (2, 3, 5, 7)
    window_radius: Optional[int] = None
    fmt: str = "pretty"
    degrees: Optional[tuple] = None
    out: Optional[str] = None

    def domains(self):
        """Coefficient pipelines to run.

        ``Z`` is not a field, so it expands into the rational pipeline
        plus one prime-field pipeline per configured prime, each
        reported separately.
        """
        if self.coeff.strip() == "Z":
            return [QQ] + [GF(p) for p in self.primes]
        return [domain_from_spec(self.coeff)]

    def wants_degree(self, k: int) -> bool:
        return self.degrees is None or any(
            lo <= k <= hi for lo, hi in self.degrees)


@dataclasses.dataclass(frozen=True)
class MilnorDegree:
    degree: int
    betti: int
    charpoly: object
    cyclotomic: Optional[tuple]
    non_cyclotomic: object


@dataclasses.dataclass(frozen=True)
class MilnorReport:
    """Betti numbers and monodromy of the fiber of one reflection group.

    ``irreducible`` flags whether the single-fiber interpretation
    applies as-is; for reducible types the numbers are still those of
    the shifted torsion cohomology, and the flag warns that the
    geometric reading needs the irreducibility hypothesis.
    """

    label: str
    domain: Domain
    irreducible: bool
    degrees: tuple
    shift: ShiftReport
    provenance: dict


def milnor_report(system: CoxeterSystem, config: RunConfig,
                  domain: Optional[Domain] = None,
                  progress=None) -> MilnorReport:
    """Full fiber report for one coefficient field."""
    if domain is None:
        domain = config.domains()[0]
    C = build_salvetti_complex(system, domain)
    shift = verify_shift_theorem(C, config.window_radius, progress=progress)
    # a report built by hand carries no groups
    co = shift.cohomology or cohomology(C)
    mon = monodromy_char_poly(co, domain)
    rows = []
    for k in range(C.top_degree):
        rows.append(MilnorDegree(
            degree=k, betti=co[k + 1].torsion_dim,
            charpoly=mon[k].charpoly, cyclotomic=mon[k].cyclotomic,
            non_cyclotomic=mon[k].non_cyclotomic))
    label = config.type_label or str(system.n)
    return MilnorReport(label=label, domain=domain,
                        irreducible=system.is_irreducible(),
                        degrees=tuple(rows), shift=shift,
                        provenance=dict(PROVENANCE))


# -- per-domain results ----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Result:
    """One domain's answer: each subcommand sets the sections it computes
    (``milnor`` also sets ``shift`` to its report's); ``failure`` stands
    alone, for a result that contradicts the theory."""

    domain: Domain
    rank: Optional[int] = None
    basis_size: Optional[int] = None
    well_filtered: Optional[WellFilteredResult] = None
    groups: Optional[tuple] = None
    shift: Optional[ShiftReport] = None
    milnor: Optional[MilnorReport] = None
    failure: Optional[str] = None


def _input_complex(config: RunConfig, domain: Domain,
                   system: Optional[CoxeterSystem]) -> CochainComplex:
    if system is not None:
        return build_salvetti_complex(system, domain)
    return build_generic_complex(load_family(config.family_path, domain))


def _compute_cohomology(config, domain, system, pretty):
    return _Result(domain,
                   groups=cohomology(_input_complex(config, domain, system)))


def _compute_milnor(config, domain, system, pretty):
    try:
        rep = milnor_report(system, config, domain)
    except NotWellFiltered as exc:
        # would contradict the theory: flag loudly
        return _Result(domain, failure=str(exc))
    return _Result(domain, shift=rep.shift, milnor=rep)


def _compute_verify(config, domain, system, pretty):
    C = _input_complex(config, domain, system)
    r = _Result(domain, well_filtered=is_well_filtered(C))
    progress = None
    if pretty is not None:
        # long runs stream: the head before the shift, each degree as done
        pretty.start(r)
        progress = pretty.degree
    if not r.well_filtered.ok:
        return r
    shift = verify_shift_theorem(C, config.window_radius, progress=progress)
    return dataclasses.replace(r, shift=shift)


def _compute_family(config, domain, system, pretty):
    C = _input_complex(config, domain, system)
    wf = is_well_filtered(C)
    shift = verify_shift_theorem(C, config.window_radius) if wf.ok else None
    return _Result(domain, rank=len(C.gamma), basis_size=sum(C.ranks),
                   well_filtered=wf,
                   groups=shift.cohomology if shift else cohomology(C),
                   shift=shift)


# command: (compute step, pretty head before the source, CSV header)
_COMMANDS = {
    "cohomology": (_compute_cohomology, "Laurent cohomology of ",
                   ("domain", "degree", "free_rank", "torsion")),
    "milnor": (_compute_milnor, "Milnor fiber of ",
               ("domain", "degree", "betti", "charpoly", "eigenvalues",
                "non_cyclotomic", "irreducible", "shift_ok")),
    "verify": (_compute_verify, "verify ",
               ("domain", "well_filtered", "degree", "m_dim",
                "shifted_torsion_dim", "free_rank", "free_rank_next",
                "radius", "match", "note")),
    "family": (_compute_family, "",
               ("domain", "degree", "free_rank", "torsion", "m_dim",
                "shifted_torsion_dim", "match", "well_filtered")),
}


# -- renderers ---------------------------------------------------------------

class _Emitter:
    """Collects output lines, optionally printing each immediately."""

    def __init__(self, live: bool):
        self.lines = []
        self.live = live

    def emit(self, line: str = ""):
        self.lines.append(line)
        if self.live:
            print(line, flush=True)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _source_text(config: RunConfig) -> str:
    if config.type_label is not None:
        return f"type {config.type_label}"
    return f"family {config.family_path}"


def _eigen_text(row) -> str:
    if row.cyclotomic is None:
        return "n/a"
    parts = []
    for order, mult in row.cyclotomic:
        parts.append(f"Phi_{order}" + (f"^{mult}" if mult > 1 else ""))
    if row.non_cyclotomic is not None:
        parts.append(f"({format_poly(row.non_cyclotomic)})")
    return " * ".join(parts) if parts else "-"


def _wf_text(wf) -> str:
    if wf.ok:
        return "yes"
    return (f"NO: condition ({wf.condition}) fails at quotient path "
            f"{list(wf.path)}: {wf.message}")


class _Pretty:
    """Draws a domain's sections in a fixed order: head, Milnor degrees,
    well-filtered line, groups, shift degrees, shift verdict.  A compute
    step that calls ``start`` and ``degree`` itself streams its head and
    degrees; ``finish`` then adds only the verdict."""

    def __init__(self, config: RunConfig, em: _Emitter, title: str):
        self.config = config
        self.em = em
        self.title = title
        self.started = False

    def start(self, r: _Result):
        em = self.em
        wants = self.config.wants_degree
        head = f"{self.title}{_source_text(self.config)} over {r.domain}"
        if r.rank is not None:
            head += f": rank {r.rank}, {r.basis_size} basis elements"
        em.emit(head)
        if r.milnor is not None:
            if not r.milnor.irreducible:
                em.emit("  warning: reducible type, outside the "
                        "irreducibility hypothesis for the fiber reading")
            for m in r.milnor.degrees:
                if wants(m.degree):
                    em.emit(f"  degree {m.degree}: b = {m.betti}, monodromy "
                            f"{format_poly(m.charpoly)}, eigenvalues "
                            f"{_eigen_text(m)}")
        if r.well_filtered is not None:
            em.emit(f"  well filtered: {_wf_text(r.well_filtered)}")
        for g in r.groups or ():
            if wants(g.degree):
                em.emit(f"  H^{g.degree} = {g}")
        self.started = True

    def degree(self, d):
        if self.config.wants_degree(d.degree):
            self.em.emit(f"  degree {d.degree}: M-side {d.m_dim}, shifted "
                         f"torsion {d.shifted_torsion_dim}, radius {d.radius}"
                         f", {'match' if d.match else 'MISMATCH'}")

    def finish(self, r: _Result):
        if not self.started:
            self.start(r)
            # the fiber degrees stand in for the shift degrees
            if r.shift is not None and r.milnor is None:
                for d in r.shift.degrees:
                    self.degree(d)
        if r.shift is not None:
            self.em.emit(f"  shift verification: "
                         f"{'ok' if r.shift.ok else 'MISMATCH'}")
        self.started = False


def _json_entry(r: _Result, config: RunConfig) -> dict:
    wants = config.wants_degree
    entry = {}
    if r.rank is not None:
        entry["rank"] = r.rank
    if r.well_filtered is not None:
        wf = r.well_filtered
        entry["well_filtered"] = {"ok": True} if wf.ok else {
            "ok": False, "condition": wf.condition, "path": list(wf.path),
            "message": wf.message}
    if r.groups is not None:
        entry["groups"] = [{"degree": g.degree, "free_rank": g.free_rank,
                            "torsion": [format_poly(f) for f in g.torsion]}
                           for g in r.groups if wants(g.degree)]
    if r.shift is not None:
        entry["shift"] = {
            "ok": r.shift.ok,
            "degrees": [{"degree": d.degree, "m_dim": d.m_dim,
                         "shifted_torsion_dim": d.shifted_torsion_dim,
                         "free_rank": d.free_rank_here,
                         "free_rank_next": d.free_rank_above,
                         "radius": d.radius, "match": d.match}
                        for d in r.shift.degrees if wants(d.degree)]}
    if r.milnor is not None:
        entry.update(irreducible=r.milnor.irreducible,
                     provenance=r.milnor.provenance)
        entry["degrees"] = [
            {"degree": m.degree, "betti": m.betti,
             "charpoly": format_poly(m.charpoly),
             "eigenvalues": None if m.cyclotomic is None else
             [{"order": n, "multiplicity": k} for n, k in m.cyclotomic],
             "non_cyclotomic": None if m.non_cyclotomic is None
             else format_poly(m.non_cyclotomic)}
            for m in r.milnor.degrees if wants(m.degree)]
    return entry


def _json_text(config: RunConfig, results: list) -> str:
    source = ({"type": config.type_label} if config.type_label is not None
              else {"family": config.family_path})
    doc = {"schema": SCHEMA_VERSION, "command": config.command,
           "coeff": config.coeff, "input": source,
           "results": {str(r.domain): _json_entry(r, config)
                       for r in results}}
    return json.dumps(doc, sort_keys=True, indent=2)


def _csv_rows(r: _Result, config: RunConfig) -> list:
    wants = config.wants_degree
    dom = str(r.domain)
    if r.milnor is not None:
        return [[dom, m.degree, m.betti, format_poly(m.charpoly),
                 _eigen_text(m),
                 "" if m.non_cyclotomic is None
                 else format_poly(m.non_cyclotomic),
                 r.milnor.irreducible, r.shift.ok]
                for m in r.milnor.degrees if wants(m.degree)]
    wf = r.well_filtered
    if r.groups is None:
        if r.shift is None:
            return [[dom, wf.ok, "", "", "", "", "", "", "", _wf_text(wf)]]
        return [[dom, wf.ok, d.degree, d.m_dim, d.shifted_torsion_dim,
                 d.free_rank_here, d.free_rank_above, d.radius, d.match, ""]
                for d in r.shift.degrees if wants(d.degree)]
    shifts = {d.degree: (d.m_dim, d.shifted_torsion_dim, d.match)
              for d in r.shift.degrees} if r.shift else {}
    rows = []
    for g in r.groups:
        if wants(g.degree):
            row = [dom, g.degree, g.free_rank,
                   "|".join(format_poly(f) for f in g.torsion)]
            if wf is not None:
                row += [*shifts.get(g.degree, ("", "", "")), wf.ok]
            rows.append(row)
    return rows


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# -- driver ----------------------------------------------------------------

def _check_sources(config: RunConfig):
    if config.command == "milnor" and config.type_label is None:
        raise ArtinfibError("milnor needs --type (a finite reflection type)")
    if config.command == "family" and config.family_path is None:
        raise ArtinfibError("family needs --family <file>")
    if (config.type_label is None) == (config.family_path is None):
        raise ArtinfibError("exactly one of --type or --family is required")


def _drive(config: RunConfig, em: _Emitter) -> int:
    _check_sources(config)
    compute, title, csv_header = _COMMANDS[config.command]
    system = None
    if config.type_label is not None:
        system = system_from_string(config.type_label)
    pretty = _Pretty(config, em, title) if config.fmt == "pretty" else None
    code = 0
    results = []
    for domain in config.domains():
        r = compute(config, domain, system, pretty)
        wf = r.well_filtered
        if (r.failure is not None or (r.shift is not None and not r.shift.ok)
                # a reflection-group complex must be well filtered
                or (system is not None and wf is not None and not wf.ok)):
            code = 1
        if r.failure is not None:
            line = f"{_source_text(config)} over {domain}: {r.failure}"
            if pretty is not None:
                em.emit(line)
            else:
                # keep the JSON or CSV document on stdout parseable
                print(line, file=sys.stderr)
        elif pretty is not None:
            pretty.finish(r)
        else:
            results.append(r)
    if config.fmt == "json":
        em.emit(_json_text(config, results))
    elif config.fmt == "csv":
        em.emit(_csv_text(csv_header,
                          [row for r in results
                           for row in _csv_rows(r, config)]))
    return code


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    live = config.fmt == "pretty" and config.out is None
    em = _Emitter(live=live)
    try:
        code = _drive(config, em)
    except NotStabilized as exc:
        tried = ", ".join(f"({r}, {d})" for r, d in exc.history) or "none"
        print(f"error: window dimensions did not stabilize "
              f"(last radius {exc.radius}; radius, dim tried: {tried}); "
              f"raise --window-radius", file=sys.stderr)
        return 2
    except ArtinfibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = em.text()
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not live:
        sys.stdout.write(text)
    return code


# -- argument parsing -------------------------------------------------------

def _parse_degrees(text: str) -> tuple:
    """Closed degree intervals ``(lo, hi)``, in the order given."""
    picked = []
    for token in text.split(","):
        token = token.strip()
        if ":" in token:
            a, b = token.split(":", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError(f"empty degree range {token!r}")
            picked.append((lo, hi))
        elif token:
            picked.append((int(token), int(token)))
    if not picked:
        raise ValueError("no degrees selected")
    return tuple(picked)


def _add_common(sub: argparse.ArgumentParser, with_type=True,
                with_family=True):
    if with_type:
        sub.add_argument("--type", dest="type_label", metavar="LABEL",
                         help="finite reflection type, e.g. A3, I2(5), "
                              "B2xA1")
    if with_family:
        sub.add_argument("--family", dest="family_path", metavar="FILE",
                         help="polynomial family file")
    sub.add_argument("--coeff", default="Q", metavar="DOMAIN",
                     help="Q, Zp:<p>, or Z (rationals plus prime fields)")
    sub.add_argument("--primes", default="2,3,5,7", metavar="LIST",
                     help="primes used when --coeff Z (default 2,3,5,7)")
    sub.add_argument("--window-radius", type=int, default=None,
                     metavar="N", help="initial series window radius")
    sub.add_argument("--format", dest="fmt", default="pretty",
                     choices=("pretty", "json", "csv"))
    sub.add_argument("--degrees", default=None, metavar="SPEC",
                     help="degree filter, e.g. '0:3' or '1,2'")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinfib",
        description="Laurent-coefficient cohomology of Artin groups and "
                    "the fibers of their discriminants")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser(
        "cohomology", help="invariant factors of the Laurent complex"))
    _add_common(subs.add_parser(
        "milnor", help="fiber Betti numbers and monodromy"),
        with_family=False)
    _add_common(subs.add_parser(
        "verify", help="well-filteredness and the degree-shift comparison"))
    _add_common(subs.add_parser(
        "family", help="validate a family file and run the pipeline"),
        with_type=False)
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    primes = tuple(int(p) for p in str(ns.primes).split(",") if p.strip())
    if len(set(primes)) != len(primes):
        raise ValueError(f"repeated prime in --primes {ns.primes}")
    degrees = _parse_degrees(ns.degrees) if ns.degrees else None
    return RunConfig(command=ns.command,
                     type_label=getattr(ns, "type_label", None),
                     family_path=getattr(ns, "family_path", None),
                     coeff=ns.coeff, primes=primes,
                     window_radius=ns.window_radius, fmt=ns.fmt,
                     degrees=degrees, out=ns.out)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_args(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
