"""Command line driver and report serialization.

Four subcommands cover the pipeline: ``cohomology`` prints the
invariant-factor tables of the Laurent-coefficient complex, ``milnor``
the fiber Betti numbers with monodromy data, ``verify`` the
well-filteredness check plus the series-window shift comparison, and
``family`` the full pipeline on a user-supplied polynomial family.

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

from .complexes import (CochainComplex, build_generic_complex,
                        build_salvetti_complex, is_well_filtered, load_family)
from .coxeter import CoxeterSystem, system_from_string
from .domains import GF, QQ, Domain, domain_from_spec
from .errors import ArtinfibError, NotStabilized, NotWellFiltered
from .homology import (InvariantFactors, ShiftReport, WindowPolicy,
                       cohomology, monodromy_char_poly, verify_shift_theorem)
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
    """Parsed command line: one input source, one output format."""

    command: str
    type_label: Optional[str] = None
    family_path: Optional[str] = None
    coeff: str = "Q"
    primes: tuple = (2, 3, 5, 7)
    window_radius: Optional[int] = None
    fmt: str = "pretty"
    degrees: Optional[frozenset] = None
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

    def policy(self) -> WindowPolicy:
        return WindowPolicy(initial_radius=self.window_radius)

    def wants_degree(self, k: int) -> bool:
        return self.degrees is None or k in self.degrees


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
    shift = verify_shift_theorem(C, config.policy(), progress=progress)
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


# -- emission --------------------------------------------------------------

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


def _shift_line(d) -> str:
    verdict = "match" if d.match else "MISMATCH"
    return (f"  degree {d.degree}: M-side {d.m_dim}, shifted torsion "
            f"{d.shifted_torsion_dim}, radius {d.radius}, {verdict}")


def _json_groups(groups, config):
    return [{"degree": g.degree, "free_rank": g.free_rank,
             "torsion": [format_poly(f) for f in g.torsion]}
            for g in groups if config.wants_degree(g.degree)]


def _json_shift(shift: ShiftReport, config):
    return {"ok": shift.ok,
            "degrees": [{"degree": d.degree, "m_dim": d.m_dim,
                         "shifted_torsion_dim": d.shifted_torsion_dim,
                         "free_rank": d.free_rank_here,
                         "free_rank_next": d.free_rank_above,
                         "radius": d.radius, "match": d.match}
                        for d in shift.degrees
                        if config.wants_degree(d.degree)]}


def _json_wf(wf):
    out = {"ok": wf.ok}
    if not wf.ok:
        out["condition"] = wf.condition
        out["path"] = list(wf.path)
        out["message"] = wf.message
    return out


def _json_milnor(rep: MilnorReport, config):
    return {
        "irreducible": rep.irreducible,
        "degrees": [{"degree": r.degree, "betti": r.betti,
                     "charpoly": format_poly(r.charpoly),
                     "eigenvalues": None if r.cyclotomic is None else
                     [{"order": n, "multiplicity": m}
                      for n, m in r.cyclotomic],
                     "non_cyclotomic": None if r.non_cyclotomic is None
                     else format_poly(r.non_cyclotomic)}
                    for r in rep.degrees if config.wants_degree(r.degree)],
        "shift": _json_shift(rep.shift, config),
        "provenance": rep.provenance,
    }


def _finish_json(config: RunConfig, results: dict) -> str:
    doc = {"schema": SCHEMA_VERSION, "command": config.command,
           "coeff": config.coeff, "results": results}
    if config.type_label is not None:
        doc["input"] = {"type": config.type_label}
    else:
        doc["input"] = {"family": config.family_path}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- input assembly --------------------------------------------------------

def _input_system(config: RunConfig) -> CoxeterSystem:
    return system_from_string(config.type_label)


def _input_complex(config: RunConfig, domain: Domain) -> CochainComplex:
    if config.type_label is not None:
        return build_salvetti_complex(_input_system(config), domain)
    family = load_family(config.family_path, domain)
    return build_generic_complex(family)


def _check_sources(config: RunConfig):
    if (config.type_label is None) == (config.family_path is None):
        raise ArtinfibError("exactly one of --type or --family is required")


# -- subcommands -----------------------------------------------------------

def _run_cohomology(config: RunConfig, em: _Emitter) -> int:
    _check_sources(config)
    results = {}
    csv_rows = []
    for domain in config.domains():
        C = _input_complex(config, domain)
        co = cohomology(C)
        if config.fmt == "pretty":
            em.emit(f"Laurent cohomology of {_source_text(config)} "
                    f"over {domain}")
            for g in co:
                if config.wants_degree(g.degree):
                    em.emit(f"  H^{g.degree} = {g}")
        elif config.fmt == "json":
            results[str(domain)] = {"groups": _json_groups(co, config)}
        else:
            for g in co:
                if config.wants_degree(g.degree):
                    csv_rows.append([str(domain), g.degree, g.free_rank,
                                     "|".join(format_poly(f)
                                              for f in g.torsion)])
    if config.fmt == "json":
        em.emit(_finish_json(config, results).rstrip("\n"))
    elif config.fmt == "csv":
        em.emit(_csv_text(["domain", "degree", "free_rank", "torsion"],
                          csv_rows).rstrip("\n"))
    return 0


def _run_milnor(config: RunConfig, em: _Emitter) -> int:
    if config.type_label is None:
        raise ArtinfibError("milnor needs --type (a finite reflection type)")
    system = _input_system(config)
    code = 0
    results = {}
    csv_rows = []
    for domain in config.domains():
        try:
            rep = milnor_report(system, config, domain)
        except NotWellFiltered as exc:
            # would contradict the theory: flag loudly
            em.emit(f"{_source_text(config)} over {domain}: {exc}")
            code = 1
            continue
        if not rep.shift.ok:
            code = 1
        if config.fmt == "pretty":
            em.emit(f"Milnor fiber of {_source_text(config)} over {domain}")
            if not rep.irreducible:
                em.emit("  warning: reducible type, outside the "
                        "irreducibility hypothesis for the fiber reading")
            for r in rep.degrees:
                if config.wants_degree(r.degree):
                    em.emit(f"  degree {r.degree}: b = {r.betti}, monodromy "
                            f"{format_poly(r.charpoly)}, eigenvalues "
                            f"{_eigen_text(r)}")
            em.emit(f"  shift verification: "
                    f"{'ok' if rep.shift.ok else 'MISMATCH'}")
        elif config.fmt == "json":
            results[str(domain)] = _json_milnor(rep, config)
        else:
            for r in rep.degrees:
                if config.wants_degree(r.degree):
                    csv_rows.append([
                        str(domain), r.degree, r.betti,
                        format_poly(r.charpoly), _eigen_text(r),
                        "" if r.non_cyclotomic is None
                        else format_poly(r.non_cyclotomic),
                        rep.irreducible, rep.shift.ok])
    if config.fmt == "json":
        em.emit(_finish_json(config, results).rstrip("\n"))
    elif config.fmt == "csv":
        em.emit(_csv_text(["domain", "degree", "betti", "charpoly",
                           "eigenvalues", "non_cyclotomic", "irreducible",
                           "shift_ok"], csv_rows).rstrip("\n"))
    return code


def _run_verify(config: RunConfig, em: _Emitter) -> int:
    _check_sources(config)
    salvetti = config.type_label is not None
    code = 0
    results = {}
    csv_rows = []
    for domain in config.domains():
        C = _input_complex(config, domain)
        wf = is_well_filtered(C)
        pretty = config.fmt == "pretty"
        if pretty:
            em.emit(f"verify {_source_text(config)} over {domain}")
            em.emit(f"  well filtered: {_wf_text(wf)}")
        shift = None
        if not wf.ok:
            if salvetti:
                code = 1
        else:
            progress = None
            if pretty:
                progress = (lambda d: em.emit(_shift_line(d))
                            if config.wants_degree(d.degree) else None)
            shift = verify_shift_theorem(C, config.policy(),
                                         progress=progress)
            if not shift.ok:
                code = 1
            if pretty:
                em.emit(f"  shift verification: "
                        f"{'ok' if shift.ok else 'MISMATCH'}")
        if config.fmt == "json":
            entry = {"well_filtered": _json_wf(wf)}
            if shift is not None:
                entry["shift"] = _json_shift(shift, config)
            results[str(domain)] = entry
        elif config.fmt == "csv":
            if shift is None:
                csv_rows.append([str(domain), wf.ok, "", "", "", "", "", "",
                                 "", _wf_text(wf)])
            else:
                for d in shift.degrees:
                    if config.wants_degree(d.degree):
                        csv_rows.append([str(domain), wf.ok, d.degree,
                                         d.m_dim, d.shifted_torsion_dim,
                                         d.free_rank_here, d.free_rank_above,
                                         d.radius, d.match, ""])
    if config.fmt == "json":
        em.emit(_finish_json(config, results).rstrip("\n"))
    elif config.fmt == "csv":
        em.emit(_csv_text(["domain", "well_filtered", "degree", "m_dim",
                           "shifted_torsion_dim", "free_rank",
                           "free_rank_next", "radius", "match", "note"],
                          csv_rows).rstrip("\n"))
    return code


def _run_family(config: RunConfig, em: _Emitter) -> int:
    if config.family_path is None:
        raise ArtinfibError("family needs --family <file>")
    code = 0
    results = {}
    csv_rows = []
    for domain in config.domains():
        family = load_family(config.family_path, domain)
        C = build_generic_complex(family)
        wf = is_well_filtered(C)
        shift = None
        if wf.ok:
            shift = verify_shift_theorem(C, config.policy())
            if not shift.ok:
                code = 1
        co = shift.cohomology if shift else cohomology(C)
        if config.fmt == "pretty":
            em.emit(f"family {config.family_path} over {domain}: rank "
                    f"{len(C.gamma)}, {sum(C.ranks)} basis elements")
            em.emit(f"  well filtered: {_wf_text(wf)}")
            for g in co:
                if config.wants_degree(g.degree):
                    em.emit(f"  H^{g.degree} = {g}")
            if shift is not None:
                for d in shift.degrees:
                    if config.wants_degree(d.degree):
                        em.emit(_shift_line(d))
                em.emit(f"  shift verification: "
                        f"{'ok' if shift.ok else 'MISMATCH'}")
        elif config.fmt == "json":
            entry = {"rank": len(C.gamma),
                     "well_filtered": _json_wf(wf),
                     "groups": _json_groups(co, config)}
            if shift is not None:
                entry["shift"] = _json_shift(shift, config)
            results[str(domain)] = entry
        else:
            by_degree = {d.degree: d for d in shift.degrees} if shift else {}
            for g in co:
                if config.wants_degree(g.degree):
                    d = by_degree.get(g.degree)
                    csv_rows.append([
                        str(domain), g.degree, g.free_rank,
                        "|".join(format_poly(f) for f in g.torsion),
                        d.m_dim if d else "",
                        d.shifted_torsion_dim if d else "",
                        d.match if d else "", wf.ok])
    if config.fmt == "json":
        em.emit(_finish_json(config, results).rstrip("\n"))
    elif config.fmt == "csv":
        em.emit(_csv_text(["domain", "degree", "free_rank", "torsion",
                           "m_dim", "shifted_torsion_dim", "match",
                           "well_filtered"], csv_rows).rstrip("\n"))
    return code


_COMMANDS = {
    "cohomology": _run_cohomology,
    "milnor": _run_milnor,
    "verify": _run_verify,
    "family": _run_family,
}


def _source_text(config: RunConfig) -> str:
    if config.type_label is not None:
        return f"type {config.type_label}"
    return f"family {config.family_path}"


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    live = config.fmt == "pretty" and config.out is None
    em = _Emitter(live=live)
    try:
        code = _COMMANDS[config.command](config, em)
    except NotStabilized as exc:
        print(f"error: window dimensions did not stabilize "
              f"(last radius {exc.radius}); raise --window-radius",
              file=sys.stderr)
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

def _parse_degrees(text: str) -> frozenset:
    picked = set()
    for token in text.split(","):
        token = token.strip()
        if ":" in token:
            a, b = token.split(":", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError(f"empty degree range {token!r}")
            picked.update(range(lo, hi + 1))
        elif token:
            picked.add(int(token))
    if not picked:
        raise ValueError("no degrees selected")
    return frozenset(picked)


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
