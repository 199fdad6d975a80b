"""Command-line front end: pressure tables, phase diagrams, finite-size checks.

Subcommands
    pressure        classical and quantum pressures on a (beta, gamma) grid
    phase-diagram   pressure/magnetization grid plus detected transition lines
    nonhier         non-hierarchical pressures from the greedy single chain
    verify          sampled finite-N pressures against the limit formulas

Every CSV starts with a `# manifest:` comment carrying the SHA-256 of the
resolved configuration and the seed, so identical configurations reproduce
byte-identical files.  Exit codes: 0 ok, 1 usage, 2 validation, 3 failed
verification assertion, 4 capacity.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .classical import classical_pressure
from .errors import CapacityError, DomainError, ValidationError
from .model import DistributionSpec, FieldSpec, _json_number, _json_numbers
from .nonhier import NonHierModel, greedy_reduction, indices_of, model_hull
from .quantum import magnetization, qgrem_critical_fields, qgrem_pressure, transition_scan
from .verify import (concentration_check, convergence_study, sample_instance, sign_invariance_check,
                     check_limit_range)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3
EXIT_CAPACITY = 4
GRID_MAX_POINTS = 1_000_000  # points of a grid, and cells of a limit table (README, Size gates)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str):
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(out: str, header, rows, manifest: str):
    """Rows formatted as they are computed into one text, written once: no row or line list is held."""
    buf = io.StringIO()
    buf.write(f"{manifest}\n{','.join(header)}\n")
    buf.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    text = buf.getvalue()
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:  # a missing directory, a directory, no permission: like an unreadable input
        raise ValidationError(f"cannot write output file {out!r}: {exc}") from exc


def _check_writable(*outs: str):
    """Reject an output path that cannot be written, before any work runs and
    without creating or truncating a file ('-' is stdout)."""
    for out in outs:
        if out == "-":
            continue
        path = Path(out)
        if path.is_dir():
            reason = "it is a directory"
        elif not path.parent.is_dir():
            reason = f"no directory {str(path.parent)!r}"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise ValidationError(f"cannot write output file {out!r}: {reason}")


def _manifest(args) -> str:
    """Manifest line of the resolved options; output paths and worker counts
    do not change the numbers, so they stay out of the digest."""
    config = {k: v for k, v in vars(args).items() if k not in {"func", "out", "transitions_out", "workers"}}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    seed = config.get("seed", "-")
    return f"# manifest: config={digest} seed={seed}"


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSON and Unicode decoding
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc


def load_model(path: str):
    """Read a model file: hierarchical profile or non-hierarchical weights.

    Hierarchical: {"kind": "step"|"piecewise_linear", "x": [...],
                   "A": [...] or "jumps": [...], "normalized": bool}.
    Non-hierarchical: {"n": ..., "L": [...], "weights": {"1,3": ...}}.
    """
    doc = _read_json(path, "model")
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    if "weights" in doc:
        return NonHierModel.from_json_dict(doc)
    kind = doc.get("kind", "step")
    try:
        xs = _json_numbers(doc["x"], "x")
        if "A" in doc:
            values = _json_numbers(doc["A"], "A")
        else:
            values = list(np.cumsum(_json_numbers(doc["jumps"], "jumps")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad hierarchical model document: {exc}") from exc
    normalized = doc.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ValidationError(f"normalized must be true or false, got {normalized!r}")
    if kind == "step":
        return DistributionSpec.step(xs, values, normalized)
    if kind == "piecewise_linear":
        return DistributionSpec.piecewise_linear(xs, values, normalized)
    raise ValidationError(f"unknown model kind {kind!r}")


def parse_field(text: str) -> FieldSpec:
    kind, _, rest = text.partition(":")
    if kind in ("constant", "gaussian"):
        try:
            params = [float(tok) for tok in rest.split(",")]
        except ValueError:
            params = []
        if len(params) != (1 if kind == "constant" else 2):
            raise UsageError(f"bad field law {text!r}: want constant:G or gaussian:MEAN,STDDEV")
        return FieldSpec.constant(*params) if kind == "constant" else FieldSpec.gaussian(*params)
    if kind not in ("discrete", "empirical"):
        raise UsageError(f"unknown field law {kind!r}")
    doc = _read_json(rest, "field")
    if not isinstance(doc, list):
        raise ValidationError(f"{kind} field file {rest!r} must hold a JSON list")
    try:
        values = ([(_json_number(v, "value"), _json_number(p, "probability")) for v, p in doc]
                  if kind == "discrete" else _json_numbers(doc, "samples"))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {kind} field file {rest!r}: {exc}") from exc
    return FieldSpec.discrete(values) if kind == "discrete" else FieldSpec.empirical(values)


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid must be numbers start:stop:count, got {text!r}") from exc
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if count > GRID_MAX_POINTS:  # before np.linspace allocates
        raise CapacityError(f"grids are gated at {GRID_MAX_POINTS} points, got {count}")
    if start > stop:
        raise UsageError("grid start must be <= stop")
    return [float(v) for v in np.linspace(start, stop, count)]


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _limit_grid(args, *outs):
    """Beta grid and field laws (--field, or a constant law per --gamma point), with the
    cell count gated and the output paths checked before the model is reduced (up to 1 s at n = 20)."""
    betas, law = parse_grid(args.beta), getattr(args, "field", None)  # phase-diagram takes --gamma alone
    if args.gamma is not None:
        if law is not None:
            raise UsageError("give either --gamma or --field, not both")
        fields = [FieldSpec.constant(g) for g in parse_grid(args.gamma)]
    elif law is None:
        raise UsageError("need --field LAW or --gamma grid")
    else:
        fields = [parse_field(law)]
    if len(betas) * len(fields) > GRID_MAX_POINTS:
        raise CapacityError(f"limit tables are gated at {GRID_MAX_POINTS} cells, "
                            f"got {len(betas)} x {len(fields)}")
    _check_writable(*outs)
    return betas, fields


def _cells(hull, betas, fields):
    """(beta, field, qgrem_pressure result) for every cell of the grid, beta-major."""
    for beta in betas:
        for field in fields:
            yield beta, field, qgrem_pressure(hull, beta, field)


def _pressure_table(args, hull, betas, fields, columns, tail) -> int:
    """Rows of `pressure` and `nonhier`: beta, field, classical, quantum, then ``tail(result)``."""
    rows = ((beta, field.label(), classical_pressure(hull, beta), res.value, *tail(res))
            for beta, field, res in _cells(hull, betas, fields))
    _write_csv(args.out, ("beta", "gamma_or_law", "classical", "quantum", *columns), rows, _manifest(args))
    return EXIT_OK


def cmd_pressure(args) -> int:
    model = load_model(args.model)
    betas, fields = _limit_grid(args, args.out)
    hull = model_hull(model)

    def tail(res):  # the cut K, then C (classical) for segments 1..K and P (paramagnetic) for the rest
        return res.argmax, "C" * res.argmax + "P" * (hull.m - res.argmax)

    return _pressure_table(args, hull, betas, fields, ("argmax", "block_phases"), tail)


def cmd_phase_diagram(args) -> int:
    model = load_model(args.model)
    out_tr = args.transitions_out or _derived_transitions_path(args.out)
    betas, fields = _limit_grid(args, args.out, out_tr)  # both paths, before either file is written
    hull = model_hull(model)
    grid_rows = ((beta, field.label(), res.value, magnetization(hull, beta, field.gamma) if beta > 0 else 0.0)
                 for beta, field, res in _cells(hull, betas, fields))
    manifest = _manifest(args)
    _write_csv(args.out, ("beta", "gamma", "pressure", "m_z"), grid_rows, manifest)

    magnetic = (("magnetic", rank, beta, tr.gamma, tr.order.value, tr.jump)
                for beta in betas if beta > 0
                for rank, tr in enumerate(sorted(
                    transition_scan(hull, beta, first_order_jump_tol=args.jump_tol,
                                    second_order_slope_tol=args.slope_tol, cluster_gap=args.cluster_gap),
                    key=lambda t: -t.gamma), start=1))
    glass = (("glass", l, beta_l, qgrem_critical_fields(hull, beta_l)[l - 1], "second", 0.0)
             for l, (slope, beta_l) in enumerate(zip(hull.slopes, hull.freeze_betas), start=1) if slope > 0.0)
    tr_rows = (row for rows in (magnetic, glass) for row in rows)
    _write_csv(out_tr, ("kind", "index", "beta", "gamma", "order", "jump"), tr_rows, manifest)
    return EXIT_OK


def _derived_transitions_path(out: str) -> str:
    if out == "-":
        return "-"
    p = Path(out)
    return str(p.with_name(p.stem + "-transitions" + (p.suffix or ".csv")))


def cmd_nonhier(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, NonHierModel):
        raise ValidationError("this subcommand needs a non-hierarchical model file")
    betas, fields = _limit_grid(args, args.out)
    chain, hull, kink_sets = greedy_reduction(model)
    order = "|".join(str(i) for i in chain.order)

    def tail(res):  # D, the round set at the cut, or "-" when every block is paramagnetic
        d_mask = kink_sets[res.argmax - 1] if res.argmax else 0
        return "|".join(str(i) for i in indices_of(d_mask)) or "-", res.value, order

    return _pressure_table(args, hull, betas, fields, ("argmax_D", "greedy_quantum", "greedy_order"), tail)


def cmd_verify(args) -> int:
    model = load_model(args.model)
    field = parse_field(args.field)
    betas = parse_grid(args.beta)
    Ns = parse_int_list(args.N)
    if not Ns:
        raise UsageError("verify needs a non-empty --N list")
    if not args.tol_limit_gap > 0.0:  # a nan fails too
        raise ValidationError(f"--tol-limit-gap must be > 0, got {args.tol_limit_gap:g}")
    _check_writable(args.out)
    hull = model_hull(model)
    for beta in betas:  # the supported range, before any replica runs
        check_limit_range(qgrem_pressure(hull, beta, field).value, beta, args.tol_limit_gap)
    label = field.label()

    rows = []
    checks = []  # (name, passed, detail)
    n_sign, sign_inst = min(min(Ns), 8), None
    for beta in betas:
        study = convergence_study(
            model, field, beta, Ns, args.replicas, args.seed,
            freeze_field=args.freeze_field, method=args.method,
            probes=args.probes, workers=args.workers,
        )
        for row, phis in zip(study.rows, study.replica_phis):
            for r, phi in enumerate(phis):
                rows.append((r, row.N, beta, label, phi))
        last = study.rows[-1]
        checks.append((
            f"limit-gap beta={_fmt(beta)} N={last.N}",
            last.gap <= args.tol_limit_gap,
            f"|mean - limit| = {_fmt(last.gap)} (tol {_fmt(args.tol_limit_gap)}, limit {_fmt(study.limit)})",
        ))

        # one instance serves every beta (its seed does not depend on beta); drawn after the first
        # study, so a bad --N is still reported by convergence_study
        sign_inst = sign_inst or sample_instance(model, field, n_sign, [args.seed, 987])
        dev = sign_invariance_check(sign_inst, beta, patterns=5, seed=args.seed)
        checks.append((
            f"sign-invariance beta={_fmt(beta)} N={n_sign}",
            dev <= 1e-8,
            f"max relative deviation = {_fmt(dev)}",
        ))

        if args.replicas >= 200:
            rep = concentration_check(
                model, field, min(Ns), beta, args.replicas, args.seed,
                method=args.method, probes=args.probes, workers=args.workers,
            )
            checks.append((
                f"concentration beta={_fmt(beta)} N={min(Ns)}",
                rep.passed,
                "fractions " + "/".join(_fmt(f) for f in rep.fractions)
                + " vs bounds " + "/".join(_fmt(b + s) for b, s in zip(rep.bounds, rep.slacks)),
            ))
        else:
            print(f"note: concentration check skipped (replicas {args.replicas} < 200)", file=sys.stderr)

    _write_csv(args.out, ("replica", "N", "beta", "gamma_or_law", "phi_N"),
               rows, _manifest(args))
    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}", file=sys.stderr)
        ok = ok and passed
    return EXIT_OK if ok else EXIT_ASSERTION


def build_parser() -> _Parser:
    parser = _Parser(prog="tfglass", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--beta", required=True, help="inverse-temperature grid start:stop:count")
        p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")

    p = sub.add_parser("pressure", help="pressure table on a grid")
    common(p)
    p.add_argument("--gamma", help="constant-field grid start:stop:count")
    p.add_argument("--field", help="field law: constant:G | discrete:FILE | gaussian:M,S | empirical:FILE")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("phase-diagram", help="pressure/magnetization grid plus transition lines")
    common(p)
    p.add_argument("--gamma", required=True, help="field grid start:stop:count")
    p.add_argument("--transitions-out", default=None)
    p.add_argument("--jump-tol", type=float, default=1e-3, dest="jump_tol")
    p.add_argument("--slope-tol", type=float, default=1e-2, dest="slope_tol")
    p.add_argument("--cluster-gap", type=float, default=None, dest="cluster_gap")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("nonhier", help="non-hierarchical pressures (greedy single chain)")
    common(p)
    p.add_argument("--gamma", help="constant-field grid start:stop:count")
    p.add_argument("--field", help="field law (see pressure)")
    p.set_defaults(func=cmd_nonhier)

    p = sub.add_parser("verify", help="finite-N sampling against the limit formulas")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--field", required=True, help="field law (see pressure)")
    p.add_argument("--N", required=True, help="comma-separated spin counts, e.g. 6,8,10,12")
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--tol-limit-gap", type=float, default=0.15, dest="tol_limit_gap")
    p.add_argument("--freeze-field", action="store_true", dest="freeze_field")
    p.add_argument("--method", choices=("auto", "exact", "stochastic"), default="auto")
    p.add_argument("--probes", type=int, default=128)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE
    except (ValidationError, DomainError) as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except CapacityError as exc:
        _emit_error("capacity", exc)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
