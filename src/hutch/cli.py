"""Command-line driver: build or load systems, run probes, emit reports.

Bundles are deterministic: the same config produces byte-identical
bundle.json files (wall-clock timings go to a timings.json sidecar).  Probes
run one after another in config order; each probe's CSV is written atomically
as soon as the probe completes, and bundle.json and timings.json once all
probes have run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .circle import (
    ArcSet,
    CirclePoint,
    arc,
    frac,
    gap_radius,
    normalize,
    point_set,
)
from .homeo import PLHomeo
from .ifs import (
    EXACT,
    IFS,
    PROBE_POLICY,
    PrecisionPolicy,
    ResourceCapError,
    Step,
    attractor_probe,
    invariance_check,
    inverse_system,
    iterate,
    orbit_density_probe,
)
from .probes import (
    covering_time,
    equicontinuity_probe,
    sensitivity_probe,
)
from .constructions import (
    Theorem1Params,
    build_theorem1,
    diagonal_containment_check,
    theorem2_ifs,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


EXIT_CONFIG = 2
EXIT_RESOURCE = 3


# -- JSON ----------------------------------------------------------------------
# This module is the one that reads and writes JSON.  A field parser maps a
# raw JSON value to its value in the resolved config (an int, a Fraction, a
# CirclePoint list, an ArcSet), raising one of the errors _parse catches for
# a malformed value; _parse names the field in the ConfigError.  _json
# renders values back, configs and reports alike.


def _integer(floor: int | None = None):
    def parse(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected integer, got {value!r}")
        if floor is not None and value < floor:
            raise ValueError(f"must be >= {floor}, got {value}")
        return value

    return parse


def _positive(value) -> Fraction:
    x = frac(value)
    if x <= 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _arc_length(value) -> Fraction:
    x = frac(value)
    if not 0 < x <= 1:
        raise ValueError(f"must lie in (0, 1], got {x}")
    return x


def _list(item):
    def parse(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError("expected non-empty list")
        return [item(v) for v in value]

    return parse


def _deltas(value) -> list[Fraction]:
    d = _list(_positive)(value)
    if d[0] > Fraction(1, 2) or any(a <= b for a, b in zip(d, d[1:])):
        raise ValueError("must decrease strictly from at most 1/2")
    return d


def _points(value) -> list[CirclePoint]:
    """Either an integer (that many stratified points k/n) or a list of
    exact rationals, each reduced into [0, 1)."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = [Fraction(k, value) for k in range(value)]
    if not isinstance(value, list):
        raise ValueError("expected count or list of rationals")
    if not value:
        raise ValueError("need at least one point")
    return [CirclePoint(frac(v)) for v in value]


def _direction(value) -> str:
    if value not in ("forward", "backward"):
        raise ValueError("expected forward or backward")
    return value


def _parse(parse, value, name: str):
    try:
        return parse(value)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"field '{name}': {exc}") from None


def _fields(table: dict, obj: dict, ctx: str) -> dict:
    """Resolve obj against table, which maps each field name to (parser,
    default); a field whose default is None is optional and omitted when
    absent.  Keys the table does not name are rejected."""
    _known_keys(obj, table, ctx)
    return {
        key: _parse(parse, obj.get(key, default), ctx + key)
        for key, (parse, default) in table.items()
        if key in obj or default is not None
    }


def _known_keys(obj: dict, names, ctx: str) -> None:
    """Reject the first key of obj that is not one of names."""
    for key in obj:
        if key not in names:
            raise ConfigError(
                f"field '{ctx}{key}': unknown field (expected {', '.join(names)})"
            )


# The file formats: arc sets (a probe's set) and IFSs (--system PATH).  An
# unknown key raises ValueError naming its path inside the value, which
# _parse prefixes with the field.


def _object(value, keys: tuple, where: str = "") -> dict:
    """value, checked to be a JSON object whose keys are all among keys."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ValueError(f"{where}{key}: unknown key (expected {', '.join(keys)})")
    return value


def _arcset(value) -> ArcSet:
    """[{"start": "p/q", "length": "p/q"}, ...]"""
    return normalize([
        arc(**_object(item, ("start", "length"), f"[{i}]."))
        for i, item in enumerate(value)
    ])


def _homeo(value, where: str) -> PLHomeo:
    """{"offset": "p/q", "breakpoints": [["x", "y"], ...]}, both optional"""
    obj = _object(value, ("offset", "breakpoints"), where)
    return PLHomeo(
        tuple((CirclePoint(frac(x)), CirclePoint(frac(y)))
              for x, y in obj.get("breakpoints", ())),
        frac(obj.get("offset", 0)),
    )


def _ifs(value) -> IFS:
    """{"label": "...", "generators": [generator, ...]}, label optional"""
    obj = _object(value, ("label", "generators"))
    if "generators" not in obj:
        raise ValueError("generators: required")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise TypeError(f"label: expected a string, got {label!r}")
    return IFS(
        tuple(_homeo(g, f"generators[{i}].") for i, g in enumerate(obj["generators"])),
        label,
    )


def _json(value: Any) -> Any:
    """A resolved value as JSON: a rational becomes 'p/q', a point its value,
    an arc set its arc list, a record (dataclass or NamedTuple) or dict an
    object keyed by its field names, a tuple or list a list; other values
    pass unchanged."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, CirclePoint):
        return str(value.value)
    if isinstance(value, ArcSet):
        value = value.arcs
    elif dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


# -- config --------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; `echo` renders it as the JSON object
    written back into every bundle."""

    system_source: str | dict
    probes: tuple[dict, ...]
    precision: PrecisionPolicy
    out_dir: str
    seed: int
    system_params: dict = field(default_factory=dict)

    def echo(self) -> dict:
        # The output directory is deliberately not echoed: bundles describe
        # the experiment, and byte-identical bundles must not depend on
        # where they were written.
        return _json({
            "system": self.system_source,
            "system_params": self.system_params,
            "probes": self.probes,
            "precision": self.precision,
            "seed": self.seed,
        })


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a raw config object into an ExperimentConfig; raises
    ConfigError naming the offending field."""
    if not isinstance(obj, dict):
        raise ConfigError("field '<root>': config must be a JSON object")
    _known_keys(obj, ("system", "system_params", "probes", "precision", "out", "seed"), "")

    system = obj.get("system")
    if system is None:
        raise ConfigError("field 'system': required (builtin name or {\"path\": ...})")
    if isinstance(system, dict):
        _known_keys(system, ("path",), "system.")
        if "path" not in system:
            raise ConfigError("field 'system.path': required for file-based systems")
        if not isinstance(system["path"], str):
            raise ConfigError("field 'system.path': expected a file path string")
    elif system not in ("theorem1", "theorem2"):
        raise ConfigError(
            f"field 'system': unknown builtin {system!r} (use theorem1, theorem2, or a path object)"
        )

    params_obj = obj.get("system_params", {})
    if not isinstance(params_obj, dict):
        raise ConfigError("field 'system_params': expected JSON object")
    system_params = dict(params_obj)
    if isinstance(system, str):
        system_params = _fields(_SYSTEM_PARAMS[system], params_obj, "system_params.")

    probes_obj = obj.get("probes")
    if probes_obj is None:
        raise ConfigError("field 'probes': required (a list of probe objects)")
    if not isinstance(probes_obj, list):
        raise ConfigError("field 'probes': expected list")
    probes = tuple(_resolve_probe(p, i) for i, p in enumerate(probes_obj))

    precision_obj = obj.get("precision", {})
    if not isinstance(precision_obj, dict):
        raise ConfigError("field 'precision': expected JSON object")
    precision = _resolve_precision(precision_obj, system)

    out_dir = obj.get("out", "results")
    if not isinstance(out_dir, str):
        raise ConfigError(f"field 'out': expected a directory path string, got {out_dir!r}")
    return ExperimentConfig(
        system_source=system,
        probes=probes,
        precision=precision,
        out_dir=out_dir or "results",
        seed=_parse(_integer(), obj.get("seed", 0), "seed"),
        system_params=system_params,
    )


# theorem1's config keys, each naming the Theorem1Params attribute it sets.
_THEOREM1_KEYS = {
    "alpha": "alpha", "lambda": "gap_ratio", "s": "gap_mass", "stage": "stage",
    "sigma": "sigma", "generators": "approximant_count", "gap_index": "gap_index",
}

# Builtin construction parameters, with theorem1's defaults read from
# Theorem1Params(); file-based systems take system_params free-form.
_SYSTEM_PARAMS = {
    "theorem1": {
        key: (_integer() if isinstance(default, int) else frac, default)
        for key, attr in _THEOREM1_KEYS.items()
        for default in [getattr(Theorem1Params(), attr)]
    },
    "theorem2": {"alpha": (frac, "34/55")},
}


def _resolve_precision(obj: dict, system) -> PrecisionPolicy:
    default = PROBE_POLICY if system == "theorem1" else EXACT
    nullable = lambda parse: lambda value: None if value is None else parse(value)
    return PrecisionPolicy(**_fields(
        {
            "denominator_limit": (nullable(_integer(1)), default.denominator_limit),
            "coarsen": (nullable(_positive), default.coarsen),
            "arc_cap": (_integer(1), default.arc_cap),
        },
        obj,
        "precision.",
    ))


# -- system resolution ---------------------------------------------------------


@dataclass(frozen=True)
class ResolvedSystem:
    forward: IFS
    backward: IFS
    invariant_set: ArcSet | None = None  # K_N when the builtin provides one

    def pick(self, direction: str) -> IFS:
        return self.forward if direction == "forward" else self.backward


def resolve_system(config: ExperimentConfig) -> ResolvedSystem:
    source = config.system_source
    # The builders own the parameter rules; a rejection is a config error.
    try:
        if source == "theorem2":
            forward = theorem2_ifs(config.system_params["alpha"])
            return ResolvedSystem(forward, inverse_system(forward))
        if source == "theorem1":
            bundle = build_theorem1(Theorem1Params(**{
                attr: config.system_params[key] for key, attr in _THEOREM1_KEYS.items()
            }))
            return ResolvedSystem(
                bundle.forward, bundle.backward, bundle.approximants[0].k_set
            )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"field 'system_params': {exc}") from None
    forward = _parse(_ifs, _read_json(source["path"], "system.path"), "system.path")
    return ResolvedSystem(forward, inverse_system(forward))


def _read_json(path: str, name: str) -> Any:
    """The JSON value in the file at path; a missing, unreadable or malformed
    file (a directory, not UTF-8, not JSON) is a ConfigError naming the field."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"field '{name}': no such file {path}") from None
    except OSError as exc:
        raise ConfigError(f"field '{name}': cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"field '{name}': invalid JSON: {exc}") from None


# -- probe kinds ---------------------------------------------------------------
# One entry per probe kind.  Runners name the probe functions at call time,
# so wrappers installed over this module's names (a tracer, a test double)
# see every call.

_HEADER = ("parameter", "estimate", "estimate_exact", "covering_time", "N")
_STEP_HEADER = ("n", "gap_radius", "gap_radius_exact", "arc_count", "coarsened")


class _Kind(NamedTuple):
    fields: dict  # field name -> (parser, default), as _fields reads them
    run: Callable  # (spec, target IFS, ResolvedSystem, PrecisionPolicy) -> report
    rows: Callable  # report as _json renders it -> CSV rows under header
    header: tuple = _HEADER


def _row(label: str, exact: str, *rest) -> tuple[str, ...]:
    """label, the exact value as a 12-significant-digit decimal and as p/q
    (both empty when exact is), then the remaining cells (None: empty)."""
    decimal = format(float(frac(exact)), ".12g") if exact else ""
    return (label, decimal, exact, *("" if v is None else str(v) for v in rest))


def _start(spec: dict) -> ArcSet:
    return point_set([CirclePoint(spec["start"])])


def _run_iterate(spec, target, system, policy) -> dict:
    """Every step of the trajectory, then its last set."""
    steps = iterate(target, _start(spec), spec["steps"], policy)
    return {
        "steps": [Step(n, gap_radius(s), len(s.arcs), c) for n, (s, c) in enumerate(steps)],
        "final_set": steps[-1][0],
    }


def _step_rows(report: dict) -> list[tuple[str, ...]]:
    return [
        _row(str(s["n"]), s["gap_radius"], s["arc_count"], int(s["coarsened"]))
        for s in report["steps"]
    ]


_KINDS = {
    "attractor": _Kind(
        fields={"start": (frac, 0), "budget": (_integer(1), 64),
                "tol": (_positive, "1/256")},
        run=lambda spec, target, system, policy: attractor_probe(
            target, _start(spec), budget=spec["budget"], tol=spec["tol"], policy=policy
        ),
        rows=_step_rows,
        header=_STEP_HEADER,
    ),
    "covering": _Kind(
        fields={"center": (frac, 0), "length": (_arc_length, "1/64"),
                "budget": (_integer(1), 64)},
        run=lambda spec, target, system, policy: {
            **{key: spec[key] for key in ("center", "length", "budget")},
            "covering_time": covering_time(
                target, arc(spec["center"] - spec["length"] / 2, spec["length"]),
                spec["budget"], policy,
            ),
        },
        rows=lambda report: [_row(
            f"center={report['center']};length={report['length']}", "",
            report["covering_time"], report["budget"],
        )],
    ),
    "equicontinuity": _Kind(
        fields={"deltas": (_deltas, ["1/16", "1/64", "1/256", "1/1024"]),
                "base_points": (_points, 8), "truncation": (_integer(0), 32),
                "samples_per_delta": (_integer(2), 4)},
        run=lambda spec, target, system, policy: {"base_points": [
            equicontinuity_probe(
                target, point, spec["deltas"],
                truncation=spec["truncation"], samples_per_delta=spec["samples_per_delta"],
                policy=policy,
            )
            for point in spec["base_points"]
        ]},
        rows=lambda report: [
            _row(f"x={base['base_point']};delta={entry['delta']}", entry["modulus"],
                 None, base["truncation"])
            for base in report["base_points"]
            for entry in base["entries"]
        ],
    ),
    # Without a set, invariance checks the system's own invariant set; run()
    # rejects that on systems without one before any probe runs.
    "invariance": _Kind(
        fields={"tol": (frac, 0), "set": (_arcset, None)},
        run=lambda spec, target, system, policy: invariance_check(
            target, spec.get("set", system.invariant_set), spec["tol"]
        ),
        rows=lambda report: [
            _row(f"generator_{i + 1}", dist, None, None)
            for i, dist in enumerate(report["distances"])
        ],
    ),
    "iterate": _Kind(
        fields={"start": (frac, 0), "steps": (_integer(0), 16)},
        run=_run_iterate,
        rows=_step_rows,
        header=_STEP_HEADER,
    ),
    "minimality": _Kind(
        fields={"start": (frac, 0), "depth": (_integer(1), 12),
                "epsilon": (_positive, "1/64")},
        run=lambda spec, target, system, policy: orbit_density_probe(
            target, CirclePoint(spec["start"]), depth=spec["depth"], epsilon=spec["epsilon"]
        ),
        rows=lambda report: [_row(
            f"epsilon={report['epsilon']}", report["largest_gap"], None, report["depth"]
        )],
    ),
    "sensitivity": _Kind(
        fields={"lengths": (_list(_arc_length), ["1/64"]), "centers": (_points, 16),
                "truncation": (_integer(1), 64)},
        run=lambda spec, target, system, policy: sensitivity_probe(
            target, spec["lengths"], spec["centers"],
            truncation=spec["truncation"], policy=policy,
        ),
        rows=lambda report: [
            _row(f"center={entry['center']};length={entry['length']}", entry["evidence"],
                 entry["covering_time"], report["truncation"])
            for entry in report["entries"]
        ],
    ),
}


def _resolve_probe(p: Any, index: int) -> dict:
    """Validate one raw probe object."""
    ctx = f"probes[{index}]."
    if not isinstance(p, dict):
        raise ConfigError(f"field 'probes[{index}]': expected JSON object")
    name = p.get("probe")
    if not isinstance(name, str) or name not in _KINDS:
        raise ConfigError(
            f"field '{ctx}probe': expected one of {', '.join(sorted(_KINDS))}, got {name!r}"
        )
    body = {key: value for key, value in p.items() if key != "probe"}
    table = {"direction": (_direction, "forward"), **_KINDS[name].fields}
    return {"probe": name, **_fields(table, body, ctx)}


def _probe_csv(spec: dict, report: dict) -> str:
    """Plot-ready table: the kind's header, then one row per estimate."""
    kind = _KINDS[spec["probe"]]
    return "".join(",".join(row) + "\n" for row in [kind.header, *kind.rows(report)])


# -- run -----------------------------------------------------------------------
# Reports are plain records that _json renders, so a report's field names are
# its bundle keys.


class Bundle(dict):
    """The object run writes to bundle.json.  `reports` reads its report
    list, as perfbench/make_references.py does."""

    @property
    def reports(self) -> list[dict]:
        return self["reports"]


def run(config: ExperimentConfig) -> Bundle:
    """Execute all configured probes, write the per-probe CSVs, bundle.json
    and the timings sidecar into the output directory, and return the
    object written to bundle.json.  A probe that exceeds a resource cap
    records its error in place of a report, and the bundle is marked
    partial."""
    system = resolve_system(config)
    for i, spec in enumerate(config.probes):
        if spec["probe"] == "invariance" and "set" not in spec and system.invariant_set is None:
            raise ConfigError(f"field 'probes[{i}].set': required for invariance on this system")
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # out, or a directory on its path, is a file
        raise ConfigError(f"field 'out': cannot create {out_dir}: {exc.strerror}") from None

    reports: list[dict] = []
    timings: list[float] = []
    for i, spec in enumerate(config.probes):
        started = time.perf_counter()
        entry = {"probe": spec["probe"], "params": _json(spec)}
        try:
            report = _json(_KINDS[spec["probe"]].run(
                spec, system.pick(spec["direction"]), system, config.precision
            ))
        except ResourceCapError as exc:
            reports.append({**entry, "error": str(exc)})
            timings.append(0.0)
            continue
        reports.append({**entry, "report": report})
        timings.append(time.perf_counter() - started)
        _write(out_dir / f"probe_{i:02d}_{spec['probe']}.csv", _probe_csv(spec, report))
    bundle = Bundle(
        tool={"name": "hutch", "version": __version__},
        config=config.echo(),
        reports=reports,
    )
    if any("error" in entry for entry in reports):
        bundle["partial"] = True
    _write(out_dir / "bundle.json", json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    _write(
        out_dir / "timings.json",
        json.dumps({"per_probe_s": timings, "total_s": sum(timings)}, indent=2) + "\n",
    )
    return bundle


def _write(path: Path, text: str) -> None:
    """Write text to path atomically, through a .tmp sibling, which is
    removed if it cannot replace path; a file that cannot be written is a
    ConfigError naming out."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        try:
            os.replace(tmp, path)
        except OSError:
            tmp.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"field 'out': cannot write {path}: {exc.strerror}") from None


# -- describe ------------------------------------------------------------------


def describe(config: ExperimentConfig) -> dict:
    system = resolve_system(config)
    forward = system.forward
    gens = forward.generators
    inverses = [g.invert() for g in gens]
    gen_set = set(gens)
    symmetric_part = sorted(
        i + 1 for i, ginv in enumerate(inverses) if ginv in gen_set
    )
    diag = diagonal_containment_check(forward)
    diag_inverse = diagonal_containment_check(system.backward)
    return _json({
        "label": forward.label,
        "generator_count": len(gens),
        "generators": gens,
        "fixed_points": diag.fixed_sets,
        "diagonal_containment": diag.covered,
        "diagonal_containment_inverse": diag_inverse.covered,
        "symmetric": all(ginv in gen_set for ginv in inverses),
        "symmetric_part": symmetric_part,
    })


def _describe_text(info: dict) -> str:
    lines = [
        f"label: {info['label'] or '(unnamed)'}",
        f"generators: {info['generator_count']}",
    ]
    for i, g in enumerate(info["generators"]):
        pts = " ".join(f"({x},{y})" for x, y in g["breakpoints"])
        lines.append(
            f"  f{i + 1}: offset {g['offset']}"
            + (f", breakpoints {pts}" if pts else " (rotation)")
        )
        fixed = info["fixed_points"][i]
        if fixed is None:
            lines.append("      fixed points: none")
        else:
            arcs = " ".join(f"[{a['start']}+{a['length']}]" for a in fixed)
            lines.append(f"      fixed points: {arcs}")
    lines.append(f"diagonal containment: {info['diagonal_containment']}")
    lines.append(
        f"diagonal containment (inverse system): {info['diagonal_containment_inverse']}"
    )
    lines.append(f"symmetric (F = F_-): {info['symmetric']}")
    part = ", ".join(f"f{i}" for i in info["symmetric_part"])
    lines.append(f"symmetric part: {part or '(empty)'}")
    return "\n".join(lines)


# -- argument parsing ----------------------------------------------------------


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--system", help="builtin system name or path to an IFS JSON file")


def _load_config(args, probes=None) -> ExperimentConfig:
    """The --config object with --system and the given probe list written
    over its own, resolved; --out then replaces the resolved directory, so
    the config's own out is still checked."""
    raw = _read_json(args.config, "--config") if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"field '--config': expected a JSON object, got {raw!r}")
    if args.system:
        builtin = args.system in ("theorem1", "theorem2")
        raw["system"] = args.system if builtin else {"path": args.system}
    if probes is not None:
        raw["probes"] = probes
    config = parse_config(raw)
    # describe takes no --out
    out = getattr(args, "out", None)
    return dataclasses.replace(config, out_dir=out) if out else config


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hutch",
        description="Exact Hutchinson operators for IFSs of circle homeomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_describe = sub.add_parser("describe", help="summarize a system")
    _add_source_flags(p_describe)
    p_describe.add_argument("--json", action="store_true", help="emit JSON")

    p_run = sub.add_parser("run", help="run the configured probes")
    p_probe = sub.add_parser("probe", help="run a single probe")
    for p in (p_run, p_probe):
        _add_source_flags(p)
        p.add_argument("--out", help="output directory")
    p_probe.add_argument("kind", choices=sorted(_KINDS))
    p_probe.add_argument(
        "--direction", choices=("forward", "backward"), default="forward"
    )
    p_probe.add_argument("--params", help="extra probe parameters as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            config = _load_config(args, probes=[])
            info = describe(config)
            print(json.dumps(info, indent=2, sort_keys=True) if args.json else _describe_text(info))
            return 0
        if args.command == "run":
            config = _load_config(args)
        else:
            spec = {"probe": args.kind, "direction": args.direction}
            if args.params:
                try:
                    params = json.loads(args.params)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"field '--params': invalid JSON: {exc}")
                if not isinstance(params, dict):
                    raise ConfigError("field '--params': expected JSON object")
                if "probe" in params:
                    raise ConfigError("field '--params': the probe kind is set by KIND")
                spec.update(params)
            config = _load_config(args, probes=[spec])
        bundle = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if bundle.get("partial"):
        error = [entry["error"] for entry in bundle["reports"] if "error" in entry][-1]
        print(f"resource cap: {error} (partial results flushed)", file=sys.stderr)
        return EXIT_RESOURCE
    if args.command == "run":
        print(f"wrote {len(bundle['reports'])} report(s) to {config.out_dir}")
    else:
        print(json.dumps(bundle["reports"][-1]["report"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
