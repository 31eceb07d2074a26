"""Command-line driver: build or load systems, run probes, emit reports.

Bundles are deterministic: the same config and seed produce byte-identical
bundle.json files (wall-clock timings go to a timings.json sidecar).  Probes
run one after another in config order; each probe's CSV is written atomically
as soon as the probe completes, and bundle.json and timings.json once all
probes have run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .circle import (
    Arc,
    ArcSet,
    CirclePoint,
    arcset_from_obj,
    arcset_to_obj,
    frac,
    gap_radius,
    point_set,
    rational_str,
)
from .ifs import (
    EXACT,
    IFS,
    PROBE_POLICY,
    PrecisionPolicy,
    ResourceCapError,
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


def _cfg_rational(obj: dict, key: str, default=None, context: str = "") -> Fraction:
    name = f"{context}{key}"
    if key not in obj:
        if default is None:
            raise ConfigError(f"field '{name}': required exact rational missing")
        return frac(default)
    try:
        return frac(obj[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field '{name}': {exc}") from None


def _cfg_int(obj: dict, key: str, default=None, context: str = "") -> int:
    name = f"{context}{key}"
    if key not in obj:
        if default is None:
            raise ConfigError(f"field '{name}': required integer missing")
        return int(default)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{name}': expected integer, got {value!r}")
    return value


def _stratified(count: int) -> list[CirclePoint]:
    return [CirclePoint(Fraction(k, count)) for k in range(count)]


def _points_field(obj: dict, key: str, default_count: int, context: str) -> list[CirclePoint]:
    """Either an integer (that many stratified points k/n) or a list of
    exact rationals."""
    value = obj.get(key, default_count)
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise ConfigError(f"field '{context}{key}': need at least one point")
        return _stratified(value)
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"field '{context}{key}': need at least one point")
        try:
            return [CirclePoint(frac(v)) for v in value]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field '{context}{key}': {exc}") from None
    raise ConfigError(f"field '{context}{key}': expected count or list of rationals")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; `echo` is the canonical JSON object
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
        return {
            "system": self.system_source,
            "system_params": self.system_params,
            "probes": list(self.probes),
            "precision": self.precision.to_obj(),
            "seed": self.seed,
        }


# Probes run when a builtin config lists none; unlisted fields take
# _resolve_probe's defaults.
DEFAULT_PROBES = {
    "theorem2": [
        {"probe": "attractor", "start": "1/3"},
        {"probe": "minimality", "start": "1/3"},
    ],
    "theorem1": [
        {"probe": "sensitivity", "direction": "backward"},
        {"probe": "equicontinuity"},
    ],
}


def parse_config(obj: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config object (plus CLI flag overrides) into an
    ExperimentConfig; raises ConfigError naming the offending field."""
    overrides = overrides or {}
    if not isinstance(obj, dict):
        raise ConfigError("field '<root>': config must be a JSON object")

    system = overrides.get("system") or obj.get("system")
    if system is None:
        raise ConfigError("field 'system': required (builtin name or {\"path\": ...})")
    if isinstance(system, dict):
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
    system_params = _resolve_system_params(system, params_obj)

    probes_obj = obj.get("probes")
    if probes_obj is None:
        probes_obj = DEFAULT_PROBES.get(system, []) if isinstance(system, str) else []
    if not isinstance(probes_obj, list):
        raise ConfigError("field 'probes': expected list")
    probes = tuple(
        _resolve_probe(_override_probe(p, overrides), i)
        for i, p in enumerate(probes_obj)
    )

    precision_obj = obj.get("precision", {})
    if not isinstance(precision_obj, dict):
        raise ConfigError("field 'precision': expected JSON object")
    precision_obj = dict(precision_obj)
    for key in ("denominator_limit", "coarsen", "arc_cap"):
        if overrides.get(key) is not None:
            precision_obj[key] = overrides[key]
    precision = _resolve_precision(precision_obj, system)

    out_dir = overrides.get("out") or obj.get("out") or "results"
    seed = overrides.get("seed")
    if seed is None:
        seed = _cfg_int(obj, "seed", default=0)
    return ExperimentConfig(
        system_source=system,
        probes=probes,
        precision=precision,
        out_dir=str(out_dir),
        seed=int(seed),
        system_params=system_params,
    )


def _resolve_system_params(system, params_obj: dict) -> dict:
    if system != "theorem1" and system != "theorem2":
        return dict(params_obj)
    ctx = "system_params."
    alpha = _cfg_rational(params_obj, "alpha", default=Fraction(34, 55), context=ctx)
    if system == "theorem2":
        return {"alpha": rational_str(alpha)}
    params = Theorem1Params(
        alpha=alpha,
        gap_ratio=_cfg_rational(params_obj, "lambda", default=Fraction(1, 2), context=ctx),
        gap_mass=_cfg_rational(params_obj, "s", default=Fraction(1, 2), context=ctx),
        stage=_cfg_int(params_obj, "stage", default=8, context=ctx),
        sigma=_cfg_rational(params_obj, "sigma", default=Fraction(1, 2), context=ctx),
        approximant_count=_cfg_int(params_obj, "generators", default=2, context=ctx),
        gap_index=_cfg_int(params_obj, "gap_index", default=0, context=ctx),
    )
    return params.to_obj()


_PROBE_KINDS = (
    "attractor",
    "covering",
    "equicontinuity",
    "invariance",
    "iterate",
    "minimality",
    "sensitivity",
)


# The probe field each of --max-iter and --tol overrides, per probe kind.
_OVERRIDDEN_FIELDS = {
    "max_iter": {
        "attractor": "budget",
        "covering": "budget",
        "iterate": "steps",
        "minimality": "depth",
        "sensitivity": "truncation",
        "equicontinuity": "truncation",
    },
    "tol": {"attractor": "tol", "invariance": "tol", "minimality": "epsilon"},
}


def _override_probe(p: Any, overrides: dict) -> Any:
    """The raw probe object with the --max-iter / --tol overrides applied,
    so they pass the same validation as config values."""
    if not isinstance(p, dict):
        return p
    p = dict(p)
    for flag, fields in _OVERRIDDEN_FIELDS.items():
        key = fields.get(p.get("probe"))
        if key is not None and overrides.get(flag) is not None:
            p[key] = overrides[flag]
    return p


def _positive(value: Fraction, key: str, ctx: str) -> Fraction:
    if value <= 0:
        raise ConfigError(f"field '{ctx}{key}': must be positive, got {value}")
    return value


def _arc_length(value: Fraction, key: str, ctx: str) -> Fraction:
    if not 0 < value <= 1:
        raise ConfigError(f"field '{ctx}{key}': must lie in (0, 1], got {value}")
    return value


def _at_least(value: int, floor: int, key: str, ctx: str) -> int:
    if value < floor:
        raise ConfigError(f"field '{ctx}{key}': must be >= {floor}, got {value}")
    return value


def _resolve_probe(p: Any, index: int) -> dict:
    ctx = f"probes[{index}]."
    if not isinstance(p, dict):
        raise ConfigError(f"field 'probes[{index}]': expected JSON object")
    kind = p.get("probe")
    if kind not in _PROBE_KINDS:
        raise ConfigError(
            f"field '{ctx}probe': expected one of {', '.join(_PROBE_KINDS)}, got {kind!r}"
        )
    direction = p.get("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError(f"field '{ctx}direction': expected forward or backward")
    out: dict[str, Any] = {"probe": kind, "direction": direction}
    if kind in ("attractor", "iterate", "minimality"):
        out["start"] = rational_str(_cfg_rational(p, "start", default=0, context=ctx))
    if kind == "attractor":
        out["budget"] = _at_least(
            _cfg_int(p, "budget", default=64, context=ctx), 1, "budget", ctx
        )
        out["tol"] = rational_str(
            _positive(
                _cfg_rational(p, "tol", default=Fraction(1, 256), context=ctx),
                "tol",
                ctx,
            )
        )
    elif kind == "iterate":
        out["steps"] = _at_least(
            _cfg_int(p, "steps", default=16, context=ctx), 0, "steps", ctx
        )
    elif kind == "minimality":
        out["depth"] = _at_least(
            _cfg_int(p, "depth", default=12, context=ctx), 1, "depth", ctx
        )
        out["epsilon"] = rational_str(
            _positive(
                _cfg_rational(p, "epsilon", default=Fraction(1, 64), context=ctx),
                "epsilon",
                ctx,
            )
        )
    elif kind == "covering":
        out["center"] = rational_str(_cfg_rational(p, "center", default=0, context=ctx))
        out["length"] = rational_str(
            _arc_length(
                _cfg_rational(p, "length", default=Fraction(1, 64), context=ctx),
                "length",
                ctx,
            )
        )
        out["budget"] = _at_least(
            _cfg_int(p, "budget", default=64, context=ctx), 1, "budget", ctx
        )
    elif kind == "sensitivity":
        lengths = p.get("lengths", ["1/64"])
        if not isinstance(lengths, list) or not lengths:
            raise ConfigError(f"field '{ctx}lengths': expected non-empty list")
        try:
            out["lengths"] = [
                rational_str(_arc_length(frac(v), "lengths", ctx)) for v in lengths
            ]
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field '{ctx}lengths': {exc}") from None
        out["centers"] = [
            rational_str(c.value) for c in _points_field(p, "centers", 16, ctx)
        ]
        out["truncation"] = _at_least(
            _cfg_int(p, "truncation", default=64, context=ctx), 1, "truncation", ctx
        )
    elif kind == "equicontinuity":
        deltas = p.get("deltas", ["1/16", "1/64", "1/256", "1/1024"])
        if not isinstance(deltas, list) or not deltas:
            raise ConfigError(f"field '{ctx}deltas': expected non-empty list")
        try:
            parsed = [_positive(frac(v), "deltas", ctx) for v in deltas]
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field '{ctx}deltas': {exc}") from None
        if any(a <= b for a, b in zip(parsed, parsed[1:])) or parsed[0] > Fraction(1, 2):
            raise ConfigError(
                f"field '{ctx}deltas': must decrease strictly from at most 1/2"
            )
        out["deltas"] = [rational_str(v) for v in parsed]
        out["base_points"] = [
            rational_str(c.value) for c in _points_field(p, "base_points", 8, ctx)
        ]
        out["truncation"] = _at_least(
            _cfg_int(p, "truncation", default=32, context=ctx), 0, "truncation", ctx
        )
        out["samples_per_delta"] = _at_least(
            _cfg_int(p, "samples_per_delta", default=4, context=ctx),
            2,
            "samples_per_delta",
            ctx,
        )
    elif kind == "invariance":
        out["tol"] = rational_str(_cfg_rational(p, "tol", default=0, context=ctx))
        if "set" in p:
            try:
                out["set"] = arcset_to_obj(arcset_from_obj(p["set"]))
            except (ValueError, TypeError, KeyError) as exc:
                raise ConfigError(f"field '{ctx}set': {exc}") from None
    return out


def _resolve_precision(obj: dict, system) -> PrecisionPolicy:
    ctx = "precision."
    defaults = PROBE_POLICY if system == "theorem1" else EXACT
    limit = obj.get("denominator_limit", defaults.denominator_limit)
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
        raise ConfigError(f"field '{ctx}denominator_limit': expected positive integer or null")
    coarsen_raw = obj.get(
        "coarsen",
        None if defaults.coarsen_eta is None else rational_str(defaults.coarsen_eta),
    )
    coarsen = None
    if coarsen_raw is not None:
        try:
            coarsen = frac(coarsen_raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field '{ctx}coarsen': {exc}") from None
        if coarsen <= 0:
            raise ConfigError(f"field '{ctx}coarsen': must be positive")
    arc_cap = obj.get("arc_cap", defaults.arc_cap)
    if isinstance(arc_cap, bool) or not isinstance(arc_cap, int) or arc_cap < 1:
        raise ConfigError(f"field '{ctx}arc_cap': expected positive integer")
    return PrecisionPolicy(
        denominator_limit=limit, coarsen_eta=coarsen, arc_cap=arc_cap
    )


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
            forward = theorem2_ifs(frac(config.system_params["alpha"]))
            return ResolvedSystem(forward, inverse_system(forward))
        if source == "theorem1":
            bundle = build_theorem1(Theorem1Params.from_obj(config.system_params))
            return ResolvedSystem(
                bundle.forward, bundle.backward, bundle.approximants[0].k_set
            )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"field 'system_params': {exc}") from None
    path = Path(source["path"])
    try:
        obj = json.loads(path.read_text())
        forward = IFS.from_obj(obj)
    except FileNotFoundError:
        raise ConfigError(f"field 'system.path': no such file {path}") from None
    except OSError as exc:
        raise ConfigError(f"field 'system.path': cannot read {path}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"field 'system.path': cannot load IFS: {exc}") from None
    return ResolvedSystem(forward, inverse_system(forward))


# -- probe execution -----------------------------------------------------------


def _run_probe(spec: dict, system: ResolvedSystem, policy: PrecisionPolicy) -> dict:
    kind = spec["probe"]
    target = system.pick(spec["direction"])
    if kind == "attractor":
        report = attractor_probe(
            target,
            point_set([CirclePoint(frac(spec["start"]))]),
            budget=spec["budget"],
            tol=frac(spec["tol"]),
            policy=policy,
        )
        return report.to_obj()
    if kind == "iterate":
        traj = iterate(
            target, point_set([CirclePoint(frac(spec["start"]))]), spec["steps"], policy
        )
        return _trajectory_obj(traj)
    if kind == "minimality":
        report = orbit_density_probe(
            target,
            CirclePoint(frac(spec["start"])),
            depth=spec["depth"],
            epsilon=frac(spec["epsilon"]),
        )
        return report.to_obj()
    if kind == "covering":
        center = CirclePoint(frac(spec["center"]))
        length = frac(spec["length"])
        n = covering_time(
            target, Arc(center - length / 2, length), spec["budget"], policy
        )
        return {
            "center": spec["center"],
            "length": spec["length"],
            "budget": spec["budget"],
            "covering_time": n,
        }
    if kind == "sensitivity":
        report = sensitivity_probe(
            target,
            [frac(v) for v in spec["lengths"]],
            [CirclePoint(frac(v)) for v in spec["centers"]],
            truncation=spec["truncation"],
            policy=policy,
        )
        return report.to_obj()
    if kind == "equicontinuity":
        reports = [
            equicontinuity_probe(
                target,
                CirclePoint(frac(v)),
                [frac(d) for d in spec["deltas"]],
                truncation=spec["truncation"],
                samples_per_delta=spec["samples_per_delta"],
                policy=policy,
            )
            for v in spec["base_points"]
        ]
        return {"base_points": [r.to_obj() for r in reports]}
    if kind == "invariance":
        if "set" in spec:
            target_set = arcset_from_obj(spec["set"])
        elif system.invariant_set is not None:
            target_set = system.invariant_set
        else:
            raise ConfigError(
                "field 'probes[*].set': required for invariance on this system"
            )
        report = invariance_check(target, target_set, frac(spec["tol"]))
        return report.to_obj()
    raise ConfigError(f"field 'probes[*].probe': unhandled kind {kind!r}")


def _trajectory_obj(traj) -> dict:
    return {
        "steps": [
            {
                "n": i,
                "gap_radius": rational_str(gap_radius(traj.sets[i])),
                "arc_count": traj.arc_counts[i],
                "coarsened": traj.coarsened[i],
            }
            for i in range(len(traj.sets))
        ],
        "final_set": arcset_to_obj(traj.sets[-1]),
    }


# -- report bundle -------------------------------------------------------------


@dataclass
class ReportBundle:
    config: ExperimentConfig
    reports: list[dict]
    timings: list[float]
    partial: bool = False

    def to_obj(self) -> dict:
        obj = {
            "tool": {"name": "hutch", "version": __version__},
            "config": self.config.echo(),
            "reports": self.reports,
        }
        if self.partial:
            obj["partial"] = True
        return obj


def _decimal(value: Fraction) -> str:
    return format(float(value), ".12g")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _probe_csv(spec: dict, report: dict) -> str:
    """Plot-ready table: parameter, estimate (12 significant digits), exact
    estimate, covering time, truncation."""
    rows = [("parameter", "estimate", "estimate_exact", "covering_time", "N")]
    kind = spec["probe"]
    if kind in ("attractor", "iterate"):
        rows = [("n", "gap_radius", "gap_radius_exact", "arc_count", "coarsened")]
        for step in report["steps"]:
            exact = frac(step["gap_radius"])
            rows.append(
                (
                    str(step["n"]),
                    _decimal(exact),
                    step["gap_radius"],
                    str(step["arc_count"]),
                    str(int(step["coarsened"])),
                )
            )
    elif kind == "equicontinuity":
        for base in report["base_points"]:
            for entry in base["entries"]:
                exact = frac(entry["modulus"])
                rows.append(
                    (
                        f"x={base['base_point']};delta={entry['delta']}",
                        _decimal(exact),
                        entry["modulus"],
                        "",
                        str(base["truncation"]),
                    )
                )
    elif kind == "sensitivity":
        for entry in report["entries"]:
            exact = frac(entry["evidence"])
            rows.append(
                (
                    f"center={entry['center']};length={entry['length']}",
                    _decimal(exact),
                    entry["evidence"],
                    "" if entry["covering_time"] is None else str(entry["covering_time"]),
                    str(report["truncation"]),
                )
            )
    elif kind == "covering":
        rows.append(
            (
                f"center={report['center']};length={report['length']}",
                "",
                "",
                "" if report["covering_time"] is None else str(report["covering_time"]),
                str(report["budget"]),
            )
        )
    elif kind == "minimality":
        exact = frac(report["largest_gap"])
        rows.append(
            (
                f"epsilon={report['epsilon']}",
                _decimal(exact),
                report["largest_gap"],
                "",
                str(report["depth"]),
            )
        )
    elif kind == "invariance":
        for i, dist in enumerate(report["distances"]):
            exact = frac(dist)
            rows.append((f"generator_{i + 1}", _decimal(exact), dist, "", ""))
    return "\n".join(",".join(row) for row in rows) + "\n"


def run(config: ExperimentConfig) -> ReportBundle:
    """Execute all configured probes and write bundle.json, per-probe CSVs,
    and the timings sidecar into the output directory."""
    system = resolve_system(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bundle = ReportBundle(config=config, reports=[], timings=[])
    cap_error: ResourceCapError | None = None
    for i, spec in enumerate(config.probes):
        started = time.perf_counter()
        try:
            report = _run_probe(spec, system, config.precision)
        except ResourceCapError as exc:
            cap_error = exc
            bundle.reports.append(
                {"probe": spec["probe"], "params": spec, "error": str(exc)}
            )
            bundle.timings.append(0.0)
            continue
        bundle.reports.append({"probe": spec["probe"], "params": spec, "report": report})
        bundle.timings.append(time.perf_counter() - started)
        _atomic_write(
            out_dir / f"probe_{i:02d}_{spec['probe']}.csv", _probe_csv(spec, report)
        )
    if cap_error is not None:
        bundle.partial = True
        _flush(bundle, out_dir)
        raise cap_error
    _flush(bundle, out_dir)
    return bundle


def _flush(bundle: ReportBundle, out_dir: Path) -> None:
    _atomic_write(
        out_dir / "bundle.json",
        json.dumps(bundle.to_obj(), indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(
        out_dir / "timings.json",
        json.dumps(
            {"per_probe_s": bundle.timings, "total_s": sum(bundle.timings)}, indent=2
        )
        + "\n",
    )


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
    return {
        "label": forward.label,
        "generator_count": len(gens),
        "generators": [g.to_obj() for g in gens],
        "fixed_points": [
            None if s is None else arcset_to_obj(s) for s in diag.fixed_sets
        ],
        "diagonal_containment": diag.covered,
        "diagonal_containment_inverse": diag_inverse.covered,
        "symmetric": all(ginv in gen_set for ginv in inverses),
        "symmetric_part": symmetric_part,
    }


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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--system", help="builtin system name or path to an IFS JSON file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="recorded RNG seed (sampling is deterministic)")
    p.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget override")
    p.add_argument("--tol", help="tolerance p/q override")
    p.add_argument(
        "--denominator-limit", type=int, dest="denominator_limit",
        help="round endpoints to denominators <= D each step",
    )
    p.add_argument("--coarsen", help="fill gaps shorter than p/q each step")


def _load_config(args, extra_probes=None) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"field '--config': no such file {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field '--config': invalid JSON: {exc}")
    system = args.system
    if system and system not in ("theorem1", "theorem2"):
        system = {"path": system}
    overrides = {
        "system": system,
        "out": args.out,
        "seed": args.seed,
        "denominator_limit": args.denominator_limit,
        "coarsen": args.coarsen,
        "max_iter": args.max_iter,
        "tol": args.tol,
    }
    if extra_probes is not None:
        raw = dict(raw)
        raw["probes"] = extra_probes
    return parse_config(raw, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hutch",
        description="Exact Hutchinson operators for IFSs of circle homeomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_describe = sub.add_parser("describe", help="summarize a system")
    _add_common_flags(p_describe)
    p_describe.add_argument("--json", action="store_true", help="emit JSON")

    p_run = sub.add_parser("run", help="run the configured probes")
    _add_common_flags(p_run)

    p_iter = sub.add_parser("iterate", help="dump a Hutchinson trajectory")
    _add_common_flags(p_iter)
    p_iter.add_argument("--start", default="0", help="singleton start point p/q")
    p_iter.add_argument("--steps", type=int, default=16)
    p_iter.add_argument(
        "--direction", choices=("forward", "backward"), default="forward"
    )

    p_probe = sub.add_parser("probe", help="run a single probe")
    _add_common_flags(p_probe)
    p_probe.add_argument("kind", choices=_PROBE_KINDS)
    p_probe.add_argument(
        "--direction", choices=("forward", "backward"), default="forward"
    )
    p_probe.add_argument("--start", help="base/start point p/q")
    p_probe.add_argument("--params", help="extra probe parameters as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            config = _load_config(args, extra_probes=[])
            info = describe(config)
            print(json.dumps(info, indent=2, sort_keys=True) if args.json else _describe_text(info))
            return 0
        if args.command == "run":
            config = _load_config(args)
            bundle = run(config)
            print(f"wrote {len(bundle.reports)} report(s) to {config.out_dir}")
            return 0
        if args.command == "iterate":
            spec = {
                "probe": "iterate",
                "direction": args.direction,
                "start": args.start,
                "steps": args.steps,
            }
            config = _load_config(args, extra_probes=[spec])
            bundle = run(config)
            last = bundle.reports[-1]["report"]["steps"][-1]
            print(
                f"n={last['n']} gap_radius={last['gap_radius']} arcs={last['arc_count']}"
            )
            return 0
        if args.command == "probe":
            spec = {"probe": args.kind, "direction": args.direction}
            if args.params:
                try:
                    params = json.loads(args.params)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"field '--params': invalid JSON: {exc}")
                if not isinstance(params, dict):
                    raise ConfigError("field '--params': expected JSON object")
                spec.update(params)
            if args.start is not None:
                spec["start"] = args.start
            config = _load_config(args, extra_probes=[spec])
            bundle = run(config)
            print(json.dumps(bundle.reports[-1]["report"], indent=2, sort_keys=True))
            return 0
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc} (partial results flushed)", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
