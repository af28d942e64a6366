"""JSON-config driven command line for recovery, sweeps, theory and profiling.

Each subcommand checks its config against one declared schema table:
RECOVER, SWEEP, THEORY (one per mode), GRAM or PROJECT. They share the blocks
DICTIONARY, MEASUREMENT, SYNTHETIC and VARIANT, and the *_NEEDS tables name
the keys that each kind of dictionary, measurement or signal reads.

Exit codes are fixed for scripting: 0 success, 1 configuration problem
(malformed JSON, unknown or missing keys, out-of-range values, an m grid
that is not strictly increasing, duplicated variant labels), 2 runtime
failure (dimension mismatches, exceeded enumeration budgets, I/O errors).
With --quiet, stdout carries only the machine-readable JSON result;
diagnostics go to stderr either way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from .dictionaries import (
    SALT_MEASUREMENT,
    SALT_NOISE,
    SALT_SIGNAL,
    Dictionary,
    gaussian_measurements,
    coherence,
    gram_profile,
    identity_dictionary,
    load_container,
    load_dictionary,
    overcomplete_dft,
    random_orthogonal_dictionary,
    seed_sequence,
)
from .experiments import (
    ALGORITHMS,
    SIGNAL_MODES,
    SweepSettings,
    VariantSpec,
    add_noise,
    emit_outputs,
    fig_variants,
    gen_sparse_signal,
    run_sweep,
    run_variant,
    svg_line_chart,
)
from .linalg import captured_and_residual_sq
from .projections import SCHEME_KINDS, SelectionScheme, select
from .recovery import HaltingRule
from .theory import (
    ck_bound_cosamp_exact,
    condition_check,
    ctilde_bound_threshold,
    theory_bundle,
)

DEFAULT_OUT_DIR = "sigspace_out"


class ConfigError(Exception):
    """A problem with the supplied configuration (exit code 1)."""


def bundled_config(name: str) -> Path:
    """Path of a configuration file shipped inside the package."""
    root = resources.files("sigspace") / "configs" / name
    with resources.as_file(root) as path:
        if not path.is_file():
            raise ConfigError(f"no bundled config named {name!r}")
        return path


# ---------------------------------------------------------------------------
# declared schema: {key: (check, default)} per config block. check(value,
# "recover.dictionary.d") returns the parsed value or raises ConfigError; the
# default REQUIRED marks a key that must be present wherever it is read.

REQUIRED = object()


def _is_number(v) -> bool:
    return type(v) in (int, float)  # JSON numbers; true and false are not numbers


def _int(minimum: int):
    def check(v, where: str) -> int:
        if type(v) is not int:
            raise ConfigError(f"{where}: expected an integer")
        if v < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}")
        return v

    return check


def _num(minimum: float, strict: bool = False, below=None, maximum=None):
    def check(v, where: str) -> float:
        if not _is_number(v):
            raise ConfigError(f"{where}: expected a number")
        v = float(v)
        if not math.isfinite(v):
            raise ConfigError(f"{where}: must be finite")
        if v < minimum or (strict and v == minimum):
            raise ConfigError(f"{where}: must be {'>' if strict else '>='} {minimum}")
        if below is not None and v >= below:
            raise ConfigError(f"{where}: must be < {below}")
        if maximum is not None and v > maximum:
            raise ConfigError(f"{where}: must be <= {maximum}")
        return v

    return check


def _str(choices=None):
    def check(v, where: str) -> str:
        if not isinstance(v, str):
            raise ConfigError(f"{where}: expected a string")
        if choices is not None and v not in choices:
            raise ConfigError(f"{where}: must be one of {sorted(choices)}")
        return v

    return check


def _bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected a boolean")
    return v


def _m_grid(v, where: str) -> list[int]:
    if not isinstance(v, list) or not v or not all(type(m) is int for m in v):
        raise ConfigError(f"{where}: expected a nonempty array of integers")
    if any(a >= b for a, b in zip(v, v[1:])):
        raise ConfigError(f"{where}: must be strictly increasing")
    return v


def _modes(v, where: str) -> list[str]:
    if not isinstance(v, list) or not v or not all(m in SIGNAL_MODES for m in v):
        raise ConfigError(f"{where}: expected a nonempty array of signal modes")
    if len(set(v)) != len(v):
        raise ConfigError(f"{where}: lists a signal mode twice")
    return v


def _deltas(v, where: str) -> tuple[float, float, float]:
    if not isinstance(v, list) or len(v) != 3 or not all(map(_is_number, v)):
        raise ConfigError(f"{where}: expected an array of three numbers")
    return tuple(float(c) for c in v)


def _inline_vector(v, where: str) -> np.ndarray:
    """A real vector from numbers, or a complex one once any entry is an [re, im] pair."""
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a nonempty array")
    if all(map(_is_number, v)):
        return np.asarray([float(c) for c in v])
    pairs = [[c, 0] if _is_number(c) else c for c in v]
    if not all(isinstance(c, list) and len(c) == 2 and all(map(_is_number, c)) for c in pairs):
        raise ConfigError(f"{where}: entries must be numbers or [re, im] pairs")
    return np.asarray([complex(float(re), float(im)) for re, im in pairs])


def _build(cls, kwargs: dict, where: str):
    """cls(**kwargs), with the library's own checks reported as config errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _variants(v, where: str) -> tuple[VariantSpec, ...]:
    if v == "default":
        return fig_variants()
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected 'default' or a nonempty array")
    specs: list[VariantSpec] = []
    for i, entry in enumerate(v):
        vctx = f"{where}[{i}]"
        spec = _build(VariantSpec, _parse(entry, vctx, VARIANT_ENTRY), vctx)
        if any(s.label == spec.label for s in specs):
            raise ConfigError(f"{vctx}: duplicate variant label {spec.label!r}")
        specs.append(spec)
    return tuple(specs)


def _read(obj: dict, ctx: str, schema: dict, keys) -> dict:
    missing = sorted(k for k in keys if k not in obj and schema[k][1] is REQUIRED)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {missing}")
    return {k: schema[k][0](obj[k], f"{ctx}.{k}") if k in obj else schema[k][1] for k in keys}


def _parse(obj, ctx: str, schema: dict, needs: dict | None = None) -> dict:
    """The checked keys of obj: every key, or with needs those of obj's kind.

    needs maps each "kind" to the keys it reads; keys that only another kind
    reads are accepted unread. Keys the schema does not declare are refused,
    and absent keys read as their defaults.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}")
    if needs is None:
        return _read(obj, ctx, schema, schema)
    kind = _read(obj, ctx, schema, ["kind"])["kind"]
    return {"kind": kind, **_read(obj, ctx, schema, needs[kind])}


def _block(schema: dict, needs: dict | None = None):
    return lambda v, where: _parse(v, where, schema, needs)


def _exclusive(cfg: dict, ctx: str, a: str, b: str) -> None:
    if cfg[a] is not None and cfg[b] is not None:
        raise ConfigError(f"{ctx}: give either {a!r} or {b!r}, not both")


SEED = (_int(0), 0)
PATH = (_str(), REQUIRED)
EPS = (_num(0.0, below=1.0), 0.0)

DICTIONARY_NEEDS = {
    "container": ("path",),
    "identity": ("d",),
    "dft": ("d", "redundancy"),
    "orthogonal": ("d", "seed"),
}
DICTIONARY = {
    "kind": (_str(DICTIONARY_NEEDS), REQUIRED),
    "d": (_int(1), REQUIRED),
    "redundancy": (_int(1), 4),
    "seed": (_int(0), None),  # None: the run's seed
    "path": PATH,
}
MEASUREMENT_NEEDS = {"container": ("path",), "gaussian": ("m", "field")}
MEASUREMENT = {
    "kind": (_str(MEASUREMENT_NEEDS), REQUIRED),
    "m": (_int(1), REQUIRED),
    "field": (_str(("real", "complex")), "real"),
    "path": PATH,
}
SYNTHETIC = {
    "k": (_int(1), REQUIRED),
    "mode": (_str(SIGNAL_MODES), "clustered"),
    "noise_level": (_num(0.0), 0.0),
}
VARIANT = {
    "algorithm": (_str(ALGORITHMS), "sscosamp"),
    "selector": (_str(SCHEME_KINDS), "threshold"),
    "eps": EPS,
    "a": (_int(1), 2),
}
DICTIONARY_BLOCK = (_block(DICTIONARY, DICTIONARY_NEEDS), REQUIRED)

RECOVER_SIGNAL_NEEDS = {"synthetic": tuple(SYNTHETIC), "container": ("y_path", "x_path")}
RECOVER = {
    "seed": SEED,
    "include_estimate": (_bool, False),
    "dictionary": DICTIONARY_BLOCK,
    "measurement": (_block(MEASUREMENT, MEASUREMENT_NEEDS), REQUIRED),
    "signal": (_block({
        "kind": (_str(RECOVER_SIGNAL_NEEDS), REQUIRED),
        **SYNTHETIC,
        "y_path": PATH,
        "x_path": (_str(), None),
    }, RECOVER_SIGNAL_NEEDS), REQUIRED),
    "recovery": (_block({
        "k": (_int(1), REQUIRED),
        **VARIANT,
        "max_iters": (_int(1), 50),
        "residual_tol": (_num(0.0), 1e-6),
        "stagnation_tol": (_num(0.0), 1e-6),
    }), REQUIRED),
}

# A sweep variant names its algorithm; a recovery defaults to sscosamp.
VARIANT_ENTRY = {"label": (_str(), REQUIRED), **VARIANT,
                 "algorithm": (VARIANT["algorithm"][0], REQUIRED)}
SWEEP = {
    "seed": SEED,
    "d": (_int(1), REQUIRED),
    "redundancy": (_int(1), REQUIRED),
    "k": (_int(1), REQUIRED),
    "m_grid": (_m_grid, REQUIRED),
    "trials": (_int(1), REQUIRED),
    "modes": (_modes, None),
    "mode": (SYNTHETIC["mode"][0], None),  # exclusive with modes; clustered when neither
    "noise_level": SYNTHETIC["noise_level"],
    "success_tol": (_num(0.0, strict=True), 1e-2),
    "max_iters": (_int(1), 50),
    "variants": (_variants, fig_variants()),
}

# Each theory mode has its own keys; seed is accepted and never read.
THEORY_COMMON = {
    "mode": (_str(("constants", "chain")), "constants"),
    "gamma": (_num(0.0, strict=True), 0.01),
    "zeta": (_num(1.0), 1.0),
    "seed": (lambda v, where: None, None),
}
THEORY = {
    "chain": {**THEORY_COMMON, "delta": (_num(0.0, below=1.0), REQUIRED)},
    "constants": {
        **THEORY_COMMON,
        "c_k": (_num(1.0), REQUIRED),
        "ctilde_2k": (_num(0.0, strict=True, maximum=1), REQUIRED),
        "deltas": (_deltas, None),
        "delta": (_num(0.0, below=1.0), None),  # exclusive with deltas; 0 when neither
        "x_norm": (_num(0.0), None),
        "e_norm": (_num(0.0), None),
        "max_iters": (_int(1), 50),
    },
}

GRAM = {"seed": SEED, "dictionary": DICTIONARY_BLOCK, "atom": (_int(0), 0)}

PROJECT_SIGNAL_NEEDS = {"inline": ("values",), "container": ("path",), "synthetic": tuple(SYNTHETIC)}
PROJECT = {
    "seed": SEED,
    "dictionary": DICTIONARY_BLOCK,
    "scheme": (_block({
        "kind": (VARIANT["selector"][0], REQUIRED),
        "k": (_int(1), REQUIRED),
        "eps": EPS,
        "max_iters": (_int(1), None),
        "rel_tol": (_num(0.0, strict=True), 1e-6),
    }), REQUIRED),
    "signal": (_block({
        "kind": (_str(PROJECT_SIGNAL_NEEDS), REQUIRED),
        "values": (_inline_vector, REQUIRED),
        "path": PATH,
        **SYNTHETIC,
    }, PROJECT_SIGNAL_NEEDS), REQUIRED),
}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return obj


def _config(args: argparse.Namespace, ctx: str, schema: dict) -> dict:
    """The config at args.config, parsed; --seed, when given, replaces its seed."""
    cfg = _load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg["seed"] = args.seed
    return _parse(cfg, ctx, schema)


# ---------------------------------------------------------------------------
# shared builders

def _load(load, path: str, ctx: str):
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{ctx}: cannot read {path}: {exc}") from exc


def _build_dictionary(cfg: dict, ctx: str, seed: int) -> Dictionary:
    kind = cfg["kind"]
    if kind == "container":
        return _load(load_dictionary, cfg["path"], ctx)
    if kind == "identity":
        return identity_dictionary(cfg["d"])
    if kind == "dft":
        return overcomplete_dft(cfg["d"], cfg["redundancy"])
    return random_orthogonal_dictionary(cfg["d"], seed if cfg["seed"] is None else cfg["seed"])


def _load_vector(path: str, ctx: str) -> np.ndarray:
    arr, _ = _load(load_container, path, ctx)
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr[:, 0]
    if arr.ndim == 1:
        return arr
    raise ValueError(f"{ctx}: {path} does not hold a vector")


def _build_measurement(cfg: dict, ctx: str, d: int, seed: int) -> np.ndarray:
    if cfg["kind"] == "container":
        M, _ = _load(load_container, cfg["path"], ctx)
        if M.ndim != 2 or M.shape[1] != d:
            raise ValueError(f"{ctx}: measurement matrix does not match signal dimension {d}")
        return M
    seeds = seed_sequence(seed, SALT_MEASUREMENT)
    return gaussian_measurements(cfg["m"], d, seeds, field_tag=cfg["field"]).matrix


# ---------------------------------------------------------------------------
# subcommands

def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        if args.threads < 0:
            raise ConfigError("--threads must be >= 0")
        return args.threads
    env = os.environ.get("SIGSPACE_THREADS")
    if env is None:
        return 1
    try:
        value = int(env)
    except ValueError as exc:
        raise ConfigError(f"SIGSPACE_THREADS must be an integer, got {env!r}") from exc
    if value < 0:
        raise ConfigError("SIGSPACE_THREADS must be >= 0")
    return value


def _diag(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(payload: dict, args: argparse.Namespace, filename: str | None = None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out is not None and filename is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text + "\n", encoding="utf-8")


def cmd_recover(args: argparse.Namespace) -> int:
    cfg = _config(args, "recover", RECOVER)
    seed = cfg["seed"]
    D = _build_dictionary(cfg["dictionary"], "recover.dictionary", seed)
    M = _build_measurement(cfg["measurement"], "recover.measurement", D.d, seed)
    sig = cfg["signal"]
    x_true = None
    if sig["kind"] == "synthetic":
        x_true, _, _ = gen_sparse_signal(D, sig["k"], sig["mode"], seed_sequence(seed, SALT_SIGNAL))
        y = add_noise(M @ x_true, sig["noise_level"], seed_sequence(seed, SALT_NOISE))
    else:
        y = _load_vector(sig["y_path"], "recover.signal")
        if sig["x_path"] is not None:
            x_true = _load_vector(sig["x_path"], "recover.signal")
            if x_true.shape != (D.d,) or not np.isfinite(x_true).all():
                raise ValueError(
                    f"recover.signal: {sig['x_path']} must hold d = {D.d} finite entries"
                )

    rec = cfg["recovery"]
    variant = VariantSpec("recover", rec["algorithm"], rec["selector"], rec["eps"], rec["a"])
    halting = HaltingRule(rec["max_iters"], rec["residual_tol"], rec["stagnation_tol"])
    k = rec["k"]
    _diag(args, f"[recover] d={D.d} n={D.n} m={M.shape[0]} k={k} algorithm={variant.algorithm}")
    report = run_variant(variant, y, M, D, k, halting, x_true=x_true)
    payload = report.to_dict(include_estimate=cfg["include_estimate"])
    if x_true is not None:
        x_norm = float(np.linalg.norm(x_true))
        if x_norm > 0:
            payload["relative_error"] = float(np.linalg.norm(report.estimate - x_true)) / x_norm
    _emit(payload, args, "recovery_report.json")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args, "sweep", SWEEP)
    _exclusive(cfg, "sweep", "mode", "modes")
    modes = cfg["modes"] or [cfg["mode"] or "clustered"]
    k, m_grid, trials = cfg["k"], cfg["m_grid"], cfg["trials"]
    for m in m_grid:
        if not k <= m <= cfg["d"]:
            raise ConfigError(f"sweep.m_grid: m={m} violates k <= m <= d")
    threads = _resolve_threads(args)
    out_dir = Path(args.out) if args.out is not None else Path(DEFAULT_OUT_DIR)
    shared = {f.name: cfg[f.name] for f in fields(SweepSettings) if f.name != "mode"}
    settings = SweepSettings(mode=modes[0], **shared)
    _diag(args, f"[sweep] modes={','.join(modes)} grid={m_grid} trials={trials} workers={threads}")

    def progress(done: int, total: int) -> None:
        if not args.quiet and (done % 25 == 0 or done == total):
            print(f"[sweep] {done}/{total} points", file=sys.stderr)

    curves = run_sweep(settings, cfg["variants"], m_grid, trials, cfg["seed"],
                       threads=threads, progress=progress, modes=modes)
    summary = {"outputs": [], "sweeps": []}
    for mode in modes:
        mode_curves = [c for c in curves if c.mode == mode]
        csv_path, svg_path = emit_outputs(mode_curves, out_dir, stem=f"sweep_{mode}")
        for curve in mode_curves:
            for lo, hi in curve.alarms:
                _diag(args, f"[sweep {mode}] alarm: {curve.label} rate drops > 0.3 "
                            f"between m={lo} and m={hi}")
        summary["outputs"].extend([str(csv_path), str(svg_path)])
        summary["sweeps"].append(
            {
                "mode": mode,
                "csv": str(csv_path),
                "svg": str(svg_path),
                "curves": [
                    {
                        "label": c.label,
                        "m_values": list(c.m_values),
                        "rates": list(c.rates),
                        "alarms": [list(a) for a in c.alarms],
                    }
                    for c in mode_curves
                ],
            }
        )
    _emit(summary, args)
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    mode = _read(raw, "theory", THEORY_COMMON, ["mode"])["mode"]
    cfg = _parse(raw, "theory", THEORY[mode])
    if mode == "chain":
        delta, gamma = cfg["delta"], cfg["gamma"]
        c_k = ck_bound_cosamp_exact(delta, delta, delta)
        ctilde = ctilde_bound_threshold(delta)
        constants = theory_bundle((delta, delta, delta), c_k, ctilde, gamma, zeta=cfg["zeta"])
        payload = {
            "mode": "chain",
            "delta": delta,
            "c_k_bound": c_k,
            "ctilde_bound": ctilde,
            "condition_ok": condition_check(c_k, ctilde, gamma),
            **constants.to_dict(),
        }
    else:
        # the remaining keys are theory_bundle's parameters
        _exclusive(cfg, "theory", "delta", "deltas")
        delta = cfg.pop("delta") or 0.0
        cfg["deltas"] = cfg["deltas"] or (delta, delta, delta)
        del cfg["mode"], cfg["seed"]
        constants = _build(theory_bundle, cfg, "theory")
        payload = {"mode": "constants", **constants.to_dict()}
    _emit(payload, args, "theory.json")
    return 0


def cmd_gram(args: argparse.Namespace) -> int:
    cfg = _config(args, "gram", GRAM)
    D = _build_dictionary(cfg["dictionary"], "gram.dictionary", cfg["seed"])
    atom = cfg["atom"]
    if atom >= D.n:
        raise ConfigError(f"gram.atom: must be < n = {D.n}")
    _diag(args, f"[gram] d={D.d} n={D.n} atom={atom}")
    profile = gram_profile(D, atom)
    payload = {
        "d": D.d,
        "n": D.n,
        "atom": atom,
        "entries": int(profile.shape[0]),
        "coherence": coherence(D),
        "top": [float(v) for v in profile[:2]],
        "outputs": [],
    }
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "gram_profile.csv"
        lines = ["rank,correlation"]
        lines.extend(f"{i + 1},{format(float(v), '.17g')}" for i, v in enumerate(profile))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        svg_path = svg_line_chart(
            [(f"atom {atom}", [float(i + 1) for i in range(len(profile))], list(profile))],
            out_dir / "gram_profile.svg",
            title="sorted correlation profile",
            x_label="rank",
            y_label="correlation",
            log_x=True,
        )
        payload["outputs"] = [str(csv_path), str(svg_path)]
    _emit(payload, args)
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    cfg = _config(args, "project", PROJECT)
    seed = cfg["seed"]
    D = _build_dictionary(cfg["dictionary"], "project.dictionary", seed)
    scheme = _build(SelectionScheme, cfg["scheme"], "project.scheme")
    sig = cfg["signal"]
    if sig["kind"] == "inline":
        z = sig["values"]
    elif sig["kind"] == "container":
        z = _load_vector(sig["path"], "project.signal")
    else:
        z, _, _ = gen_sparse_signal(D, sig["k"], sig["mode"], seed_sequence(seed, SALT_SIGNAL))
        z = add_noise(z, sig["noise_level"], seed_sequence(seed, SALT_NOISE))
    if z.shape[0] != D.d:
        raise ValueError(f"project.signal: signal length {z.shape[0]} does not match d = {D.d}")
    _diag(args, f"[project] d={D.d} n={D.n} scheme={scheme.kind} k={scheme.k}")
    support = select(scheme, D, z)
    captured, residual = captured_and_residual_sq(D.matrix, support, z)
    payload = {
        "scheme": scheme.kind,
        "k": scheme.k,
        "eps": scheme.eps,
        "support": list(support.indices),
        "support_size": len(support),
        "captured_energy": captured,
        "residual_energy": residual,
    }
    _emit(payload, args, "projection.json")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigspace",
        description="Signal-space greedy recovery over redundant dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "recover": (cmd_recover, "Run one recovery problem from a JSON config."),
        "sweep": (cmd_sweep, "Run a recovery-rate sweep and write CSV/SVG outputs."),
        "theory": (cmd_theory, "Evaluate convergence constants and bounds."),
        "gram": (cmd_gram, "Profile atom correlations of a dictionary."),
        "project": (cmd_project, "Run a support-selection scheme on a signal."),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true", help="machine-readable stdout only")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (0 = all cores); SIGSPACE_THREADS as fallback")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
