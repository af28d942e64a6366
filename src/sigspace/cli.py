"""JSON-config driven command line for recovery, sweeps, theory and profiling.

Exit codes are fixed for scripting: 0 success, 1 configuration problem
(malformed JSON, unknown or missing keys, out-of-range values), 2 runtime
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
    SIGNAL_MODES,
    SweepSettings,
    VariantSpec,
    add_noise,
    emit_outputs,
    fig_variants,
    gen_sparse_signal,
    run_sweep,
    svg_line_chart,
)
from .linalg import SupportSet, captured_and_residual_sq
from .projections import SCHEME_KINDS, SelectionScheme, select
from .recovery import HaltingRule, SSCoSaMPConfig, eps_omp_recover, sscosamp
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
# strict schema helpers

def _check_keys(obj: dict, ctx: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"{ctx}: missing keys {missing}")


def _get_int(obj: dict, key: str, ctx: str, default=None, minimum=None, maximum=None) -> int:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{ctx}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{ctx}.{key}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{ctx}.{key}: must be <= {maximum}")
    return v


def _get_num(
    obj: dict, key: str, ctx: str, default=None, minimum=None, below=None, strict_min=False
) -> float:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{ctx}.{key}: expected a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{ctx}.{key}: must be finite")
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        op = ">" if strict_min else ">="
        raise ConfigError(f"{ctx}.{key}: must be {op} {minimum}")
    if below is not None and v >= below:
        raise ConfigError(f"{ctx}.{key}: must be < {below}")
    return v


def _get_str(obj: dict, key: str, ctx: str, default=None, choices=None) -> str:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{ctx}.{key}: expected a string")
    if choices is not None and v not in choices:
        raise ConfigError(f"{ctx}.{key}: must be one of {sorted(choices)}")
    return v


def _get_bool(obj: dict, key: str, ctx: str, default=False) -> bool:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{ctx}.{key}: expected a boolean")
    return v


def _get_int_list(obj: dict, key: str, ctx: str, required: bool = True) -> list[int]:
    if key not in obj:
        if required:
            raise ConfigError(f"{ctx}: missing keys ['{key}']")
        return []
    v = obj[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{ctx}.{key}: expected a nonempty array of integers")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"{ctx}.{key}: expected a nonempty array of integers")
        out.append(item)
    return out


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


# ---------------------------------------------------------------------------
# shared builders

def _build_dictionary(cfg: dict, ctx: str, seed: int) -> Dictionary:
    _check_keys(cfg, ctx, {"kind"}, {"d", "redundancy", "seed", "path"})
    kind = _get_str(cfg, "kind", ctx, choices={"identity", "dft", "orthogonal", "container"})
    if kind == "container":
        path = _get_str(cfg, "path", ctx)
        if path is None:
            raise ConfigError(f"{ctx}: container dictionaries need a path")
        try:
            return load_dictionary(path)
        except OSError as exc:
            raise ConfigError(f"{ctx}: cannot read {path}: {exc}") from exc
    d = _get_int(cfg, "d", ctx, minimum=1)
    if d is None:
        raise ConfigError(f"{ctx}: missing keys ['d']")
    if kind == "identity":
        return identity_dictionary(d)
    if kind == "dft":
        redundancy = _get_int(cfg, "redundancy", ctx, default=4, minimum=1)
        return overcomplete_dft(d, redundancy)
    return random_orthogonal_dictionary(d, _get_int(cfg, "seed", ctx, default=seed, minimum=0))


def _load_array(path: str, ctx: str) -> np.ndarray:
    try:
        arr, _ = load_container(path)
    except OSError as exc:
        raise ConfigError(f"{ctx}: cannot read {path}: {exc}") from exc
    return arr


def _load_vector(path: str, ctx: str) -> np.ndarray:
    arr = _load_array(path, ctx)
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr[:, 0]
    if arr.ndim == 1:
        return arr
    raise ValueError(f"{ctx}: {path} does not hold a vector")


def _build_measurement(cfg: dict, ctx: str, d: int, seed: int) -> np.ndarray:
    _check_keys(cfg, ctx, {"kind"}, {"m", "field", "path"})
    kind = _get_str(cfg, "kind", ctx, choices={"gaussian", "container"})
    if kind == "container":
        path = _get_str(cfg, "path", ctx)
        if path is None:
            raise ConfigError(f"{ctx}: container measurements need a path")
        M = _load_array(path, ctx)
        if M.ndim != 2 or M.shape[1] != d:
            raise ValueError(f"{ctx}: measurement matrix does not match signal dimension {d}")
        return M
    m = _get_int(cfg, "m", ctx, minimum=1)
    if m is None:
        raise ConfigError(f"{ctx}: missing keys ['m']")
    field = _get_str(cfg, "field", ctx, default="real", choices={"real", "complex"})
    model = gaussian_measurements(m, d, seed_sequence(seed, SALT_MEASUREMENT), field_tag=field)
    return model.matrix


def _build_scheme(cfg: dict, ctx: str) -> SelectionScheme:
    _check_keys(cfg, ctx, {"kind", "k"}, {"eps", "max_iters", "rel_tol"})
    kind = _get_str(cfg, "kind", ctx, choices=set(SCHEME_KINDS))
    k = _get_int(cfg, "k", ctx, minimum=1)
    eps = _get_num(cfg, "eps", ctx, default=0.0, minimum=0.0, below=1.0)
    max_iters = _get_int(cfg, "max_iters", ctx, default=None, minimum=1)
    rel_tol = _get_num(cfg, "rel_tol", ctx, default=1e-6, minimum=0.0, strict_min=True)
    try:
        return SelectionScheme(kind, k, eps=eps, max_iters=max_iters, rel_tol=rel_tol)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_inline_vector(values: list, ctx: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{ctx}: expected a nonempty array")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return np.asarray([float(v) for v in values])
    out = np.empty(len(values), dtype=np.complex128)
    for i, v in enumerate(values):
        if (
            not isinstance(v, list)
            or len(v) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)
        ):
            raise ConfigError(f"{ctx}: entries must be numbers or [re, im] pairs")
        out[i] = complex(float(v[0]), float(v[1]))
    return out


def _complex_pairs(x: np.ndarray) -> list:
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


# ---------------------------------------------------------------------------
# subcommands

def _effective_seed(cfg: dict, args: argparse.Namespace, ctx: str) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        return args.seed
    return _get_int(cfg, "seed", ctx, default=0, minimum=0)


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
    cfg = _load_config(args.config)
    ctx = "recover"
    _check_keys(
        cfg, ctx, {"dictionary", "measurement", "signal", "recovery"}, {"seed", "include_estimate"}
    )
    seed = _effective_seed(cfg, args, ctx)
    D = _build_dictionary(cfg["dictionary"], f"{ctx}.dictionary", seed)
    M = _build_measurement(cfg["measurement"], f"{ctx}.measurement", D.d, seed)

    sig = cfg["signal"]
    sctx = f"{ctx}.signal"
    _check_keys(sig, sctx, {"kind"}, {"k", "mode", "noise_level", "y_path", "x_path"})
    sig_kind = _get_str(sig, "kind", sctx, choices={"synthetic", "container"})
    x_true = None
    if sig_kind == "synthetic":
        k_sig = _get_int(sig, "k", sctx, minimum=1)
        if k_sig is None:
            raise ConfigError(f"{sctx}: missing keys ['k']")
        mode = _get_str(sig, "mode", sctx, default="clustered", choices=set(SIGNAL_MODES))
        noise_level = _get_num(sig, "noise_level", sctx, default=0.0, minimum=0.0)
        x_true, _, _ = gen_sparse_signal(D, k_sig, mode, seed_sequence(seed, SALT_SIGNAL))
        y = add_noise(M @ x_true, noise_level, seed_sequence(seed, SALT_NOISE))
    else:
        y_path = _get_str(sig, "y_path", sctx)
        if y_path is None:
            raise ConfigError(f"{sctx}: container signals need y_path")
        y = _load_vector(y_path, sctx)
        x_path = _get_str(sig, "x_path", sctx)
        if x_path is not None:
            x_true = _load_vector(x_path, sctx)

    rec = cfg["recovery"]
    rctx = f"{ctx}.recovery"
    _check_keys(
        rec,
        rctx,
        {"k"},
        {"algorithm", "selector", "eps", "a", "max_iters", "residual_tol", "stagnation_tol"},
    )
    k = _get_int(rec, "k", rctx, minimum=1)
    algorithm = _get_str(rec, "algorithm", rctx, default="sscosamp",
                         choices={"sscosamp", "eps-omp-direct"})
    selector = _get_str(rec, "selector", rctx, default="threshold", choices=set(SCHEME_KINDS))
    eps = _get_num(rec, "eps", rctx, default=0.0, minimum=0.0, below=1.0)
    a = _get_int(rec, "a", rctx, default=2, minimum=1)
    halting = HaltingRule(
        max_iters=_get_int(rec, "max_iters", rctx, default=50, minimum=1),
        residual_tol=_get_num(rec, "residual_tol", rctx, default=1e-6, minimum=0.0),
        stagnation_tol=_get_num(rec, "stagnation_tol", rctx, default=1e-6, minimum=0.0),
    )
    _diag(args, f"[recover] d={D.d} n={D.n} m={M.shape[0]} k={k} algorithm={algorithm}")

    if algorithm == "eps-omp-direct":
        x_hat, support = eps_omp_recover(y, M, D, k, eps)
        payload = {
            "support": list(support.indices),
            "iterations": 1,
            "stop_reason": "single_pass",
            "residual_norm": float(np.linalg.norm(y - M @ x_hat)),
        }
        estimate = x_hat
    else:
        try:
            run_cfg = SSCoSaMPConfig.for_selector(selector, k, eps=eps, a=a, halting=halting)
        except ValueError as exc:
            raise ConfigError(f"{rctx}: {exc}") from exc
        report = sscosamp(y, M, D, run_cfg, x_true=x_true)
        payload = report.to_dict(include_estimate=False)
        estimate = report.estimate
    if _get_bool(cfg, "include_estimate", ctx, default=False):
        payload["estimate"] = _complex_pairs(estimate)
    if x_true is not None:
        x_norm = float(np.linalg.norm(x_true))
        if x_norm > 0:
            payload["relative_error"] = float(np.linalg.norm(estimate - x_true)) / x_norm
    _emit(payload, args, "recovery_report.json")
    return 0


def _parse_variants(cfg: dict, ctx: str) -> tuple[VariantSpec, ...]:
    if "variants" not in cfg or cfg["variants"] == "default":
        return fig_variants()
    raw = cfg["variants"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{ctx}.variants: expected 'default' or a nonempty array")
    specs = []
    for i, entry in enumerate(raw):
        vctx = f"{ctx}.variants[{i}]"
        _check_keys(entry, vctx, {"label", "algorithm"}, {"selector", "eps", "a"})
        try:
            specs.append(
                VariantSpec(
                    label=_get_str(entry, "label", vctx),
                    algorithm=_get_str(entry, "algorithm", vctx,
                                       choices={"sscosamp", "eps-omp-direct"}),
                    selector=_get_str(entry, "selector", vctx, default="threshold",
                                      choices=set(SCHEME_KINDS)),
                    eps=_get_num(entry, "eps", vctx, default=0.0, minimum=0.0, below=1.0),
                    a=_get_int(entry, "a", vctx, default=2, minimum=1),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{vctx}: {exc}") from exc
    return tuple(specs)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ctx = "sweep"
    _check_keys(
        cfg,
        ctx,
        {"d", "redundancy", "k", "m_grid", "trials"},
        {"modes", "mode", "noise_level", "success_tol", "max_iters", "seed", "variants"},
    )
    seed = _effective_seed(cfg, args, ctx)
    d = _get_int(cfg, "d", ctx, minimum=1)
    redundancy = _get_int(cfg, "redundancy", ctx, minimum=1)
    k = _get_int(cfg, "k", ctx, minimum=1)
    m_grid = _get_int_list(cfg, "m_grid", ctx)
    trials = _get_int(cfg, "trials", ctx, minimum=1)
    if "modes" in cfg and "mode" in cfg:
        raise ConfigError(f"{ctx}: give either 'mode' or 'modes', not both")
    if "modes" in cfg:
        modes = cfg["modes"]
        if (
            not isinstance(modes, list)
            or not modes
            or any(not isinstance(v, str) or v not in SIGNAL_MODES for v in modes)
        ):
            raise ConfigError(f"{ctx}.modes: expected a nonempty array of signal modes")
    else:
        modes = [_get_str(cfg, "mode", ctx, default="clustered", choices=set(SIGNAL_MODES))]
    variants = _parse_variants(cfg, ctx)
    settings_kw = dict(
        d=d,
        redundancy=redundancy,
        k=k,
        noise_level=_get_num(cfg, "noise_level", ctx, default=0.0, minimum=0.0),
        success_tol=_get_num(cfg, "success_tol", ctx, default=1e-2, minimum=0.0, strict_min=True),
        max_iters=_get_int(cfg, "max_iters", ctx, default=50, minimum=1),
    )
    threads = _resolve_threads(args)
    out_dir = Path(args.out) if args.out is not None else Path(DEFAULT_OUT_DIR)
    summary = {"outputs": [], "sweeps": []}
    for mode in modes:
        settings = SweepSettings(mode=mode, **settings_kw)
        try:
            for m in m_grid:
                if not k <= m <= d:
                    raise ValueError(f"m={m} violates k <= m <= d")
        except ValueError as exc:
            raise ConfigError(f"{ctx}.m_grid: {exc}") from exc
        _diag(args, f"[sweep] mode={mode} grid={m_grid} trials={trials} workers={threads}")

        def progress(done: int, total: int) -> None:
            if not args.quiet and (done % 25 == 0 or done == total):
                print(f"[sweep {mode}] {done}/{total} points", file=sys.stderr)

        curves = run_sweep(settings, variants, m_grid, trials, seed,
                           threads=threads, progress=progress)
        csv_path, svg_path = emit_outputs(curves, out_dir, stem=f"sweep_{mode}")
        for curve in curves:
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
                    for c in curves
                ],
            }
        )
    _emit(summary, args)
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ctx = "theory"
    mode = _get_str(cfg, "mode", ctx, default="constants", choices={"constants", "chain"})
    if mode == "chain":
        _check_keys(cfg, ctx, {"delta"}, {"mode", "gamma", "zeta", "seed"})
        delta = _get_num(cfg, "delta", ctx, minimum=0.0, below=1.0)
        gamma = _get_num(cfg, "gamma", ctx, default=0.01, minimum=0.0, strict_min=True)
        zeta = _get_num(cfg, "zeta", ctx, default=1.0, minimum=1.0)
        c_k = ck_bound_cosamp_exact(delta, delta, delta)
        ctilde = ctilde_bound_threshold(delta)
        constants = theory_bundle((delta, delta, delta), c_k, ctilde, gamma, zeta=zeta)
        payload = {
            "mode": "chain",
            "delta": delta,
            "c_k_bound": c_k,
            "ctilde_bound": ctilde,
            "condition_ok": condition_check(c_k, ctilde, gamma),
            **constants.to_dict(),
        }
    else:
        _check_keys(
            cfg,
            ctx,
            {"c_k", "ctilde_2k"},
            {"mode", "gamma", "zeta", "deltas", "delta", "x_norm", "e_norm", "max_iters", "seed"},
        )
        c_k = _get_num(cfg, "c_k", ctx, minimum=1.0)
        ctilde = _get_num(cfg, "ctilde_2k", ctx, minimum=0.0, strict_min=True)
        if ctilde > 1.0:
            raise ConfigError(f"{ctx}.ctilde_2k: must be <= 1")
        gamma = _get_num(cfg, "gamma", ctx, default=0.01, minimum=0.0, strict_min=True)
        zeta = _get_num(cfg, "zeta", ctx, default=1.0, minimum=1.0)
        if "deltas" in cfg and "delta" in cfg:
            raise ConfigError(f"{ctx}: give either 'delta' or 'deltas', not both")
        if "deltas" in cfg:
            raw = cfg["deltas"]
            if (
                not isinstance(raw, list)
                or len(raw) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
            ):
                raise ConfigError(f"{ctx}.deltas: expected an array of three numbers")
            deltas = tuple(float(v) for v in raw)
        else:
            delta = _get_num(cfg, "delta", ctx, default=0.0, minimum=0.0, below=1.0)
            deltas = (delta, delta, delta)
        try:
            constants = theory_bundle(
                deltas,
                c_k,
                ctilde,
                gamma,
                zeta=zeta,
                x_norm=_get_num(cfg, "x_norm", ctx, default=None, minimum=0.0),
                e_norm=_get_num(cfg, "e_norm", ctx, default=None, minimum=0.0),
                max_iters=_get_int(cfg, "max_iters", ctx, default=50, minimum=1),
            )
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
        payload = {"mode": "constants", **constants.to_dict()}
    _emit(payload, args, "theory.json")
    return 0


def cmd_gram(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ctx = "gram"
    _check_keys(cfg, ctx, {"dictionary"}, {"atom", "seed"})
    seed = _effective_seed(cfg, args, ctx)
    D = _build_dictionary(cfg["dictionary"], f"{ctx}.dictionary", seed)
    atom = _get_int(cfg, "atom", ctx, default=0, minimum=0)
    if atom >= D.n:
        raise ConfigError(f"{ctx}.atom: must be < n = {D.n}")
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
    cfg = _load_config(args.config)
    ctx = "project"
    _check_keys(cfg, ctx, {"dictionary", "scheme", "signal"}, {"seed"})
    seed = _effective_seed(cfg, args, ctx)
    D = _build_dictionary(cfg["dictionary"], f"{ctx}.dictionary", seed)
    scheme = _build_scheme(cfg["scheme"], f"{ctx}.scheme")
    sig = cfg["signal"]
    sctx = f"{ctx}.signal"
    _check_keys(sig, sctx, {"kind"}, {"values", "path", "k", "mode", "noise_level"})
    sig_kind = _get_str(sig, "kind", sctx, choices={"inline", "container", "synthetic"})
    if sig_kind == "inline":
        if "values" not in sig:
            raise ConfigError(f"{sctx}: inline signals need values")
        z = _parse_inline_vector(sig["values"], f"{sctx}.values")
    elif sig_kind == "container":
        path = _get_str(sig, "path", sctx)
        if path is None:
            raise ConfigError(f"{sctx}: container signals need a path")
        z = _load_vector(path, sctx)
    else:
        k_sig = _get_int(sig, "k", sctx, minimum=1)
        if k_sig is None:
            raise ConfigError(f"{sctx}: missing keys ['k']")
        mode = _get_str(sig, "mode", sctx, default="clustered", choices=set(SIGNAL_MODES))
        z, _, _ = gen_sparse_signal(D, k_sig, mode, seed_sequence(seed, SALT_SIGNAL))
        noise_level = _get_num(sig, "noise_level", sctx, default=0.0, minimum=0.0)
        z = add_noise(z, noise_level, seed_sequence(seed, SALT_NOISE))
    if z.shape[0] != D.d:
        raise ValueError(f"{sctx}: signal length {z.shape[0]} does not match d = {D.d}")
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
