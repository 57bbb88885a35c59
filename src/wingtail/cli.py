"""Command-line entry point: parameter ingestion from JSON configs, CSV/JSON
emission for density and smile curves, constants reports, Monte Carlo sampling,
and the validation harness.

Exit codes: 0 = success / all criteria pass, 1 = domain or configuration
error, 2 = acceptance criterion failure. Every domain violation is reported as
a structured message naming the violated condition; the CLI never tracebacks
on bad input.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import acceptance, heston, kou, mixed, oracles, smile
from .errors import DegenerateRegimeError, DomainError, RegimeGuardError, WingtailError
from .heston import HestonParams
from .kou import KouJumpParams
from .mixed import MixedModel, WING_LARGE, WING_SMALL
from .nig import NIGParams
from .numerics import RngStream, Tolerance
from .oracles import ORACLE_WINDOW

__all__ = ["ModelConfig", "load_config", "main"]

# jump law of each model kind; its config section is named by the law's `kind`
JUMP_LAWS = {"heston": None, "heston+kou": KouJumpParams, "heston+nig": NIGParams}

DENSITY_HEADER = ["x", "asymptote", "oracle_fourier", "ratio", "error_bound"]
SMILE_HEADER = ["K", "L", "iv_expansion", "iv_from_asymptotic_price", "residual", "residual_times_L"]


@dataclass(frozen=True)
class ModelConfig:
    """Validated run configuration: model kind, parameters, seed, tolerances."""

    kind: str
    model: MixedModel
    seed: int
    tol: Tolerance


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise WingtailError(f"config error: {where} must be an object, got {value!r}")
    return value


def _require(mapping: dict, key: str, where: str):
    if key not in _mapping(mapping, where):
        raise WingtailError(f"config error: missing '{key}' in {where}")
    return mapping[key]


def _number(value, field: str) -> float:
    """A finite float from a config value; the error names the field."""
    if isinstance(value, bool):  # a JSON true or false, which float() reads as 1.0 or 0.0
        raise WingtailError(f"config error: {field} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise WingtailError(f"config error: {field} must be a number, got {value!r}") from None
    except OverflowError:  # an integer past the double range
        number = math.inf
    if not math.isfinite(number):
        raise WingtailError(f"config error: {field} must be finite, got {value!r}")
    return number


def _seed(value, field: str) -> int:
    """A non-negative whole seed from a config value or flag; the error names the field."""
    number = _number(value, field)
    if number < 0 or not number.is_integer():
        raise WingtailError(f"config error: {field} must be a non-negative integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)  # exact past 2**53


def _field(mapping: dict, key: str, where: str) -> float:
    return _number(_require(mapping, key, where), f"{where}.{key}")


def load_config(path: str, seed_override: int | None = None, tol_override: float | None = None) -> ModelConfig:
    """Load and validate a JSON config; all component invariants re-checked.

    Every numeric field must be finite (JSON readers accept NaN and Infinity);
    the error names the first field that is not.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise WingtailError(f"config error: cannot read {path}: {exc}") from exc
    kind = _require(raw, "model", "config")
    if not isinstance(kind, str) or kind not in JUMP_LAWS:
        raise WingtailError(f"config error: model must be one of {tuple(JUMP_LAWS)}, got {kind!r}")
    t = _field(raw, "t", "config")
    h = _require(raw, "heston", "config")
    law, jumps = JUMP_LAWS[kind], None
    if law is not None:
        section = _require(raw, law.kind, "config")
        jumps = law(**{f.name: _field(section, f.name, law.kind) for f in fields(law) if f.name != "t"}, t=t)
    mu = _require(h, "mu", "heston")
    if mu == "risk_neutral":
        mu = 0.0 if jumps is None else jumps.martingale_drift()
    hp = HestonParams(
        mu=_number(mu, "heston.mu"),
        **{key: _field(h, key, "heston") for key in ("a", "b", "c", "rho", "x0", "y0")},
        t=t,
    )
    model = MixedModel(heston=hp, jumps=jumps)
    seed = _seed(raw.get("seed", 12345), "config.seed") if seed_override is None else _seed(seed_override, "--seed")
    tdict = _mapping(raw.get("tolerances", {}), "tolerances")
    tol = Tolerance(
        rel=_number(tdict.get("rel", 1e-10), "tolerances.rel") if tol_override is None
        else _number(tol_override, "--tol"),
        abs=_number(tdict.get("abs", 1e-13), "tolerances.abs"),
    )
    return ModelConfig(kind=kind, model=model, seed=seed, tol=tol)


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:n' (linear) or 'a:b:nlog' (log-spaced) grid specs."""
    text = spec.strip().replace("(log)", "log")
    log_spaced = text.endswith("log")
    if log_spaced:
        text = text[:-3]
    parts = text.split(":")
    if len(parts) != 3:
        raise WingtailError(f"config error: grid spec must be 'a:b:n[log]', got {spec!r}")
    a, b = _number(parts[0], "grid start"), _number(parts[1], "grid end")
    if not parts[2].strip().isdigit():
        raise WingtailError(f"config error: grid point count must be a whole number, got {parts[2]!r}")
    n = int(parts[2])
    if n < 1 or not a < b:
        raise WingtailError(f"config error: bad grid bounds {spec!r}")
    if a <= 0:
        raise WingtailError(f"config error: grid points are prices and strikes, so a > 0 is needed, got {spec!r}")
    return np.geomspace(a, b, n) if log_spaced else np.linspace(a, b, n)


def _regime_field(model: MixedModel, wing: str) -> dict:
    try:
        regime = mixed.classify_wing(model, wing)
        return {"dominant": regime.dominant, "margin": regime.margin}
    except DegenerateRegimeError as exc:
        return {"dominant": "degenerate", "reason": str(exc)}


def cmd_constants(config: ModelConfig) -> dict:
    """Critical moments, wing constants, per-wing regimes, leading coefficients.

    Each Heston wing whose constants are all in (0, inf) reports them; the
    report names the refusal of any other (`tail_constants_refused`), and a
    model with neither wing is refused.
    """
    model = config.model
    cm = heston.critical_moments(model.heston)
    constants, refused = {}, {}
    for wing in (WING_LARGE, WING_SMALL):
        try:
            constants.update(heston.wing_constants(model.heston, wing))
        except DomainError as exc:
            refused[f"{wing}_wing"] = str(exc)
    if not constants:
        raise DomainError(f"neither Heston wing has its constants: {'; '.join(refused.values())}")
    report = {
        "model": config.kind,
        "critical_moments": asdict(cm),
        "tail_constants": constants,
        "regimes": {
            "large_wing": _regime_field(model, WING_LARGE),
            "small_wing": _regime_field(model, WING_SMALL),
        },
    }
    if refused:
        report["tail_constants_refused"] = refused
    for wing in (WING_LARGE, WING_SMALL):
        try:
            report[f"{wing}_wing_asymptote"] = asdict(mixed.mixed_asymptote(model, wing))
        except (DegenerateRegimeError, WingtailError) as exc:
            report[f"{wing}_wing_asymptote"] = {"error": str(exc)}
    if isinstance(model.jumps, KouJumpParams):
        table = kou.coefficients(model.jumps, 19)
        report["coefficients"] = [
            {
                "k": k,
                "a": float(table.a[k]),
                "a_hat": float(table.a_hat[k]),
                "a_rel_gap_scaled": float((table.a[k] - table.a_hat[k]) * (k + 1) / table.a_hat[k]),
                "b": float(table.b[k]),
                "b_hat": float(table.b_hat[k]),
                "b_rel_gap_scaled": float((table.b[k] - table.b_hat[k]) * (k + 1) / table.b_hat[k]),
            }
            for k in range(20)
        ]
    return report


def cmd_density(config: ModelConfig, grid: np.ndarray) -> list[list[str]]:
    """Density curve rows: asymptote, Fourier oracle (within reach), ratio, bound.

    The oracle inverts every in-window point of the grid in one call.
    """
    model = config.model
    rows = [DENSITY_HEADER]
    records = {}
    grid = np.asarray(grid, dtype=float)
    in_window = np.abs(np.log(grid)) <= ORACLE_WINDOW
    oracle_values = np.full(grid.size, np.nan)
    if in_window.any():
        oracle_values[in_window] = oracles.density_fourier(model, grid[in_window], config.tol)
    for x, in_reach, oracle in zip(map(float, grid), in_window, oracle_values):
        # the wing records are functions of log x, whatever the spot
        wing = WING_LARGE if x >= 1.0 else WING_SMALL
        if wing not in records:
            try:
                records[wing] = mixed.mixed_asymptote(model, wing)
            except WingtailError:
                records[wing] = None
        asym = bound = ratio = ""
        if records[wing] is not None:
            ell = abs(math.log(x))
            try:
                asym, bound = math.exp(records[wing].log_value_logx(ell)), records[wing].error_bound_logx(ell)
            except WingtailError:
                pass
        oracle = float(oracle) if in_reach else ""
        if asym != "" and oracle != "":
            ratio = oracle / asym
        rows.append([repr(x), _fmt(asym), _fmt(oracle), _fmt(ratio), _fmt(bound)])
    return rows


def cmd_smile(config: ModelConfig, grid: np.ndarray) -> list[list[str]]:
    """Smile curve rows: expansion vs inversion of the asymptotic price.

    Each strike is read as its log-moneyness L = |log K - log x0|. Rows inside
    the smile guard (L < smile.GUARD) are left empty; so is a row where a
    step raised, and it gets one stderr line naming K, L and the error. The
    expansion, which also prices the wing, is built once per wing."""
    model = config.model
    rows = [SMILE_HEADER]
    expansions = {}
    log_x0 = math.log(model.x0)
    for K in grid:
        ell = math.log(K) - log_x0
        wing = WING_LARGE if ell >= 0 else WING_SMALL
        L = abs(ell)
        if wing not in expansions:
            try:
                expansions[wing] = smile.smile_expansion(model, wing)
            except WingtailError as exc:
                expansions[wing] = exc
        expn = expansions[wing]
        try:
            if isinstance(expn, WingtailError):
                raise expn
            iv_exp = expn.evaluate(L)
            iv_inv = smile.bs_implied_vol_from_log(expn.log_call(L), L, model.t)
            resid = abs(iv_exp - iv_inv)
            resid_l = resid * L
        except WingtailError as exc:
            iv_exp = iv_inv = resid = resid_l = ""
            if not isinstance(exc, RegimeGuardError):
                print(f"smile row K={float(K):.6g}, L={L:.6g} left empty: {exc}", file=sys.stderr)
        rows.append([repr(float(K)), repr(L), _fmt(iv_exp), _fmt(iv_inv), _fmt(resid), _fmt(resid_l)])
    return rows


def cmd_sample(config: ModelConfig, n_paths: int, steps: int) -> dict:
    """Simulate terminal prices; summary statistics and the martingale z-score `oracles.martingale_z`."""
    stream = RngStream(config.seed)
    sample = oracles.simulate_paths(config.model, n_paths, steps, stream)
    res = oracles.summarize(sample, config.seed)
    qs = np.quantile(sample, [0.01, 0.25, 0.5, 0.75, 0.99])
    return {
        "estimate": res.estimate,
        "std_error": res.std_error,
        "n_paths": res.n_paths,
        "seed": res.seed,
        "x0": config.model.x0,
        "martingale_z": oracles.martingale_z(config.model, sample),
        "quantiles": {"1%": qs[0], "25%": qs[1], "50%": qs[2], "75%": qs[3], "99%": qs[4]},
    }


def cmd_validate() -> int:
    """Run the acceptance suite; returns the exit code."""
    return 0 if all(r.passed for r in acceptance.run_all()) else 2


def _fmt(value) -> str:
    return "" if value == "" else repr(float(value))


def _emit_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(rows: list[list[str]], out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wingtail",
        description="Tail and implied-volatility wing asymptotics for mixed stochastic models, "
                    "validated against quadrature, Fourier and Monte Carlo oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "critical moments, wing constants, regimes, coefficients (JSON)"),
        ("density", "density asymptote vs Fourier oracle on a grid (CSV)"),
        ("smile", "implied-vol expansion vs asymptotic-price inversion on a strike grid (CSV)"),
        ("validate", "run the acceptance suite with its fixed acceptance models, seeds and tolerances; "
                     "exit 0 only if every criterion passes"),
        ("sample", "Monte Carlo terminal-price sample summary (JSON)"),
    ):
        # each subcommand offers the flags its command reads, and no others
        p = sub.add_parser(name, help=help_text, description=help_text)
        if name == "validate":
            continue
        p.add_argument("--config", required=True, help="path to the JSON model config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name == "sample":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "density":
            p.add_argument("--tol", type=float, default=None, help="override the relative tolerance")
        if name in ("density", "smile"):
            p.add_argument("--grid", required=True, help="grid spec a:b:n or a:b:nlog")
        if name == "sample":
            p.add_argument("--paths", type=int, default=100_000)
            p.add_argument("--steps", type=int, default=200)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        config = load_config(args.config, seed_override=getattr(args, "seed", None),
                             tol_override=getattr(args, "tol", None))
        if args.command == "constants":
            _emit_json(cmd_constants(config), args.out)
        elif args.command == "density":
            _emit_csv(cmd_density(config, parse_grid(args.grid)), args.out)
        elif args.command == "smile":
            _emit_csv(cmd_smile(config, parse_grid(args.grid)), args.out)
        elif args.command == "sample":
            _emit_json(cmd_sample(config, args.paths, args.steps), args.out)
    except (WingtailError, MemoryError) as exc:  # MemoryError: a grid or a sample too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
