"""Batch experiment harness: sweeps, controls, convergence reports, emission.

Each runner takes an ExperimentConfig (one JSON document), executes its rows
in order, and returns a Report that writes report.json, rows.csv, and any
value-field CSVs. Outputs are bit-identical across runs with the same config:
no solver draws a random number, floats are emitted via repr, JSON keys are
sorted, and nothing records wall-clock time. The config's `seed` and
`solver.restarts` are checked and recorded in the provenance, but no number
depends on them. Runners ignore their `threads` argument: a thread pool over
rows measured slower than the serial loop.

Settings that no config varied are fixed in code, not read from it: the
recovery construction's delta and horizon here, its tube radius and cusp
exponent in cell.py, the L^p exponent in potentials.py, the quadrature
resolution in quadrature.py, and the f_hom table method, which
tabulate_f_hom picks from the dimension. The stability target comes from
f_hom_asymptotic in every dimension.
"""

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .cell import (
    build_almost_corrector,
    build_recovery_trajectory,
    f_hom_asymptotic,
    scaled_corrector_start,
    solve_corrector_1d,
    tabulate_f_hom,
)
from . import __version__ as PACKAGE_VERSION
from .errors import ConfigError, InputError, InvariantError, check_positive
from .fenchel import biconjugate_check, legendre_transform
from .grid import mesh, unit_vector
from .hj import (
    field_distance,
    solve_evolutionary_eps,
    solve_evolutionary_hom,
    solve_steady_eps,
    solve_steady_hom,
)
from .minimize import (
    DPGrid, OptimizerSpec, check_newton_terms, dp_oracle_1d, eps_node_count, minimize_bvp
)
from .potentials import (
    LP_EXPONENT,
    Perturbation,
    REGISTRY_VERSION,
    build_from_registry,
    cylinder_average,
    line_average,
    lp_unif_estimate,
    make_perturbation,
    make_potential,
)

__all__ = [
    "ExperimentConfig",
    "Report",
    "StabilityReport",
    "make_initial_datum",
    "run_stability_sweep",
    "run_negative_perturbation",
    "run_hj_convergence",
    "run_condition_diagnostics",
    "run_fhom_table",
    "run_fenchel_tables",
]

_GAP_SLACK = 0.10
# The almost-corrector's delta of the d >= 2 stability runs (horizon: 4 / min eps).
_RECOVERY_DELTA = 0.2


# ---------------------------------------------------------------------------
# Initial-datum registry
# ---------------------------------------------------------------------------


def _phi_plane_wave(dimension: int, p=None) -> Callable:
    vec = np.ones(dimension) if p is None else np.asarray(p, dtype=float)
    if vec.shape != (dimension,):
        raise ConfigError("plane_wave slope p must have one entry per dimension")

    def phi(y):
        with np.errstate(over="ignore"):  # a huge y reads +-inf
            return float(np.dot(vec, np.asarray(y, dtype=float)))

    return phi


def _phi_abs_min(dimension: int, cap: float = 1.0) -> Callable:
    cap = float(cap)

    def phi(y):
        with np.errstate(over="ignore"):  # a huge y has norm inf, and min(cap, inf) is cap
            return float(min(cap, np.linalg.norm(np.asarray(y, dtype=float))))

    return phi


def _phi_quadratic(dimension: int, a: float = 1.0) -> Callable:
    a = float(a)

    def phi(y):
        with np.errstate(over="ignore"):  # a huge y reads inf
            return float(a * np.dot(y, y))

    return phi


INITIAL_DATUM_BUILDERS = {
    "plane_wave": _phi_plane_wave,
    "abs_min": _phi_abs_min,
    "quadratic": _phi_quadratic,
}


def make_initial_datum(name: str, dimension: int, **params) -> Callable:
    """Build a registry initial datum; unknown names are configuration errors."""
    return build_from_registry("initial datum", INITIAL_DATUM_BUILDERS, name, dimension, **params)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_SOLVER_DEFAULTS = {
    "max_iters": 1200,
    "restarts": 2,
    "nodes_per_period": 12,
    "cell_max_iters": 2000,
}

_GRID_DEFAULTS = {
    "x": {"lo": -1.0, "hi": 1.0, "n": 9},
    "t": [0.25, 0.5, 1.0],
    "y": {"lo": -3.0, "hi": 3.0, "n": 49},
    "xi": {"half_width": 2.0, "n": 9},
    "p": {"half_width": 2.0, "n": 17},
    "radii": [64.0, 256.0, 1024.0],
    "directions": None,
    "tube_radius": 1.0,
    "dp": {"x_lo": -1.0, "x_hi": 1.0, "n_x": 321, "n_t": 129},
}

# Stand-in defaults giving the shape of the fields that default to None but
# hold numbers when set.
_NUMBER_SHAPES = {"directions": [[0.0]]}

# Count fields of the solver and grid blocks, with the least value each allows.
_COUNTS = {
    "max_iters": 1, "restarts": 0, "nodes_per_period": 1, "cell_max_iters": 1,
    "n": 1, "n_x": 1, "n_t": 1,
}

_TOP_KEYS = {
    "experiment",
    "dimension",
    "potential",
    "perturbation",
    "initial_datum",
    "xi",
    "eps_ladder",
    "lambda",
    "seed",
    "threshold",
    "output_dir",
    "solver",
    "grids",
}


def _merged(defaults: dict, override: Optional[dict], label: str) -> dict:
    if override is None:
        return json.loads(json.dumps(defaults))
    if not isinstance(override, dict):
        raise ConfigError(f"{label} must be an object")
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    out = json.loads(json.dumps(defaults))
    for key, value in override.items():
        if isinstance(defaults.get(key), dict) and isinstance(value, dict):
            sub = dict(defaults[key])
            bad = set(value) - set(sub)
            if bad:
                raise ConfigError(f"unknown {label}.{key} keys: {sorted(bad)}")
            sub.update(value)
            out[key] = sub
        else:
            out[key] = value
    return out


def _check_numbers(value, default, label: str):
    """ConfigError unless value holds a finite number wherever default does."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{label} must be an object")
        for key, sub in default.items():
            sub = _NUMBER_SHAPES.get(key) if sub is None and value[key] is not None else sub
            _check_numbers(value[key], sub, f"{label}.{key}")
            if key in _COUNTS:
                _check_count(value[key], _COUNTS[key], f"{label}.{key}")
    elif isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label} must be a list")
        for item in value:
            _check_numbers(item, default[0], label)
    elif isinstance(default, numbers.Real) and not isinstance(default, bool):
        _finite(value, label)


def _check_count(value, least: int, label: str):
    """ConfigError unless the finite number value is a whole number >= least."""
    if value != int(value) or value < least:
        raise ConfigError(f"{label} must be a whole number >= {least}, got {value!r}")


def _finite(value, label: str) -> float:
    """value as a float: a finite real number and not a bool, else a ConfigError."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{label} must be a finite number, got {value!r}")


def _check_spec_block(block, label: str) -> Optional[dict]:
    if block is None:
        return None
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError(f"{label} must be an object with a 'name' field")
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{label}.params must be an object")
    extra = set(block) - {"name", "params"}
    if extra:
        raise ConfigError(f"unknown {label} keys: {sorted(extra)}")
    # Every registry parameter is a real number or a list of them; null leaves
    # the builder's default in place.
    for key, value in params.items():
        if value is None:
            continue
        for item in value if isinstance(value, (list, tuple)) else [value]:
            _finite(item, f"{label}.params.{key}")
    return {"name": str(block["name"]), "params": params}


@dataclass(frozen=True)
class ExperimentConfig:
    """Single-document experiment description with validated defaults.

    The normalized dict is the hashing surface: two configs with the same
    normalized content produce the same config_hash and therefore the same
    outputs; two that differ only in seed produce the same rows.
    """

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        data = {}
        data["experiment"] = raw.get("experiment")
        dimension = raw.get("dimension", 1)
        if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
            raise ConfigError("dimension must be a positive integer")
        data["dimension"] = dimension

        data["potential"] = _check_spec_block(
            raw.get("potential", {"name": "sin2", "params": {}}), "potential"
        )
        data["perturbation"] = _check_spec_block(raw.get("perturbation"), "perturbation")
        data["initial_datum"] = _check_spec_block(raw.get("initial_datum"), "initial_datum")

        xi = raw.get("xi", [1.0] + [0.0] * (dimension - 1))
        xi = xi if isinstance(xi, (list, tuple)) else [xi]
        _check_numbers(xi, [0.0], "xi")
        xi = [float(v) for v in xi]
        if len(xi) != dimension:
            raise ConfigError("xi must have one entry per dimension")
        data["xi"] = xi

        ladder = raw.get("eps_ladder", [0.2, 0.1, 0.05])
        _check_numbers(ladder, [0.0], "eps_ladder")
        ladder = [float(e) for e in ladder]
        if not ladder or any(e <= 0 for e in ladder):
            raise ConfigError("eps_ladder must be non-empty and positive")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("eps_ladder must be strictly decreasing")
        data["eps_ladder"] = ladder

        lam = raw.get("lambda")
        if lam is not None:
            lam = _finite(lam, "lambda")
            if lam <= 0:
                raise ConfigError("lambda must be positive")
        data["lambda"] = lam

        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        data["seed"] = seed

        threshold = _finite(raw.get("threshold", 0.05), "threshold")
        if threshold <= 0:
            raise ConfigError("threshold must be positive")
        data["threshold"] = threshold

        output_dir = raw.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string or null, got {output_dir!r}")
        data["output_dir"] = output_dir
        data["solver"] = _merged(_SOLVER_DEFAULTS, raw.get("solver"), "solver")
        data["grids"] = _merged(_GRID_DEFAULTS, raw.get("grids"), "grids")
        for key, defaults in (("solver", _SOLVER_DEFAULTS), ("grids", _GRID_DEFAULTS)):
            _check_numbers(data[key], defaults, key)
        if data["grids"]["directions"] == []:
            raise ConfigError("grids.directions must list at least one direction")

        cfg = cls(data)
        cfg.potential()
        if data["perturbation"] is not None:
            cfg.perturbation()
        if data["initial_datum"] is not None:
            cfg.initial_datum()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls.from_json(text)

    # -- accessors ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.data["dimension"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def eps_ladder(self) -> list:
        return list(self.data["eps_ladder"])

    @property
    def xi(self) -> np.ndarray:
        return np.asarray(self.data["xi"], dtype=float)

    @property
    def lam(self) -> Optional[float]:
        return self.data["lambda"]

    @property
    def threshold(self) -> float:
        return self.data["threshold"]

    @property
    def output_dir(self) -> Optional[str]:
        return self.data["output_dir"]

    def potential(self):
        spec = self.data["potential"]
        return make_potential(spec["name"], self.dimension, **spec["params"])

    def perturbation(self) -> Optional[Perturbation]:
        spec = self.data["perturbation"]
        if spec is None:
            return None
        return make_perturbation(spec["name"], self.dimension, **spec["params"])

    def initial_datum(self) -> Optional[Callable]:
        spec = self.data["initial_datum"]
        if spec is None:
            return None
        return make_initial_datum(spec["name"], self.dimension, **spec["params"])

    def optimizer(self) -> OptimizerSpec:
        return OptimizerSpec(max_iters=int(self.data["solver"]["max_iters"]))

    def cell_optimizer(self) -> OptimizerSpec:
        """The optimizer of the cell solves: the d = 1 corrector, the d >= 2
        windows and the almost-corrector block, capped at cell_max_iters."""
        return OptimizerSpec(max_iters=int(self.data["solver"]["cell_max_iters"]))

    def dp_grid(self) -> DPGrid:
        g = self.data["grids"]["dp"]
        return DPGrid(float(g["x_lo"]), float(g["x_hi"]), int(g["n_x"]), int(g["n_t"]))

    def _axes(self, key: str) -> tuple:
        """The grid `key` (lo..hi, or symmetric half_width) repeated per dimension."""
        g = self.data["grids"][key]
        lo, hi = (-g["half_width"], g["half_width"]) if "half_width" in g else (g["lo"], g["hi"])
        if not math.isfinite(float(hi) - float(lo)):  # linspace would overflow on the span
            raise ConfigError(f"grids.{key} spans [{lo}, {hi}], wider than a float holds")
        return (np.linspace(float(lo), float(hi), int(g["n"])),) * self.dimension

    def x_axes(self) -> tuple:
        return self._axes("x")

    def y_axes(self) -> tuple:
        return self._axes("y")

    def t_grid(self) -> np.ndarray:
        return np.asarray(self.data["grids"]["t"], dtype=float)

    def xi_axes(self):
        return self._axes("xi")[0] if self.dimension == 1 else self._axes("xi")

    def p_axes(self):
        return self._axes("p")[0] if self.dimension == 1 else self._axes("p")

    def config_hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def provenance(self, experiment: str) -> dict:
        return {
            "experiment": experiment,
            "config_hash": self.config_hash(),
            "registry_versions": {"potentials": REGISTRY_VERSION},
            "package_version": PACKAGE_VERSION,
            "seed": self.seed,
            "solver": dict(self.data["solver"]),
        }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _pyify(obj):
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class Report:
    """Deterministic experiment result: rows, verdicts, provenance, fields."""

    experiment: str
    rows: tuple
    verdicts: dict
    provenance: dict
    fields: tuple = ()
    extra_files: tuple = ()

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "provenance": _pyify(self.provenance),
            "rows": _pyify(list(self.rows)),
            "verdicts": _pyify(self.verdicts),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def rows_csv_text(self) -> str:
        columns = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines = [",".join(columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) if c in row else "" for c in columns))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> list:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json() + "\n")
        (out / "rows.csv").write_text(self.rows_csv_text())
        written = ["report.json", "rows.csv"]
        for label, vf in self.fields:
            written.append(f"field_{label}.csv")
            vf.to_csv(out / written[-1])
        for name, text in self.extra_files:
            written.append(name)
            (out / name).write_text(text if text.endswith("\n") else text + "\n")
        return [str(out / name) for name in written]


@dataclass(frozen=True)
class StabilityReport(Report):
    """Report whose rows must honor min_G >= min_F for nonnegative W."""

    def __post_init__(self):
        for row in self.rows:
            slack = 1e-9 * max(1.0, abs(row["min_F"]))
            if row["min_G"] < row["min_F"] - slack:
                raise InvariantError(
                    f"min_G < min_F at eps={row['eps']}: "
                    f"{row['min_G']} < {row['min_F']} with nonnegative W"
                )


def _slack_decreasing(values) -> bool:
    """Monotone decrease up to a multiplicative slack between consecutive rungs."""
    if len(values) < 2:
        return True
    return all(
        b <= a * (1.0 + _GAP_SLACK) + 1e-9 if a >= 0 else b <= a * (1.0 - _GAP_SLACK) + 1e-9
        for a, b in zip(values, values[1:])
    )


# ---------------------------------------------------------------------------
# Stability sweep
# ---------------------------------------------------------------------------


def run_stability_sweep(cfg: ExperimentConfig, threads: int = 1) -> StabilityReport:
    """Empirical homogenization-stability check for a nonnegative perturbation.

    Per rung: min_G from the perturbed minimization warm-started by the
    corrector profile (d = 1, from `solve_corrector_1d`) or the recovery
    competitor (d >= 2); min_F warm-started additionally by the G-minimizer,
    which pins min_F <= min_G structurally. Verdicts: gap_G decreasing with
    10% slack, final relative gap below the configured threshold. A W that
    Newton cannot take (check_newton_terms), or an eps whose rung would need
    more than 2^20 nodes (eps_node_count), raises InputError before any
    solve or warm start is built.
    A rung that fails raises its own SolverError or InvariantError, so the
    verdicts always judge the whole ladder; `rows_failed` is always 0.

    The target f_hom(xi) is `f_hom_asymptotic`'s value in every dimension.
    Provenance names the path that made it (`f_hom_method`: "separable" for
    the exact value of a V with an axis factor, else "windows"). A window
    target also records `f_hom_monotone`: window values bound f_hom from
    above only when T * xi is a lattice vector, and a ladder that is not
    monotone flags a slope where the target may sit below f_hom.
    """
    V = cfg.potential()
    W = cfg.perturbation()
    if W is None:
        W = make_perturbation("zero", cfg.dimension)
    if W.sign_class != "nonnegative":
        raise InputError(
            "stability sweeps require a nonnegative perturbation; "
            "signed ones go through run_negative_perturbation"
        )
    check_newton_terms(V, W)
    xi = cfg.xi
    opt = cfg.optimizer()
    ladder = cfg.eps_ladder
    nodes_per_period = int(cfg.data["solver"]["nodes_per_period"])
    node_counts = [eps_node_count(nodes_per_period, eps, 65, 1.0) for eps in ladder]
    # exact: W is nonnegative and check_newton_terms has turned away any atom
    zero_w = W.upper_bound() == 0.0

    target, diagnostics = f_hom_asymptotic(V, xi, opt=cfg.cell_optimizer())
    if cfg.dimension == 1:
        profile = solve_corrector_1d(V, float(xi[0]), opt=cfg.cell_optimizer())
        plan = None
    else:
        profile = None
        horizon = 4.0 / min(ladder)
        plan = build_almost_corrector(V, xi, _RECOVERY_DELTA, horizon, cfg.cell_optimizer())

    rows = []
    a0 = np.zeros(cfg.dimension)
    for eps, n_nodes in zip(ladder, node_counts):
        if profile is not None:
            warm = (scaled_corrector_start(profile, eps, n_nodes),)
        else:
            warm = (build_recovery_trajectory(plan, W, eps),)
        if zero_w:
            u_f, min_f = minimize_bvp(V, None, eps, 1.0, a0, xi, n_nodes, opt, warm_starts=warm)
            u_g, min_g = u_f, min_f
        else:
            u_g, min_g = minimize_bvp(V, W, eps, 1.0, a0, xi, n_nodes, opt, warm_starts=warm)
            u_f, min_f = minimize_bvp(
                V, None, eps, 1.0, a0, xi, n_nodes, opt, warm_starts=warm + (u_g,)
            )
        rows.append(
            {
                "eps": float(eps),
                "min_G": float(min_g),
                "min_F": float(min_f),
                "f_hom_target": float(target),
                "gap_G": float(min_g - target),
                "gap_F": float(min_f - target),
                "converged": u_g.meta["converged"] and u_f.meta["converged"],
            }
        )
    gaps = [r["gap_G"] for r in rows]
    scale = max(abs(float(target)), 1e-12)
    verdicts = {
        "gap_decreasing": _slack_decreasing(gaps),
        "final_gap_below_threshold": abs(gaps[-1]) / scale < cfg.threshold,
        "final_relative_gap": abs(gaps[-1]) / scale,
        "rows_failed": 0,  # a failing rung raises; the key stays in every report
    }
    prov = cfg.provenance("stability")
    prov["w_nonnegative"] = True
    prov["f_hom_target"] = float(target)
    prov["f_hom_method"] = diagnostics["method"]
    if diagnostics["method"] == "windows":
        prov["f_hom_monotone"] = diagnostics["monotone"]
    return StabilityReport("stability", tuple(rows), verdicts, prov)


# ---------------------------------------------------------------------------
# Negative perturbation (DP-based)
# ---------------------------------------------------------------------------


def run_negative_perturbation(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Nonpositive perturbations with loop boundary conditions, via the DP oracle.

    Rung values are exact lattice minima of the perturbed action with
    u(0) = u(1) = 0. The predicted limit couples the kinetic term with a
    zero-set bonus of size inf W; it is computed by the same DP with the
    continuous perturbation replaced by a pure atom at 0, so both sides of
    the comparison share one discretization. The limit (at eps = 1) and the
    rungs are one stacked dp_oracle_1d call, so one lattice sweep takes the
    whole ladder; each value is the float its own call would give. A
    pure-atom W (support radius 0) must produce bitwise eps-independent
    rungs. A rung that fails raises its own error, naming its eps, so the
    verdicts judge the whole ladder; `rows_failed` is 0.
    """
    if cfg.dimension != 1:
        raise InputError("the negative-perturbation runner is one-dimensional")
    V = cfg.potential()
    if V.v_min != V.v_max:
        raise InputError(
            "the zero-set limit formula assumes a constant periodic part; "
            "use the stability runner for oscillatory potentials"
        )
    W = cfg.perturbation()
    if W is None or W.sign_class != "nonpositive":
        raise InputError("run_negative_perturbation requires a nonpositive perturbation")

    grid = cfg.dp_grid()
    if float(np.min(np.abs(grid.states()))) != 0.0:
        raise InputError(
            "the DP state grid must contain 0.0 exactly (the zero-set bonus "
            "is charged only there); adjust x_lo/x_hi/n_x"
        )
    inf_w = W.lower_bound()
    limit_bonus = Perturbation(
        1,
        lambda x: np.zeros(x.shape[:-1]),
        sign_class="nonpositive",
        sup_bound=abs(inf_w),
        zero_atom=inf_w,
        name="zero_set_bonus",
    )
    ladder = list(cfg.eps_ladder)
    limit_value, *values = dp_oracle_1d(
        V, [limit_bonus] + [W] * len(ladder), [1.0] + ladder, 1.0, 0.0, 0.0, grid
    )
    rows = [
        {
            "eps": float(eps),
            "min_G": value,
            "limit_value": float(limit_value),
            "gap": float(value - limit_value),
        }
        for eps, value in zip(cfg.eps_ladder, values)
    ]
    pure_atom = W.support_radius == 0.0 and W.zero_atom < 0.0
    spread = max(values) - min(values)
    if pure_atom and spread > 1e-12:
        raise InvariantError(
            f"a pure zero-atom perturbation must be eps-independent; spread {spread}"
        )
    scale = max(abs(float(limit_value)), 1e-12)
    verdicts = {
        "eps_independent": spread <= 1e-12,
        "value_spread": float(spread),
        "final_within_5pct": abs(values[-1] - limit_value) / scale <= 0.05,
        "limit_value": float(limit_value),
        "rows_failed": 0,  # a failing rung raises; the key stays in every report
    }
    prov = cfg.provenance("negative")
    prov["dp_grid"] = asdict(grid)
    return Report("negative", tuple(rows), verdicts, prov)


# ---------------------------------------------------------------------------
# HJ convergence
# ---------------------------------------------------------------------------


def run_hj_convergence(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Distance tables between oscillatory and homogenized value fields.

    Steady mode when lambda is configured; evolutionary mode when an initial
    datum is configured (lambda wins if both are present). Emits the
    homogenized field and one field per rung; verdicts ask the sup and mean
    distances to decrease along the ladder with 10% slack. Rows also carry
    each eps-field's dp_sup_distance and all_converged, and the provenance
    each rung's dp_lattice (see solve_steady_eps). A W that Newton cannot take
    (check_newton_terms), or no lambda nor initial datum, raises before any table.
    """
    V = cfg.potential()
    W = cfg.perturbation()
    check_newton_terms(V, W)
    Phi = None if cfg.lam is not None else cfg.initial_datum()
    if cfg.lam is None and Phi is None:
        raise InputError("hj convergence needs lambda (steady) or an initial datum (evolutionary)")
    opt = cfg.optimizer()
    x_axes = cfg.x_axes()
    f = tabulate_f_hom(V, cfg.xi_axes(), cfg.cell_optimizer())

    if cfg.lam is not None:
        mode = "steady"
        u_hom = solve_steady_hom(f, cfg.lam, x_axes, opt)
        eps_fields = [
            solve_steady_eps(V, W, eps, cfg.lam, x_axes, opt) for eps in cfg.eps_ladder
        ]
    else:
        mode = "evolutionary"
        t_grid = cfg.t_grid()
        y_axes = cfg.y_axes()
        u_hom = solve_evolutionary_hom(f, Phi, x_axes, t_grid, y_axes)
        eps_fields = [
            solve_evolutionary_eps(V, W, eps, Phi, x_axes, t_grid, y_axes, opt)
            for eps in cfg.eps_ladder
        ]

    rows = []
    for eps, field_eps in zip(cfg.eps_ladder, eps_fields):
        sup_d, mean_d = field_distance(field_eps, u_hom)
        evidence = {k: field_eps.provenance[k] for k in ("dp_sup_distance", "all_converged")}
        rows.append({"eps": float(eps), "sup_distance": sup_d, "mean_distance": mean_d, **evidence})
    sups = [r["sup_distance"] for r in rows]
    means = [r["mean_distance"] for r in rows]
    verdicts = {
        "mode": mode,
        "sup_decreasing": _slack_decreasing(sups),
        "mean_decreasing": _slack_decreasing(means),
        "final_sup_distance": sups[-1] if sups else None,
    }
    fields = [("hom", u_hom)] + [
        (f"eps_{eps}", field_eps) for eps, field_eps in zip(cfg.eps_ladder, eps_fields)
    ]
    prov = cfg.provenance("hj")
    prov["dp_lattice"] = {label: vf.provenance["dp_lattice"] for label, vf in fields[1:]}
    return Report("hj", tuple(rows), verdicts, prov, tuple(fields))


# ---------------------------------------------------------------------------
# Perturbation-condition diagnostics
# ---------------------------------------------------------------------------


def _classify_curve(curve) -> str:
    sizes = [abs(v) for v in curve]  # by magnitude: a nonpositive W reads as its mirror
    first, last = sizes[0], sizes[-1]
    if max(sizes) <= 1e-9:
        return "zero"
    if all(b < a for a, b in zip(sizes, sizes[1:])) and last <= 0.5 * first:
        return "decaying"
    if last >= 0.8 * first and last > 0.05:
        return "persistent"
    return "inconclusive"


def run_condition_diagnostics(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Tube-average decay curves and the uniform-L^p estimate for W.

    Emits one row per (direction, R); classifies each direction's curve, by
    magnitude, as zero / decaying / persistent / inconclusive and the whole
    perturbation as consistent with the zero-average tube condition,
    inconsistent, or inconclusive. Directions default to the coordinate
    axes; each direction's curve is one `cylinder_average` call over all the
    radii. Fewer than two radii raise InputError: a one-point curve shows no
    trend. So does a W with a zero atom, which no line or tube average sees,
    and, before any tube, a direction of the wrong length or one whose norm
    is 0 or not finite (`grid.unit_vector`).
    """
    W = cfg.perturbation()
    if W is None:
        W = make_perturbation("zero", cfg.dimension)
    if W.zero_atom != 0.0:
        raise InputError("pointwise averages cannot see a zero atom; use run_negative_perturbation")
    grids = cfg.data["grids"]
    radii = [float(r) for r in grids["radii"]]
    if len(radii) < 2:  # no decay or persistence shows in a single value
        raise InputError("radii needs at least two values to classify a curve")
    for R in radii:
        check_positive("R", R)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing")

    tube_r = float(grids["tube_radius"])
    if cfg.dimension == 1:
        curves = [("line", [float(line_average(W, R)) for R in radii])]
    else:
        raw_dirs = grids["directions"]
        if raw_dirs is None:
            raw_dirs = list(np.eye(cfg.dimension))
        directions, labels = [], []
        for vec in raw_dirs:
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (cfg.dimension,):
                raise InputError(
                    f"direction must be a vector of length d = {cfg.dimension}, "
                    f"got direction={arr.tolist()}"
                )
            directions.append(unit_vector(arr, "direction")[0])
            labels.append(";".join(repr(float(v)) for v in arr))
        curves = [
            (label, [float(v) for v in cylinder_average(W, direction, tube_r, radii)])
            for label, direction in zip(labels, directions)
        ]

    centers = mesh([np.arange(-2.0, 2.5, 1.0)] * cfg.dimension)
    lp_value = lp_unif_estimate(W, centers)

    rows = []
    classifications = {}
    for label, curve in curves:
        classifications[label] = _classify_curve(curve)
        for R, value in zip(radii, curve):
            rows.append({"direction": label, "R": float(R), "average": float(value)})

    kinds = set(classifications.values())
    if kinds <= {"zero", "decaying"}:
        overall = "consistent with the zero-average tube condition"
    elif kinds == {"persistent"}:
        overall = "inconsistent with the zero-average tube condition"
    else:
        overall = "inconclusive"
    verdicts = {
        "per_direction": classifications,
        "classification": overall,
        "lp_unif_estimate": float(lp_value),
        "lp_exponent": LP_EXPONENT,
    }
    return Report("conditions", tuple(rows), verdicts, cfg.provenance("conditions"))


# ---------------------------------------------------------------------------
# Table runners (homogenized Lagrangian and its conjugate)
# ---------------------------------------------------------------------------


def _node_rows(table, coord: str, column: str) -> tuple:
    """One row per grid node of the table: its coordinates coord_1..coord_d and value."""
    return tuple(
        {**{f"{coord}_{i + 1}": float(c) for i, c in enumerate(point)}, column: float(val)}
        for point, val in zip(mesh(table.axes), table.values.reshape(-1))
    )


def run_fhom_table(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Tabulate the homogenized Lagrangian on the configured slope grid."""
    f = tabulate_f_hom(cfg.potential(), cfg.xi_axes(), cfg.cell_optimizer())
    n_violations, worst_defect = f.convexity_violations()
    verdicts = {
        "f0": float(f.f0),
        "envelope_applied": bool(f.envelope_applied),
        "convexity_violations": int(n_violations),
        "worst_convexity_defect": float(worst_defect),
        "method": f.meta["method"],
    }
    return Report(
        "fhom",
        _node_rows(f, "xi", "f_hom"),
        verdicts,
        cfg.provenance("fhom"),
        extra_files=(("f_hom.json", f.to_json()),),
    )


def run_fenchel_tables(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Tabulate f_hom and its convex conjugate; certify the transform."""
    f = tabulate_f_hom(cfg.potential(), cfg.xi_axes(), cfg.cell_optimizer())
    conjugate = legendre_transform(f, cfg.p_axes())
    gap = biconjugate_check(conjugate)
    defect = conjugate.fenchel_young_defect()
    n_violations, worst_defect = conjugate.convexity_violations()
    verdicts = {
        "biconjugate_gap": float(gap),
        "fenchel_young_defect": float(defect),
        "conjugate_convexity_violations": int(n_violations),
        "worst_conjugate_defect": float(worst_defect),
    }
    return Report(
        "fenchel",
        _node_rows(conjugate, "p", "f_star"),
        verdicts,
        cfg.provenance("fenchel"),
        extra_files=(
            ("f_hom.json", f.to_json()),
            ("f_star.json", conjugate.to_json()),
        ),
    )
