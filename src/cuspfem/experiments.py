"""
Sweep engine and command-line interface.

Reproduces the standard experiment layouts: convergence tables with rates
r = (ln E_N - ln E_2N)/ln 2, eps-sweeps over many perturbation parameters,
error-to-bound ratio tables E * 100 * (N/(K+1))^k with E the method's norm
(energy for Galerkin, SD for SDFEM), and point samplers of solution/error
curves for external plotting.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import traceback
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional

import numpy as np

from .assembly import (
    DELTA_POLICIES,
    RESIDUAL_TOL,
    AssemblyError,
    SolverError,
    assemble_galerkin,
    assemble_sdfem,
    compute_deltas,
    solve_banded,
)
from .basis import MAX_ORDER
from .mesh import (
    MeshConstructionError,
    MeshParams,
    build_mesh,
    check_lambda,
    mesh_header,
    save_mesh,
    validate_mesh,
)
from .norms import NORM_NAMES, QuadSpec, error_norms
from .problem import make_problem, problem_names

METHODS = ("fem", "sdfem")
# the norm of each method's eps-uniform error bound
_BOUND_NORMS = {"fem": "energy", "sdfem": "sd"}
FORMATS = ("csv", "markdown")

# one case's failures: a row's error in `_run_case`, exit 2 in `main` for mesh
# and sample; a ValueError is a configuration error and aborts the run
_CASE_ERRORS = (MeshConstructionError, AssemblyError, SolverError, MemoryError)


@dataclass(frozen=True)
class SweepConfig:
    """One experiment description; lists are crossed (eps x k x N)."""

    problem: str = "sun-stynes-example"
    lam: float = 0.25
    eps_list: tuple[float, ...] = (1e-10,)
    n_list: tuple[int, ...] = (128, 256, 512, 1024)
    k_list: tuple[int, ...] = (1,)
    method: str = "fem"
    family: str = "uniform"
    c0: float = 1.0
    delta_policy: str = "standard"
    quad_assembly: int = 0  # 0 selects the default k + 3
    quad_error: QuadSpec = QuadSpec()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly ascending")
        if not (self.eps_list and self.n_list and self.k_list):
            raise ValueError("eps_list, n_list and k_list must be nonempty")
        for k in self.k_list:
            if not 1 <= k <= MAX_ORDER:
                raise ValueError(f"polynomial order must be in 1..{MAX_ORDER}, got {k}")
            check_lambda(self.lam, k)
            if self.quad_assembly and self.quad_assembly < k + 1:
                raise ValueError(f"need quad_points >= k+1 = {k + 1}, got {self.quad_assembly}")


@dataclass(frozen=True)
class ConvergenceRow:
    """One (eps, k, N) case, fields in table column order; rates are set
    only when the next row in the same (eps, k) group has exactly doubled N.
    The norms are those of `ErrorReport`."""

    eps: float
    n_half: int
    big_k: Optional[int]
    order: int
    l2: float = math.nan
    energy: float = math.nan
    sd: float = math.nan
    weighted_xdp: float = math.nan
    l2_rate: Optional[float] = None
    energy_rate: Optional[float] = None
    sd_rate: Optional[float] = None
    weighted_xdp_rate: Optional[float] = None
    residual_ok: bool = False
    mesh_ok: bool = False
    error: Optional[str] = None
    # not a table column: the first violation of a mesh that failed validation
    mesh_violation: Optional[str] = None


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _make_problem(config: SweepConfig, eps: float):
    """The config's problem at eps.  The mesh's sigma assumes a layer
    exponent lambda_bar of at least the mesh's lambda; above it (by more
    than a few ulps) the theory's hypotheses fail, so that is an error."""
    prob = make_problem(config.problem, eps, config.lam)
    if config.lam > prob.lambda_bar + 4 * math.ulp(prob.lambda_bar):
        raise ValueError(
            f"mesh lambda {config.lam} exceeds the problem's lambda_bar = c(0)/b(0) = "
            f"{prob.lambda_bar}"
        )
    return prob


def convergence_rate(e_coarse: float, e_fine: float) -> float:
    """r = (ln E_N - ln E_2N) / ln 2 from full-precision errors."""
    if not (e_coarse > 0.0 and e_fine > 0.0) or not (
        math.isfinite(e_coarse) and math.isfinite(e_fine)
    ):
        return math.nan
    return (math.log(e_coarse) - math.log(e_fine)) / math.log(2.0)


def _solve(config: SweepConfig, prob, mesh):
    """Assemble and solve one case on `mesh`, whose params give eps and k;
    returns (stabilization profile or None, discrete solution)."""
    eps, k, stab = mesh.params.eps, mesh.params.order, None
    if config.method == "sdfem":
        stab = compute_deltas(mesh, eps, config.c0, config.delta_policy, prob, k)
        system = assemble_sdfem(prob, mesh, k, config.family, config.quad_assembly, stab=stab)
    else:
        system = assemble_galerkin(prob, mesh, k, config.family, config.quad_assembly)
    return stab, solve_banded(system)


def _case_message(exc: BaseException) -> str:
    """A case error's text; an allocation failure also names the innermost
    cuspfem function on its traceback."""
    if not isinstance(exc, MemoryError):
        return str(exc)
    frames = (frame for frame, _ in traceback.walk_tb(exc.__traceback__))
    where = [f.f_code.co_name for f in frames if f.f_globals.get("__package__") == "cuspfem"]
    return f"out of memory in {where[-1]}: {exc}"


def _run_case(config: SweepConfig, prob, eps: float, n: int, k: int) -> ConvergenceRow:
    try:
        mesh = build_mesh(MeshParams(eps, n, k, config.lam))
        diag = validate_mesh(mesh)
        stab, fn = _solve(config, prob, mesh)
        report = error_norms(fn, prob, mesh, stab, config.quad_error)
    except _CASE_ERRORS as exc:
        return ConvergenceRow(eps, n, None, k, error=_case_message(exc))
    return ConvergenceRow(
        eps,
        n,
        mesh.big_k,
        k,
        **vars(report),  # asdict would deep-copy the four floats
        residual_ok=bool(fn.residual <= RESIDUAL_TOL),
        mesh_ok=diag.ok,
        mesh_violation=diag.violations[0] if diag.violations else None,
    )


def run_convergence(config: SweepConfig) -> list[ConvergenceRow]:
    """
    Solve every (eps, k, N) case, one after another on the calling thread,
    and attach rates between consecutive doubled N within each (eps, k)
    group.  Per-case failures land in the row's `error` field and leave the
    other rows untouched.  Each eps's Problem is made, and its lambda_bar
    checked, before any case runs and shared by its cases.
    """
    problems = {eps: _make_problem(config, eps) for eps in dict.fromkeys(config.eps_list)}
    rows = [
        _run_case(config, problems[eps], eps, n, k)
        for eps in config.eps_list for k in config.k_list for n in config.n_list
    ]
    # n_list ascends, so N doubles from one row to the next only inside an
    # (eps, k) group
    for i, (cur, nxt) in enumerate(zip(rows, rows[1:])):
        if nxt.n_half == 2 * cur.n_half and cur.error is None and nxt.error is None:
            rates = {
                f"{m}_rate": convergence_rate(getattr(cur, m), getattr(nxt, m)) for m in NORM_NAMES
            }
            rows[i] = replace(cur, **rates)
    return rows


CONVERGENCE_COLUMNS = ("eps", "N", "K", "k") + tuple(f.name for f in fields(ConvergenceRow)[4:-1])

# the CLI's `solve` layout; family and policy come from the SweepConfig
ERROR_REPORT_COLUMNS = ("eps", "N", "k", "family", "policy") + NORM_NAMES


def convergence_table(rows: list[ConvergenceRow]) -> Table:
    return Table(CONVERGENCE_COLUMNS, tuple(astuple(r)[:-1] for r in rows))


def ratio_table(rows: list[ConvergenceRow], norm: str = "energy") -> Table:
    """
    The error in `norm` (a column of the rows, named so in the table)
    scaled by the predicted decay: entries E * 100 * (N/(K+1))^k.  Stable
    entries across N indicate the predicted rate is sharp.
    """
    data = []
    for r in rows:
        error = getattr(r, norm)
        if r.error is None:
            ratio = error * 100.0 * (r.n_half / (r.big_k + 1)) ** r.order
        else:
            ratio = math.nan
        data.append((r.eps, r.n_half, r.big_k, r.order, error, ratio, r.error))
    return Table(("eps", "N", "K", "k", norm, "ratio", "error"), tuple(data))


def sample_solution(config: SweepConfig, resolution: int = 1001) -> Table:
    """
    Evaluate the discrete and exact solutions at `resolution` equispaced
    points merged with all mesh nodes.  Needs a single (eps, N, k) case.
    """
    eps, n, k = _require_single(config, "sample")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    prob = _make_problem(config, eps)
    if not prob.has_exact:
        raise ValueError("sample_solution needs a problem with exact solution")
    mesh = build_mesh(MeshParams(eps, n, k, config.lam))
    _, fn = _solve(config, prob, mesh)
    xs = np.union1d(np.linspace(-1.0, 1.0, resolution), mesh.nodes)
    uN = fn.evaluate(xs)
    u = prob.solution(xs)[0]
    rows = tuple(zip(xs.tolist(), uN.tolist(), u.tolist(), (uN - u).tolist()))
    return Table(("x", "u_N", "u", "err"), rows)


def _fmt_cell(name: str, value, fmt: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if fmt == "csv":
        return f"{v:.17g}"
    # markdown: 3 significant digits on errors, conventional fixed forms on
    # rates and ratios, compact eps
    if name.endswith("_rate"):
        return f"{v:.3f}"
    if name == "ratio":
        return f"{v:.2f}"
    if name == "eps":
        return f"{v:g}"
    return f"{v:.2e}"


def emit(table: Table, fmt: str = "csv", path=None) -> str:
    """
    Render a table as CSV (17 significant digits) or markdown (3
    significant digits, "|" in a cell escaped as "\\|" and a newline
    turned into a space); write it to `path` when given.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    cells = ([_fmt_cell(c, v, fmt) for c, v in zip(table.columns, row)] for row in table.rows)
    if fmt == "csv":
        # a cell that holds a comma, quote or newline (an error message) is quoted
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([table.columns, *cells])
        text = buf.getvalue()
    else:
        # a cell's "|" (an error message) would split the cell, and its
        # newline would end the row
        rule = ["---"] * len(table.columns)
        text = "".join(
            "| " + " | ".join(c.replace("|", "\\|").replace("\n", " ") for c in row) + " |\n"
            for row in [table.columns, rule, *cells]
        )
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write table to {path}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# command-line interface


class _Parser(argparse.ArgumentParser):
    # config errors exit with 1; argparse's default of 2 is reserved for
    # per-row failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


_FAMILY_NAMES = {"lobatto": "gauss-lobatto"}

# config file keys: the long flag names with "_" for "-"
_CONFIG_KEYS = frozenset(
    "problem lambda eps n k method family c0 delta_policy quad_assembly quad_error_points "
    "quad_error_panels out format workers resolution".split()
)


def _add_common(sp) -> None:
    # unset flags stay None so that SweepConfig and QuadSpec hold the
    # defaults; --out and --format go to emit and save_mesh, not to SweepConfig
    sp.add_argument("--config", help="JSON file with the same keys as the flags; flags override")
    sp.add_argument("--problem", choices=problem_names())
    sp.add_argument("--eps", dest="eps_list", type=_floats, metavar="E1[,E2,...]")
    sp.add_argument("--lambda", dest="lam", type=float, metavar="LAM")
    sp.add_argument(
        "--n", dest="n_list", type=_ints, metavar="N1[,N2,...]", help="intervals per half-mesh"
    )
    sp.add_argument("--k", dest="k_list", type=_ints, metavar="K1[,K2,...]", help="polynomial orders")
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument(
        "--family",
        type=lambda name: _FAMILY_NAMES.get(name, name),
        choices=("uniform", "lobatto", "gauss-lobatto"),
    )
    sp.add_argument("--c0", type=float)
    sp.add_argument("--delta-policy", choices=DELTA_POLICIES)
    sp.add_argument("--quad-assembly", type=int, help="Gauss points per element (0 = k+3)")
    sp.add_argument(
        "--quad-error-points", dest="points", type=int,
        help="error-norm Gauss points per panel, raised to k+3 (default 5)",
    )
    sp.add_argument(
        "--quad-error-panels", dest="panels", type=int,
        help="most error-norm panels on any element; each panel spans at most "
        "half of |x| + sqrt(eps) (default 8)",
    )
    sp.add_argument("--out", help="output file path")
    sp.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")
    # cases run one after another on the calling thread; the flag stays, taking
    # only 1, for callers that still pass it
    sp.add_argument("--workers", type=int, choices=(1,))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cuspfem", description="layer-adapted FEM/SDFEM experiment driver")
    sub = p.add_subparsers(dest="command", required=True)
    specs = (
        ("mesh", "build and validate one mesh; print its header"),
        ("solve", "solve one case and report its error norms"),
        ("converge", "convergence table with rates over an N sweep"),
        ("eps-sweep", "error table over a grid of eps values"),
        ("ratio", "scaled-error ratio table E*100*(N/(K+1))^k, E in the method's norm"),
        ("sample", "sample discrete/exact solution for plotting"),
    )
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "eps-sweep":
            sp.set_defaults(
                eps_list=(1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14),
                n_list=(512, 1024),
                k_list=(1, 2, 3, 4),
            )
        if name == "sample":
            sp.add_argument("--resolution", type=int, default=1001, help="equispaced sample points")
    return p


def _config_flags(path: str, verb: str) -> list[str]:
    """The config file as `--key=value` flags: lists comma-joined, null
    values dropped, and `resolution` only for the verb that has it."""
    import json

    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(conf, dict):
        raise ValueError(f"cannot read config {path}: expected a JSON object")
    unknown = set(conf) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return [
        f"--{key.replace('_', '-')}=" + (",".join(map(str, v)) if isinstance(v, list) else str(v))
        for key, v in conf.items()
        if v is not None and (key != "resolution" or verb == "sample")
    ]


def _require_single(config: SweepConfig, verb: str) -> tuple[float, int, int]:
    if len(config.eps_list) != 1 or len(config.n_list) != 1 or len(config.k_list) != 1:
        raise ValueError(f"{verb} needs exactly one --eps, one --n and one --k")
    return config.eps_list[0], config.n_list[0], config.k_list[0]


def _cmd_mesh(config: SweepConfig, args: argparse.Namespace) -> int:
    import json

    eps, n, k = _require_single(config, "mesh")
    mesh = build_mesh(MeshParams(eps, n, k, config.lam))
    diag = validate_mesh(mesh)
    print(json.dumps(mesh_header(mesh)))
    if args.out:
        save_mesh(mesh, args.out)
    if not diag.ok:
        for v in diag.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    print(f"valid: {mesh.n_intervals} intervals, max length {diag.max_length:.6g}")
    return 0


def _print_table(args: argparse.Namespace, table: Table, failures=()) -> int:
    """Emit the table in --format (to stdout when there is no --out),
    report each failure on stderr, and return the exit code."""
    text = emit(table, args.fmt, args.out)
    if args.out is None:
        print(text, end="")
    for msg in failures:
        print(f"row failure: {msg}", file=sys.stderr)
    return 2 if failures else 0


def _layout(verb: str, config: SweepConfig, rows: list[ConvergenceRow]) -> Table:
    """The table that a row verb prints for the rows of `run_convergence`."""
    norm = _BOUND_NORMS[config.method]
    if verb == "converge":
        return convergence_table(rows)
    if verb == "ratio":
        return ratio_table(rows, norm)
    if verb == "solve":
        policy = config.delta_policy if config.method == "sdfem" else "none"
        return Table(
            ERROR_REPORT_COLUMNS,
            tuple(
                (r.eps, r.n_half, r.order, config.family, policy)
                + tuple(getattr(r, m) for m in NORM_NAMES)
                for r in rows
            ),
        )
    # eps-sweep: one line per eps and one column per (k, N), the order of the rows
    columns = ("eps",) + tuple(f"k{k}_n{n}" for k in config.k_list for n in config.n_list)
    width = len(columns) - 1
    data = tuple(
        (eps, *(getattr(r, norm) for r in rows[i * width : (i + 1) * width]))
        for i, eps in enumerate(config.eps_list)
    )
    return Table(columns, data)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's flags go before the command line's, so those win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args.command) + argv[1:])
        given = {key: v for key, v in vars(args).items() if v is not None}
        quad = QuadSpec(**{key: given[key] for key in ("points", "panels") if key in given})
        settings = {f.name: given[f.name] for f in fields(SweepConfig) if f.name in given}
        config = SweepConfig(quad_error=quad, **settings)
        if args.command == "mesh":
            return _cmd_mesh(config, args)
        if args.command == "sample":
            return _print_table(args, sample_solution(config, args.resolution))
        if args.command == "solve":
            _require_single(config, "solve")
        rows = run_convergence(config)
        failures = [r.error for r in rows if r.error is not None]
        code = _print_table(args, _layout(args.command, config, rows), failures)
        if args.command != "converge":  # converge's rows have a mesh_ok column
            for r in rows:
                if r.mesh_violation is not None:
                    print(
                        f"mesh violation: eps {r.eps!r}, N {r.n_half}, k {r.order}: "
                        f"{r.mesh_violation}",
                        file=sys.stderr,
                    )
        return code
    except _CASE_ERRORS as exc:  # mesh and sample; MeshConstructionError is a ValueError
        print(f"error: {_case_message(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

