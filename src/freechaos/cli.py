"""Command-line front end: enumeration, moments, identities, and experiments.

Every failure path prints one machine-parsable line `error:<code>: <message>`
to stderr and exits nonzero. JSON output is key-sorted with a fixed indent,
so identical configurations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chaos import ENGINES, moment_report
from .errors import (
    GridMismatchError,
    GroundSetMismatchError,
    IdentityMismatchError,
    MirrorSymmetryError,
    SizeLimitError,
)
from .kernels import GridKernel, load_kernel
from .partitions import _require_nc_enum_ground, bell, catalan, enumerate_nc, nc0_classes, riordan
# unused here since nc counts in closed form; tracing wraps cli.enumerate_partitions
from .partitions import enumerate_partitions  # noqa: F401
from .records import require_finite, rows_to_csv
from .theorems import (
    convergence_experiment,
    fourth_moment_identity,
    hyperdiagonal_family,
    indicator_family,
    perturbed_indicator_family,
    transfer_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


class UsageError(Exception):
    pass


def build_parser() -> _Parser:
    parser = _Parser(prog="freechaos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, formats: tuple[str, str]) -> None:
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_nc = sub.add_parser("nc", help="count or list non-crossing partitions and diagram classes")
    p_nc.add_argument("--n", type=int, help="ground-set size for plain counting")
    p_nc.add_argument("--m", type=int, help="number of kernel copies for class counting")
    p_nc.add_argument("--q", type=int, help="kernel arity for class counting")
    p_nc.add_argument("--classes", action="store_true", help="count the diagram classes for (m, q)")
    p_nc.add_argument(
        "--list", dest="listing", action="store_true", help="include the partitions themselves (JSON only)"
    )
    common(p_nc, ("text", "json"))

    p_r = sub.add_parser("riordan", help="no-singleton non-crossing partition counts by block count")
    p_r.add_argument("--m", type=int, required=True)
    common(p_r, ("text", "json"))

    p_mom = sub.add_parser("moments", help="moments of a chaos integral next to the law oracle")
    p_mom.add_argument("--m", type=int, required=True, help="moment order")
    p_mom.add_argument("--method", choices=ENGINES["poisson"] + ("all",), default="diagram")
    p_mom.add_argument("--measure", choices=tuple(ENGINES), default="poisson")
    _kernel_flags(p_mom)
    common(p_mom, ("json", "csv"))

    p_id = sub.add_parser("identity", help="fourth-moment norm decomposition for one kernel")
    _kernel_flags(p_id)
    common(p_id, ("json", "csv"))

    p_conv = sub.add_parser("converge", help="statistic and moment gaps along a kernel family")
    p_conv.add_argument("--family", choices=("indicator", "perturbed-indicator", "hyperdiagonal"), required=True)
    p_conv.add_argument("--steps", type=int, default=8)
    p_conv.add_argument("--M", dest="max_order", type=int, default=5, help="largest moment order tracked")
    p_conv.add_argument("--q", type=int, help="arity for the hyperdiagonal family (default 2)")
    p_conv.add_argument("--bins", type=int, default=4)
    p_conv.add_argument("--cell-width", type=float, default=1.0)
    p_conv.add_argument("--eps0", type=float, help="for the perturbed-indicator family (default 0.5)")
    p_conv.add_argument("--rho", type=float, help="for the perturbed-indicator family (default 0.5)")
    p_conv.add_argument("--seed", type=int, help="for the perturbed-indicator family (default 0)")
    p_conv.add_argument("--tol", type=float, default=1e-2, help="final-gap threshold")
    common(p_conv, ("json", "csv"))

    p_tr = sub.add_parser("transfer", help="moments under both product rules next to both laws")
    p_tr.add_argument("--M", dest="max_order", type=int, required=True)
    _kernel_flags(p_tr)
    common(p_tr, ("json", "csv"))

    return parser


def _kernel_flags(p: _Parser) -> None:
    p.add_argument("--kernel", dest="kernel_path", default=None, help="kernel JSON file")
    p.add_argument("--family", choices=("indicator", "random"), help="without --kernel (default indicator)")
    p.add_argument("--q", type=int, help="arity for the random family (default 1)")
    p.add_argument("--bins", type=int, help="without --kernel (default 8)")
    p.add_argument("--cell-width", type=float, help="without --kernel (default 1.0)")
    p.add_argument("--seed", type=int, help="for the random family (default 0)")


# The flags below default to None, so that one set to its default value is
# still seen as set. Each source reads some of them; _settle refuses the rest.
_KERNEL_DEFAULTS = {"family": "indicator", "q": 1, "bins": 8, "cell_width": 1.0, "seed": 0}
_KERNEL_READS = {"indicator": ("family", "bins", "cell_width"), "random": tuple(_KERNEL_DEFAULTS)}
_CONVERGE_DEFAULTS = {"q": 2, "eps0": 0.5, "rho": 0.5, "seed": 0}
_CONVERGE_READS = {"indicator": (), "perturbed-indicator": ("eps0", "rho", "seed"), "hyperdiagonal": ("q",)}


def _settle(cfg: argparse.Namespace, defaults: dict, read: tuple[str, ...], source: str) -> None:
    """Refuse a flag that was set but that the source does not read, then fill
    in the default of each flag left unset."""
    for name, value in defaults.items():
        if getattr(cfg, name) is None:
            setattr(cfg, name, value)
        elif name not in read:
            raise UsageError(f"--{name.replace('_', '-')} is not read {source}")


def _resolve_kernel(cfg: argparse.Namespace) -> GridKernel:
    if cfg.kernel_path is not None:
        _settle(cfg, _KERNEL_DEFAULTS, (), "with --kernel")
        return load_kernel(cfg.kernel_path)
    family = cfg.family or _KERNEL_DEFAULTS["family"]
    _settle(cfg, _KERNEL_DEFAULTS, _KERNEL_READS[family], f"by --family {family}")
    if cfg.family == "random":
        return GridKernel.random_mirror_symmetric(cfg.q, cfg.bins, cfg.cell_width, cfg.seed)
    return GridKernel.indicator(cfg.bins, cfg.cell_width)


def _emit(text: str, cfg: argparse.Namespace) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_nc(cfg: argparse.Namespace) -> str:
    # the text format prints counts only, so a listing it would drop is never built
    if cfg.listing and cfg.fmt != "json":
        raise UsageError("nc --list needs --format json")
    if cfg.classes:
        if cfg.n is not None:
            raise UsageError("nc --classes reads --m and --q, not --n")
        if cfg.m is None or cfg.q is None:
            raise UsageError("nc --classes needs --m and --q")
        pairings, big, ge2 = nc0_classes(cfg.m, cfg.q)
        payload = {
            "m": cfg.m,
            "q": cfg.q,
            "pairings": len(pairings),
            "blocks_gt2": len(big),
            "blocks_ge2": len(ge2),
        }
        if cfg.listing:
            payload["classes"] = {
                "pairings": [p.to_lists() for p in pairings],
                "blocks_gt2": [p.to_lists() for p in big],
                "blocks_ge2": [p.to_lists() for p in ge2],
            }
        if cfg.fmt == "json":
            return _json(payload)
        return (
            f"(m={cfg.m}, q={cfg.q}): {len(pairings)} pairings, "
            f"{len(big)} with blocks > 2, {len(ge2)} with blocks >= 2\n"
        )
    if cfg.m is not None or cfg.q is not None:
        raise UsageError("nc reads --m and --q only with --classes")
    if cfg.n is None:
        raise UsageError("nc needs --n, or --classes with --m and --q")
    # counts come in closed form; only --list builds partitions
    _require_nc_enum_ground(cfg.n)
    noncrossing = catalan(cfg.n)
    total = bell(cfg.n)
    payload: dict = {"n": cfg.n, "noncrossing": noncrossing, "total": total}
    if cfg.listing:
        payload["partitions"] = [p.to_lists() for p in enumerate_nc(cfg.n)]
    if cfg.fmt == "json":
        return _json(payload)
    return f"{noncrossing} non-crossing of {total} total\n"


def cmd_riordan(cfg: argparse.Namespace) -> str:
    table = riordan(cfg.m)
    if cfg.fmt == "json":
        return _json({"m": table.m, "counts": {str(j): c for j, c in table.counts}, "total": table.total})
    parts = [f"R_{{{table.m},{j}}}={c}" for j, c in table.counts]
    parts.append(f"R_{table.m}={table.total}")
    return " ".join(parts) + "\n"


def cmd_moments(cfg: argparse.Namespace) -> str:
    f = _resolve_kernel(cfg)
    methods = ENGINES[cfg.measure] if cfg.method == "all" else (cfg.method,)
    reports = [moment_report(f, cfg.m, method, cfg.measure).to_dict() for method in methods]
    if cfg.fmt == "csv":
        return rows_to_csv(reports)
    return _json(reports if len(reports) > 1 else reports[0])


def cmd_identity(cfg: argparse.Namespace) -> str:
    report = fourth_moment_identity(_resolve_kernel(cfg))
    if cfg.fmt == "csv":
        return report.to_csv()
    return _json(report.to_dict())


def cmd_converge(cfg: argparse.Namespace) -> str:
    _settle(cfg, _CONVERGE_DEFAULTS, _CONVERGE_READS[cfg.family], f"by --family {cfg.family}")
    if cfg.family == "indicator":
        family = indicator_family(cfg.bins, cfg.cell_width)
    elif cfg.family == "perturbed-indicator":
        family = perturbed_indicator_family(cfg.bins, cfg.cell_width, cfg.eps0, cfg.rho, cfg.seed)
    else:
        if cfg.bins < 1:
            raise ValueError(f"bins must be >= 1, got {cfg.bins}")
        if not 0 < cfg.cell_width < np.inf:
            raise ValueError(f"cell_width must be > 0 and finite, got {cfg.cell_width}")
        family = hyperdiagonal_family(cfg.q, require_finite("bins * cell_width", cfg.bins * cfg.cell_width))
    series = convergence_experiment(family, cfg.steps, cfg.max_order, cfg.tol)
    if cfg.fmt == "csv":
        return series.to_csv()
    return _json(series.to_dict())


def cmd_transfer(cfg: argparse.Namespace) -> str:
    report = transfer_experiment(_resolve_kernel(cfg), cfg.max_order)
    if cfg.fmt == "csv":
        return report.to_csv()
    return _json(report.to_dict())


_COMMANDS = {
    "nc": cmd_nc,
    "riordan": cmd_riordan,
    "moments": cmd_moments,
    "identity": cmd_identity,
    "converge": cmd_converge,
    "transfer": cmd_transfer,
}

_ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (SizeLimitError, "size-limit"),
    (GridMismatchError, "grid-mismatch"),
    (GroundSetMismatchError, "ground-set-mismatch"),
    (MirrorSymmetryError, "mirror-symmetry"),
    (IdentityMismatchError, "identity-mismatch"),
    (json.JSONDecodeError, "io"),
    (ValueError, "domain"),
    (OSError, "io"),
)


def _fail(code: str, message: str) -> int:
    line = " ".join(str(message).split())
    sys.stderr.write(f"error:{code}: {line}\n")
    return 2 if code == "usage" else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a value past the float range ends the run with an error line, not a warning and inf
        with np.errstate(over="raise", invalid="raise"):
            text = _COMMANDS[args.command](args)
        _emit(text, args)
        return 0
    except UsageError as exc:
        return _fail("usage", str(exc))
    except (FloatingPointError, OverflowError) as exc:  # numpy under the errstate, or Python float arithmetic
        return _fail("domain", f"outside the float range: {exc}")
    except Exception as exc:  # noqa: BLE001 - map everything to the error contract
        for etype, code in _ERROR_CODES:
            if isinstance(exc, etype):
                return _fail(code, str(exc))
        raise


if __name__ == "__main__":
    sys.exit(main())
