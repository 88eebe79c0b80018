"""Command-line interface: classification, enumeration, posets, figures.

Output is deterministic: fixed orderings everywhere, rationals rendered as
"a/b" in lowest terms with positive denominator, never floats.  Exit codes:
2 for flag errors (argparse, a negative --cap, and a negative
orbit-closure --bound or one whose brute-force walk would exceed 10^6
exponent vectors) and for an --input or --output file that cannot be
opened, 3 for invalid or infeasible mathematical input, 4 when an
enumeration cap is exceeded, 5 when an internal correctness check fails
(a stratum witness that does not carry its candidate, a Grassmannian
support pair outside the coupling cases); each prints one ``error: ...``
line on stderr.

``--cap N`` (enumerate, poset, components) counts the realizable
candidates (alpha, I, beta, J) the stratum search finds, before they are
merged into strata; the run stops with exit 4 as soon as it finds more
than N, so the cap bounds the work.

``orbit-closure --brute-force --bound N`` on a subspace of k^n walks the
(2N+1)^n exponent vectors with entries in [-N, N]; a walk of more than
10^6 vectors is refused with exit 2 before it starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from . import fan, grassmann, poset as poset_mod, strata, weier
from .model import (
    CurveConfig,
    build_model,
    intersection_matrix,
    multidegree_of_twisted_dualizing,
    twist_divisor_focus_X,
    twist_divisor_focus_Y,
)
from .numdata import associated_data
from .strata import CapExceeded

_MAX_WALK = 10 ** 6  # exponent vectors one orbit-closure --brute-force may walk


def qstr(x) -> str:
    f = x if type(x) is Fraction else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _qstr_over(n: int, t: int) -> str:
    """``qstr`` of n / t for integers n >= 0 and t > 0, reduced by one gcd."""
    g = gcd(n, t)
    return f"{n // g}/{t // g}"


def parse_q(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in '{text}'") from None


def parse_mu(text: str):
    return tuple(parse_q(part) for part in text.split(","))


def _labels(args, delta):
    if getattr(args, "labels", None):
        labels = tuple(args.labels.split(","))
    else:
        labels = tuple(f"p{i+1}" for i in range(delta))
    if len(labels) != delta:
        raise ValueError("labels length must match delta")
    return labels


def _config(args, delta) -> CurveConfig:
    return CurveConfig(g_x=args.gx, g_y=args.gy, delta=delta, labels=_labels(args, delta))


class _PathError(Exception):
    """An --input or --output path that cannot be opened (exit 2)."""


def _open(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise _PathError(f"can't open '{path}': {exc.strerror}") from exc


def _emit(args, text: str) -> None:
    out = getattr(args, "output", "-") or "-"
    if out == "-":
        sys.stdout.write(text)
    else:
        with _open(out, "w") as handle:
            handle.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _numdata_obj(labels, data):
    return {
        "labels": list(labels),
        "alpha": list(data.alpha),
        "rho": [qstr(r) for r in data.rho],
        "I": [labels[p] for p in sorted(data.I)],
        "level": qstr(data.level),
    }


def stratum_obj(config: CurveConfig, s, include_dims: bool = True):
    """The JSON object of a stratum; its rationals are formatted from the
    integers of the StratumData (the witness m / t and the levels over t)."""
    t = s.t
    obj = {
        "labels": list(config.labels),
        "mu": [_qstr_over(mp, t) for mp in s.m],
        "alpha": list(s.alpha),
        "I": [config.labels[p] for p in sorted(s.I)],
        "beta": list(s.beta),
        "J": [config.labels[p] for p in sorted(s.J)],
        "gamma": _qstr_over(s.c_x, t),
        "epsilon": _qstr_over(s.c_y, t),
        "alpha_tilde": s.alpha_tilde,
        "beta_tilde": s.beta_tilde,
    }
    if include_dims:
        obj.update(strata.stratum_dim(config, s))
    return obj


def stratum_key_from_obj(config: CurveConfig, obj) -> strata.StratumKey:
    """Rebuild the stratum key from a serialized stratum object."""
    pos = {label: p for p, label in enumerate(config.labels)}
    return strata.make_key(
        config,
        tuple(obj["alpha"]),
        frozenset(pos[l] for l in obj["I"]),
        tuple(obj["beta"]),
        frozenset(pos[l] for l in obj["J"]),
    )


def _key_obj(config: CurveConfig, key: strata.StratumKey):
    return {
        "alpha": list(key.alpha),
        "I": None if key.I is None else [config.labels[p] for p in sorted(key.I)],
        "beta": list(key.beta),
        "J": None if key.J is None else [config.labels[p] for p in sorted(key.J)],
    }


def _cmd_numdata(args) -> int:
    mu = parse_mu(args.mu)
    labels = _labels(args, len(mu))
    data = associated_data(mu, args.upsilon)
    obj = _numdata_obj(labels, data)
    if args.format == "text":
        lines = [f"{k}: {v}" for k, v in obj.items()]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, obj)
    return 0


def _cmd_model(args) -> int:
    mu = parse_mu(args.mu)
    config = _config(args, len(mu))
    model = build_model(config, mu)
    data_x = associated_data(mu, config.g_y)
    data_y = associated_data(mu, config.g_x)
    div_x = twist_divisor_focus_X(model, data_x)
    div_y = twist_divisor_focus_Y(model, data_y)
    deg_x = multidegree_of_twisted_dualizing(model, config, div_x)
    deg_y = multidegree_of_twisted_dualizing(model, config, div_y)

    def comp_name(comp):
        if isinstance(comp, tuple):
            return f"Z[{config.labels[comp[1]]},{comp[2]}]"
        return comp

    names = [comp_name(c) for c in model.components]
    obj = {
        "components": names,
        "nodes": [[comp_name(a), comp_name(b)] for a, b in model.nodes],
        "intersection_matrix": intersection_matrix(model),
        "multidegree_focus_x": {comp_name(c): d for c, d in deg_x.degrees},
        "multidegree_focus_y": {comp_name(c): d for c, d in deg_y.degrees},
        "total_degree": deg_x.total,
    }
    if args.format == "text":
        lines = ["components: " + " ".join(names)]
        lines.append("intersection matrix:")
        for name, row in zip(names, obj["intersection_matrix"]):
            lines.append(f"  {name:>10} " + " ".join(f"{v:>3}" for v in row))
        lines.append("degrees (focus X): " + " ".join(f"{n}={d}" for n, d in obj["multidegree_focus_x"].items()))
        lines.append("degrees (focus Y): " + " ".join(f"{n}={d}" for n, d in obj["multidegree_focus_y"].items()))
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, obj)
    return 0


def _cmd_stratum(args) -> int:
    mu = parse_mu(args.mu)
    config = _config(args, len(mu))
    s = strata.stratum_of(config, mu)
    _emit_json(args, stratum_obj(config, s))
    return 0


def _cmd_enumerate(args) -> int:
    config = _config(args, args.delta)
    found = strata.enumerate_strata(config, cap=args.cap)
    obj = [stratum_obj(config, s) for s in found]
    if args.format == "text":
        lines = []
        for entry in obj:
            lines.append(
                f"alpha={entry['alpha']} I={entry['I']} beta={entry['beta']} "
                f"J={entry['J']} dim={entry['dim']} mu={entry['mu']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, obj)
    return 0


def _cmd_region(args) -> int:
    mu = parse_mu(args.mu)
    config = _config(args, len(mu))
    s = strata.stratum_of(config, mu)
    desc = strata.region(config, s)
    obj = {
        "base": config.labels[desc.base_index],
        "note": desc.note,
        "constraints": [
            {"coeffs": list(c.coeffs), "relation": "= 0" if c.relation == "eq" else "> 0"}
            for c in desc.constraints
        ],
        "witness": [_qstr_over(mp, s.t) for mp in s.m],
    }
    _emit_json(args, obj)
    return 0


def _cmd_poset(args) -> int:
    config = _config(args, args.delta)
    found = strata.enumerate_strata(config, cap=args.cap)
    p = poset_mod.build_poset(config, strata=found)
    if args.format == "dot":
        _emit(args, poset_mod.to_dot(p))
        return 0
    obj = {
        "strata": [
            {
                "key": _key_obj(config, k),
                "dim": p.dims[k],
                "closure": [
                    _key_obj(config, o)
                    for o in sorted(p.closure[k], key=strata.StratumKey.sort_token)
                ],
            }
            for k in p.keys
        ]
    }
    _emit_json(args, obj)
    return 0


def _cmd_components(args) -> int:
    config = _config(args, args.delta)
    found = strata.enumerate_strata(config, cap=args.cap)
    p = poset_mod.build_poset(config, strata=found)
    comps = poset_mod.components(config, poset=p)
    formulas = poset_mod.count_formulas(config) if config.delta > 1 else None
    obj = {
        "count": comps["count"],
        "maximal": [_key_obj(config, k) for k in sorted(comps["maximal"], key=strata.StratumKey.sort_token)],
        "formulas": None,
    }
    if formulas is not None:
        obj["formulas"] = {
            "n_delta_g_x": formulas["n_delta_values"]["g_x"],
            "n_delta_g_y": formulas["n_delta_values"]["g_y"],
            "gcd_table": {f"{i},{j}": g for (i, j), g in sorted(formulas["gcd_table"].items())},
            "lower_bound": formulas["lower_bound"],
            "closed_form_delta2": formulas["closed_form_delta2"],
            "statement1_value": formulas["statement1_value"],
        }
    if args.format == "text":
        lines = [f"components: {obj['count']}"]
        if formulas is not None:
            lines.append(f"lower bound: {obj['formulas']['lower_bound']}")
            if obj["formulas"]["closed_form_delta2"] is not None:
                lines.append(f"delta=2 closed form: {obj['formulas']['closed_form_delta2']}")
            if obj["formulas"]["statement1_value"] is not None:
                lines.append(f"equal-genera/one-sided value: {obj['formulas']['statement1_value']}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, obj)
    return 0


def _cmd_weierstrass(args) -> int:
    mu = parse_mu(args.mu)
    config = _config(args, len(mu))
    s = strata.stratum_of(config, mu)
    degs = weier.weierstrass_degrees(config, s)
    obj = {
        "genus": config.genus,
        "stratum_form": {
            "deg_R_X": degs.stratum_form.deg_r_x,
            "deg_R_Y": degs.stratum_form.deg_r_y,
            "node_coeffs": {
                config.labels[p]: c for p, c in enumerate(degs.stratum_form.node_coeffs)
            },
            "total": degs.stratum_form.total,
        },
        "normalized": {
            "deg_R_X": degs.normalized.deg_r_x,
            "deg_R_Y": degs.normalized.deg_r_y,
            "node_coeffs": {
                config.labels[p]: c for p, c in enumerate(degs.normalized.node_coeffs)
            },
            "total": degs.normalized.total,
        },
        "expected_total": config.genus ** 3 - config.genus,
        "note": "degree calculus only; divisor supports need an actual curve",
    }
    _emit_json(args, obj)
    return 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _subspace_from_obj(obj, name: str) -> grassmann.Subspace:
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ValueError(f"{name} must be an object with a 'basis'")
    rows = obj["basis"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(x, str) for x in row) for row in rows
    ):
        raise ValueError(f"{name} basis must be a list of rows of 'a/b' strings")
    ambient = obj.get("ambient")
    if ambient is not None and not _is_int(ambient):
        raise ValueError(f"{name} ambient must be an integer")
    return grassmann.Subspace([[parse_q(x) for x in row] for row in rows], ambient=ambient)


def _labels_from_obj(payload, name: str) -> tuple:
    labels = payload.get(name)
    if not isinstance(labels, list) or not all(isinstance(l, str) or _is_int(l) for l in labels):
        raise ValueError(f"{name} must be a list of node labels")
    return tuple(labels)


def _fingerprint_obj(fp):
    if isinstance(fp, grassmann.PairFingerprint):
        return {
            "support_v": [list(b) for b in fp.support_v],
            "support_w": [list(c) for c in fp.support_w],
            "invariants": [qstr(v) for v in fp.invariants],
        }
    return {
        "support": [list(b) for b in fp.support],
        "invariants": [qstr(v) for v in fp.invariants],
    }


def _cmd_orbit_closure(args) -> int:
    if args.input == "-":
        payload = json.load(sys.stdin)
    else:
        with _open(args.input, "r") as handle:
            payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("the input must be a JSON object")
    if "V" in payload and "W" in payload:
        V = _subspace_from_obj(payload["V"], "V")
        W = _subspace_from_obj(payload["W"], "W")
        I = _labels_from_obj(payload, "I")
        J = _labels_from_obj(payload, "J")
        at = payload.get("alpha_tilde", 1)
        bt = payload.get("beta_tilde", 1)
        if not (_is_int(at) and _is_int(bt)):
            raise ValueError("alpha_tilde and beta_tilde must be integers")
        predicted = grassmann.pair_closure_orbit_set(V, W, at, bt, I, J)
        obj = {
            "mode": "pair",
            "fingerprints": sorted(
                (_fingerprint_obj(fp) for fp in predicted),
                key=lambda o: (o["support_v"], o["support_w"], o["invariants"]),
            ),
        }
        if args.brute_force:
            sampled = grassmann.pair_brute_force_fingerprints(V, W, at, bt, I, J)
            obj["brute_force"] = {
                "sampled_orbits": len(sampled),
                "all_sampled_in_predicted": sampled <= predicted,
                "all_predicted_reached": predicted <= sampled,
            }
    else:
        V = _subspace_from_obj(payload, "the input")
        predicted = grassmann.closure_orbit_set(V)  # refuses an ambient past desk scale
        walk = (2 * args.bound + 1) ** V.ambient
        if args.brute_force and walk > _MAX_WALK:
            print(
                f"error: --bound {args.bound} in k^{V.ambient} walks {walk} exponent vectors, "
                f"more than {_MAX_WALK}",
                file=sys.stderr,
            )
            return 2
        obj = {
            "mode": "single",
            "ambient": V.ambient,
            "dim": V.dim,
            "fingerprints": sorted(
                (_fingerprint_obj(fp) for fp in predicted),
                key=lambda o: (o["support"], o["invariants"]),
            ),
        }
        if args.brute_force:
            sampled = grassmann.brute_force_closure_fingerprints(V, bound=args.bound)
            obj["brute_force"] = {
                "bound": args.bound,
                "sampled_orbits": len(sampled),
                "all_sampled_in_predicted": sampled <= predicted,
                "all_predicted_reached": predicted <= sampled,
            }
    _emit_json(args, obj)
    return 0


def _cmd_fan(args) -> int:
    config = _config(args, args.delta)
    if args.format == "svg":
        _emit(args, fan.emit_fan_svg(config))
        return 0
    data = fan.fan_data(config)
    obj = {"delta": data["delta"]}
    obj["marks"] = [
        {"coords": [qstr(c) for c in coords], "class": cls}
        for coords, cls, _ in data["marks"]
    ]
    if data["delta"] == 3:
        obj["solid"] = [
            [[qstr(a[0]), qstr(a[1])], [qstr(b[0]), qstr(b[1])]] for a, b in data["solid"]
        ]
        obj["dashed"] = [
            [[qstr(a[0]), qstr(a[1])], [qstr(b[0]), qstr(b[1])]] for a, b in data["dashed"]
        ]
    _emit_json(args, obj)
    return 0


def _add_common(sub, mu=False, delta=False, genera=True):
    if genera:
        sub.add_argument("--gx", type=int, required=True, help="arithmetic genus of X")
        sub.add_argument("--gy", type=int, required=True, help="arithmetic genus of Y")
    if mu:
        sub.add_argument("--mu", required=True, help="comma-separated weights, e.g. 1,3/2,2")
    if delta:
        sub.add_argument("--delta", type=int, required=True, help="number of nodes")
    sub.add_argument("--labels", help="comma-separated node labels")
    sub.add_argument("--output", default="-", help="output path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitcanon",
        description="Stratification of limit canonical systems on two-component nodal curves",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("numdata", help="solve the numerical data for (mu, upsilon)")
    _add_common(p, mu=True, genera=False)
    p.add_argument("--upsilon", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_numdata)

    p = subs.add_parser("model", help="dual graph, intersection matrix, multidegrees")
    _add_common(p, mu=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_model)

    p = subs.add_parser("stratum", help="classify a weight vector")
    _add_common(p, mu=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_stratum)

    p = subs.add_parser("enumerate", help="enumerate all strata")
    _add_common(p, delta=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("region", help="defining constraints of a stratum's weight region")
    _add_common(p, mu=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_region)

    p = subs.add_parser("poset", help="closure poset of all strata")
    _add_common(p, delta=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_poset)

    p = subs.add_parser("components", help="irreducible components and count formulas")
    _add_common(p, delta=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_components)

    p = subs.add_parser("weierstrass", help="limit Weierstrass divisor degrees")
    _add_common(p, mu=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_weierstrass)

    p = subs.add_parser("orbit-closure", help="torus orbit closure fingerprints")
    p.add_argument("--input", required=True, help="JSON subspace (or pair) path, '-' for stdin")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--output", default="-")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_orbit_closure)

    p = subs.add_parser("fan", help="decomposition figure for delta 2 or 3")
    _add_common(p, delta=True)
    p.add_argument("--format", choices=["svg", "json"], default="svg")
    p.set_defaults(func=_cmd_fan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("cap", "bound"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"error: --{flag} must be non-negative, got {value}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except _PathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
