"""Command-line entry point.

Subcommands and the options each one reads:

- ``group info``: ``--spec``, ``--one-based``, ``--out``
- ``design``: ``--spec``, ``--out``, ``--dot``
- ``check equivariance``: ``--spec``, ``--seed``, ``--trials``, ``--tolerance``, ``--out``
- ``certify unique``: ``--spec``, ``--seed``, ``--cap``, ``--node-budget``, ``--one-based``,
  ``--out``
- ``export dot``: ``--spec``, ``--dot``

An option the chosen subcommand does not read is a usage error. The parser is
built once, at import. Exit codes: 0 success / check passed, 1 check failed
(non-equivariant, or certification found a supergroup), 2 usage or spec
errors. Machine outputs are always 0-based; --one-based only changes the
human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import autsearch, layer, permcore, specio
from .autsearch import AutSearchError
from .designs import DesignError
from .layer import LayerError
from .permcore import GroupError, format_cycles
from .specio import REPORT_SCHEMA, SpecError


_OPTIONS = {
    "--spec": {"required": True, "help": "path to a problem-spec JSON document"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed for randomized checks"},
    "--trials": {"type": int, "default": layer.DEFAULT_TRIALS,
                 "help": "random inputs per group element"},
    "--tolerance": {"type": float, "default": layer.DEFAULT_TOLERANCE,
                    "help": "max |residual| for the float check"},
    "--cap": {"type": int, "default": autsearch.DEFAULT_ELEMENT_CAP,
              "help": "certify's automorphism element cap (the spec's order_cap caps |G|)"},
    "--node-budget": {"type": int, "default": autsearch.DEFAULT_NODE_BUDGET,
                      "help": "max n_size + m_size admitted to the automorphism search"},
    "--out": {"help": "write the JSON document to this file"},
    "--dot": {"help": "write the DOT rendering to this file"},
    "--one-based": {"action": "store_true",
                    "help": "display indices 1-based (files stay 0-based)"},
}


class _SubcommandParser(argparse.ArgumentParser):
    """A family's or subcommand's parser: it reports the options it does not take.

    argparse hands a subparser's leftover arguments up to the root parser,
    whose error would show the root usage line instead of this one.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _command(sub, name: str, summary: str, run: str, flags: tuple[str, ...]):
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])
    # main looks the runner up by name, so a wrapper set on the module attribute
    # (bench/run.py --trace 1) is the one called
    p.set_defaults(run=run)


def _family(sub, name: str, summary: str):
    return sub.add_parser(name, help=summary).add_subparsers(dest="subcommand", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqtie",
        description="Compile, verify, and certify parameter-sharing structures "
        "for group-equivariant layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    _command(_family(sub, "group", "group and action diagnostics"), "info",
             "order, orbits, and action profiles", "_run_group_info",
             ("--spec", "--one-based", "--out"))
    _command(sub, "design", "compile the sharing structure to a mask export", "_run_design",
             ("--spec", "--out", "--dot"))
    _command(_family(sub, "check", "verification commands"), "equivariance",
             "replay the commutation checks", "_run_check",
             ("--spec", "--seed", "--trials", "--tolerance", "--out"))
    _command(_family(sub, "certify", "certification commands"), "unique",
             "enumerate aut and compare to the joint group", "_run_certify",
             ("--spec", "--seed", "--cap", "--node-budget", "--one-based", "--out"))
    _command(_family(sub, "export", "diagram exports"), "dot",
             "graphviz rendering of the structure", "_run_export_dot", ("--spec", "--dot"))
    return parser


def _load_spec(args) -> specio.ProblemSpec:
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        raise SpecError("$", f"cannot read spec file: {exc}") from None
    return specio.parse_spec(text)


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _action_summary(name, action):
    profile = permcore.classify_action(action)
    orbit_part = permcore.orbits(action)
    return {
        "name": name,
        "size": action.target_size,
        "orbit_count": orbit_part.orbit_count,
        "orbits": [orbit_part.members(o) for o in range(orbit_part.orbit_count)],
        "representatives": list(orbit_part.representatives),
        "faithful": profile.faithful,
        "transitive": profile.transitive,
        "semi_regular": profile.semi_regular,
        "regular": profile.regular,
        "kernel_size": profile.kernel_size,
        "image_order": profile.image_order,
    }


def _run_group_info(args) -> int:
    spec = _load_spec(args)
    joint = spec.joint
    summaries = [
        _action_summary("n_action", spec.n_action),
        _action_summary("m_action", spec.m_action),
    ]
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "group_info",
        "group_order": spec.group.order,
        "group_degree": spec.group.degree,
        "joint_order": joint.joint_order,
        "actions": summaries,
    }
    lines = [
        f"group: order {spec.group.order}, degree {spec.group.degree}",
        f"joint pairing: order {joint.joint_order}",
    ]
    off = 1 if args.one_based else 0
    for s in summaries:
        orbits = [[i + off for i in members] for members in s["orbits"]]
        flags = ", ".join(
            k for k in ("faithful", "transitive", "semi_regular", "regular") if s[k]
        ) or "none of faithful/transitive/semi-regular"
        lines.append(
            f"{s['name']}: size {s['size']}, {s['orbit_count']} orbit(s) {orbits}, "
            f"kernel {s['kernel_size']}, image order {s['image_order']} [{flags}]"
        )
    if args.one_based:
        lines.append("(indices displayed 1-based)")
    if args.out:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    print("\n".join(lines))
    return 0


def _run_design(args) -> int:
    spec = _load_spec(args)
    structure = specio.build_structure(spec)
    doc = specio.build_mask_document(spec, structure, certification=None)
    _emit(args, specio.dump_mask(doc))
    if args.dot:
        Path(args.dot).write_text(specio.to_dot(structure, spec.mode == "digraph"))
    return 0


def _run_check(args) -> int:
    spec = _load_spec(args)
    structure = specio.build_structure(spec)
    tied = layer.tied_layer_from_structure(structure)
    report = layer.check_equivariance(
        tied, specio.expanded_joint(spec),
        trials=args.trials, tolerance=args.tolerance, seed=args.seed,
    )
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "equivariance",
        "tested_elements": report.tested_elements,
        "trials": report.trials,
        "max_residual": report.max_residual,
        "exact_pass": report.exact_pass,
        "tolerance": report.tolerance,
        "seed": report.seed,
        "passed": report.passed,
    }
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0 if report.passed else 1


def _run_certify(args) -> int:
    spec = _load_spec(args)
    structure = specio.build_structure(spec)
    cert = autsearch.certify_unique(
        structure, specio.expanded_joint(spec),
        node_budget=args.node_budget, element_cap=args.cap,
    )
    witness = None
    if cert.witness is not None:
        witness = [format_cycles(cert.witness[0]), format_cycles(cert.witness[1])]
    block = {
        "verdict": cert.verdict,
        "aut_order": cert.aut_order,
        "joint_order": cert.joint_order,
        "witness": witness,
        "seed": args.seed,
        "element_cap": args.cap,
        "node_budget": args.node_budget,
    }
    doc = specio.build_mask_document(spec, structure, certification=block)
    _emit(args, specio.dump_mask(doc))
    if cert.verdict == "unique":
        print(f"unique: aut order {cert.aut_order} = joint order {cert.joint_order}",
              file=sys.stderr)
        return 0
    wn, wm = cert.witness
    print(
        f"supergroup: aut order {cert.aut_order} > joint order {cert.joint_order}; "
        f"witness pi_N={format_cycles(wn, args.one_based)} "
        f"pi_M={format_cycles(wm, args.one_based)}",
        file=sys.stderr,
    )
    return 1


def _run_export_dot(args) -> int:
    spec = _load_spec(args)
    structure = specio.build_structure(spec)
    text = specio.to_dot(structure, spec.mode == "digraph")
    if args.dot:
        Path(args.dot).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return globals()[args.run](args)
    except (SpecError, GroupError, DesignError, LayerError, AutSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
