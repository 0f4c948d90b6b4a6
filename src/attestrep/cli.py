"""Command-line surface for authors (pack, run, attest, verify, submit) and
operators (portal serve, econ, report).

Exit codes: 0 success or Accept, 1 domain failure or Reject, 2 usage error.
Human-readable output by default; ``--json`` switches to canonical JSON.
The econ calculators print JSON always (pretty by default, canonical with
``--json``).

Environment: ``ATTESTREP_STORE`` default portal store path,
``ATTESTREP_ROOTS`` comma-separated trusted root key hexes. Flags override
the environment.

Each command imports what it runs when it runs: ``verify`` loads the
verifier, never the runner, the portal, the archive reader or HTTP code,
and without ``--archive-dir`` not ``package_model`` or ``pathlib`` either.
Only the named command's parser is built; help, a missing command and an
unknown one get every command's.

Float options are finite (``econ``) or seconds >= 0 (``--max-seconds``);
any other text, ``nan`` included, is a usage error before anything runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from attestrep import AttestrepError


class UsageError(Exception):
    """Malformed invocation beyond what argparse catches itself."""


def _hex_bytes(length: int):
    def convert(text: str) -> bytes:
        raw = bytes.fromhex(text)
        if len(raw) != length:
            raise argparse.ArgumentTypeError(f"expected {length} bytes of hex, got {len(raw)}")
        return raw

    return convert


def _decimal(text: str):
    """A finite decimal number; any other text is a usage error (NaN compares false with every cost)."""
    from decimal import Decimal, InvalidOperation
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise argparse.ArgumentTypeError(f"expected a finite decimal number, got {text!r}")
    return value


def _float_option(accepts, wanted: str):
    """An argparse type for a float that ``accepts`` takes; ``wanted`` names such a value in the error."""
    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return convert


_finite = _float_option(math.isfinite, "a finite number")
_seconds = _float_option(lambda value: value >= 0, "a number of seconds >= 0")  # NaN compares false: refused


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        from attestrep.canonical import canonical_json_bytes
        sys.stdout.write(canonical_json_bytes(payload).decode("utf-8") + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- author workflow ---------------------------------------------------------


def _cmd_pack(args: argparse.Namespace) -> int:
    from pathlib import Path

    from attestrep.archive import pack_tree
    from attestrep.package_model import digest_package, load_manifest
    load_manifest(args.directory)
    digest = digest_package(args.directory)
    Path(args.output).write_bytes(pack_tree(args.directory))
    print(f"packed {digest.file_count} files ({digest.total_bytes} bytes) -> {args.output}")
    print(f"package digest: {digest.hex}")
    return 0


def _run_package(args: argparse.Namespace):
    import tempfile

    from attestrep.package_model import load_manifest
    from attestrep.runner import execute
    manifest = load_manifest(args.directory)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="attestrep-run-")
    record = execute(args.directory, manifest, work_dir, max_seconds=args.max_seconds)
    return record, work_dir


def _cmd_run(args: argparse.Namespace) -> int:
    record, work_dir = _run_package(args)
    payload = {
        "package_digest": record.package_digest.hex,
        "output_digest": record.output_digest.hex,
        **record.summary().to_dict(),
        "sandbox": str(work_dir),
    }
    if args.json:
        _emit(payload, as_json=True)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0 if record.exit_status == 0 else 1


def _cmd_attest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from attestrep.attestation import DEFAULT_VALIDITY_SECONDS, AttestationProvider, ProviderConfig
    from attestrep.bundle import build_bundle, serialize_bundle
    seed = args.provider_seed if args.provider_seed is not None else os.urandom(32)
    validity = args.validity if args.validity is not None else DEFAULT_VALIDITY_SECONDS
    provider = AttestationProvider(ProviderConfig(root_secret_seed=seed, attestation_validity=validity))
    record, work_dir = _run_package(args)
    bundle = build_bundle(record, provider)
    Path(args.output).write_bytes(serialize_bundle(bundle))
    payload = {
        "bundle": str(args.output),
        "bundle_id": bundle.token,
        "package_digest": bundle.package_digest.hex,
        "output_digest": bundle.output_digest.hex,
        "provider_root": provider.root_public_key.hex(),
        "sandbox": str(work_dir),
    }
    if args.json:
        _emit(payload, as_json=True)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _trust_roots(args: argparse.Namespace) -> list[bytes]:
    if args.root:
        return list(args.root)
    env = os.environ.get("ATTESTREP_ROOTS", "")
    roots = [bytes.fromhex(part.strip()) for part in env.split(",") if part.strip()]
    if not roots:
        raise UsageError("no trust roots: pass --root or set ATTESTREP_ROOTS")
    return roots


def _cmd_verify(args: argparse.Namespace) -> int:
    from attestrep.bundle import parse_bundle
    from attestrep.verifier import verify_against_archive, verify_bundle
    with open(args.bundle, "rb") as fh:
        data = fh.read()
    now = args.now if args.now is not None else int(time.time())
    verdict = verify_bundle(data, _trust_roots(args), now=now)
    if verdict.accepted and (args.archive_digest or args.archive_dir):
        archived = args.archive_digest
        if args.archive_dir:  # only this option needs the tree digest, and with it pathlib and package_model
            from attestrep.package_model import digest_package
            archived = digest_package(args.archive_dir).value
        verdict = verify_against_archive(parse_bundle(data), archived)
    if args.json:
        _emit(verdict.to_dict(), as_json=True)
    elif verdict.accepted:
        print("Accept")
    else:
        print(f"Reject: {verdict.reason} ({verdict.detail})")
    return 0 if verdict.accepted else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import urllib.request
    from pathlib import Path
    data = Path(args.archive).read_bytes()
    request = urllib.request.Request(
        args.portal.rstrip("/") + "/v1/submissions",
        data=data,
        method="POST",
        headers={"X-Author-Id": args.author, "Content-Type": "application/x-tar"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            body = json.loads(response.read().decode("utf-8"))
    except urllib.request.HTTPError as exc:
        print(exc.read().decode("utf-8", "replace"), file=sys.stderr)
        return 1
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


# -- operator workflow ---------------------------------------------------------


def _cmd_portal_serve(args: argparse.Namespace) -> int:
    store = args.store or os.environ.get("ATTESTREP_STORE")
    if not store:
        raise UsageError("no store: pass --store or set ATTESTREP_STORE")
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text.isdigit():
        raise UsageError(f"bad --listen address {args.listen!r}, expected host:port")
    from attestrep.portal.core import Portal
    from attestrep.portal.http import make_server
    portal = Portal(store, provider_seed=args.provider_seed)
    server = make_server(portal, host=host, port=int(port_text))
    actual_host, actual_port = server.server_address[:2]
    print(f"portal root key: {portal.provider.root_public_key.hex()}")
    print(f"serving on http://{actual_host}:{actual_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_econ_comply(args: argparse.Namespace) -> int:
    from attestrep.economics import ComplianceParams, Regime, complies, manipulate_payoff, min_sanction
    params = ComplianceParams(
        publication_value=args.b,
        sanction=args.s,
        scrutiny_probability=args.p,
        catch_probability=args.pi,
        exploit_probability=args.epsilon,
    )
    payload: dict = {}
    for regime in (Regime.MANUAL, Regime.TEE):
        d = params.detection(regime)
        threshold = min_sanction(args.b, d)
        payload[regime.value] = {
            "detection": d,
            "complies": complies(params, regime),
            "min_sanction": "unbounded" if threshold == float("inf") else threshold,
            "manipulate_payoff": manipulate_payoff(params, d),
        }
    _emit(payload, as_json=args.json)
    return 0


def _cmd_econ_adopt(args: argparse.Namespace) -> int:
    from attestrep.economics import AdoptionParams, adoption
    result = adoption(
        AdoptionParams(
            tee_cost_per_accepted=args.c_a,
            manual_cost_per_submission=args.c_j,
            acceptance_rate=args.alpha,
        )
    )
    _emit(result.to_dict(), as_json=args.json)
    return 0


def _cmd_econ_stringency(args: argparse.Namespace) -> int:
    from attestrep.economics import StringencyParams, stringency_optimum
    result = stringency_optimum(
        StringencyParams(cost_scale=args.k, cost_exponent=args.m, benefit_slope=args.b),
        tee_cost=args.tee_cost,
    )
    _emit(result.to_dict(), as_json=args.json)
    return 0


def _cmd_econ_table(args: argparse.Namespace) -> int:
    from attestrep.economics import AdoptionParams, cost_comparison
    table = cost_comparison(
        AdoptionParams(
            tee_cost_per_accepted=args.c_a,
            manual_cost_per_submission=args.c_j,
            acceptance_rate=args.alpha,
        ),
        storage_range=(args.storage_low, args.storage_high),
        tee_cost_range=(args.tee_cost_low, args.tee_cost_high),
    )
    if args.json:
        _emit(table.to_dict(), as_json=True)
    else:
        print(table.render_text())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from attestrep.evaluation import aggregate, ingest_csv, load_fixture, render_text
    data = Path(args.csv).read_bytes() if args.csv else load_fixture()
    report = aggregate(ingest_csv(data))
    if args.json:
        _emit(report.to_dict(), as_json=True)
    else:
        print(render_text(report))
    return 0


# -- parser ---------------------------------------------------------------------


def _add_pack(sub) -> None:
    pack = sub.add_parser("pack", help="archive a package directory")
    pack.add_argument("directory")
    pack.add_argument("-o", "--output", required=True)
    pack.set_defaults(func=_cmd_pack)


def _add_run_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("directory")
    cmd.add_argument("--max-seconds", type=_seconds, default=3600.0)
    cmd.add_argument("--work-dir", default=None)
    cmd.add_argument("--json", action="store_true")


def _add_run(sub) -> None:
    run = sub.add_parser("run", help="execute a package and print the run record")
    _add_run_arguments(run)
    run.set_defaults(func=_cmd_run)


def _add_attest(sub) -> None:
    attest = sub.add_parser("attest", help="execute a package and write a proof bundle")
    _add_run_arguments(attest)
    attest.add_argument("-o", "--output", required=True)
    attest.add_argument("--provider-seed", type=_hex_bytes(32), default=None)
    attest.add_argument("--validity", type=int, default=None)
    attest.set_defaults(func=_cmd_attest)


def _add_verify(sub) -> None:
    verify = sub.add_parser("verify", help="verify a proof bundle")
    verify.add_argument("bundle")
    verify.add_argument("--root", action="append", type=_hex_bytes(32), default=[])
    verify.add_argument("--archive-digest", type=_hex_bytes(32), default=None)
    verify.add_argument("--archive-dir", default=None)
    verify.add_argument("--now", type=int, default=None)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)


def _add_submit(sub) -> None:
    submit = sub.add_parser("submit", help="submit an archive to a portal")
    submit.add_argument("archive")
    submit.add_argument("--portal", required=True)
    submit.add_argument("--author", default="anonymous")
    submit.set_defaults(func=_cmd_submit)


def _add_portal(sub) -> None:
    portal = sub.add_parser("portal", help="portal operations")
    portal_sub = portal.add_subparsers(dest="portal_command", required=True)
    serve = portal_sub.add_parser("serve", help="run the portal HTTP server")
    serve.add_argument("--store", default=None)
    serve.add_argument("--listen", default="127.0.0.1:8080")
    serve.add_argument("--provider-seed", type=_hex_bytes(32), default=None)
    serve.set_defaults(func=_cmd_portal_serve)


def _add_econ(sub) -> None:
    econ = sub.add_parser("econ", help="incentive and adoption calculators")
    econ_sub = econ.add_subparsers(dest="econ_command", required=True)

    comply = econ_sub.add_parser("comply", help="author compliance condition")
    comply.add_argument("--b", type=_finite, required=True, help="publication value B")
    comply.add_argument("--s", type=_finite, required=True, help="sanction S")
    comply.add_argument("--p", type=_finite, default=1.0, help="scrutiny probability")
    comply.add_argument("--pi", type=_finite, default=1.0, help="catch probability given scrutiny")
    comply.add_argument("--epsilon", type=_finite, default=0.0, help="exploit probability")
    comply.add_argument("--json", action="store_true")
    comply.set_defaults(func=_cmd_econ_comply)

    adopt = econ_sub.add_parser("adopt", help="journal adoption condition")
    adopt.add_argument("--c-a", dest="c_a", type=_decimal, required=True, help="cost per accepted paper")
    adopt.add_argument("--c-j", dest="c_j", type=_decimal, required=True, help="manual cost per submission")
    adopt.add_argument("--alpha", type=_decimal, required=True, help="acceptance rate")
    adopt.add_argument("--json", action="store_true")
    adopt.set_defaults(func=_cmd_econ_adopt)

    stringency = econ_sub.add_parser("stringency", help="verification stringency optimum")
    stringency.add_argument("--k", type=_finite, required=True, help="cost scale")
    stringency.add_argument("--m", type=_finite, required=True, help="cost exponent (> 1)")
    stringency.add_argument("--b", type=_finite, required=True, help="benefit slope")
    stringency.add_argument("--tee-cost", type=_decimal, default=None, help="flat full-stringency cost, if available")
    stringency.add_argument("--json", action="store_true")
    stringency.set_defaults(func=_cmd_econ_stringency)

    table = econ_sub.add_parser("table", help="manual vs attested cost comparison")
    table.add_argument("--c-a", dest="c_a", type=_decimal, default="1.57")
    table.add_argument("--c-j", dest="c_j", type=_decimal, default="79")
    table.add_argument("--alpha", type=_decimal, default="0.08")
    table.add_argument("--tee-cost-low", type=_decimal, default="1.35")
    table.add_argument("--tee-cost-high", type=_decimal, default="1.80")
    table.add_argument("--storage-low", type=_decimal, default="0.05")
    table.add_argument("--storage-high", type=_decimal, default="0.30")
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_econ_table)


def _add_report(sub) -> None:
    report = sub.add_parser("report", help="aggregate trial records")
    report.add_argument("--csv", default=None, help="trial CSV (default: bundled fixture)")
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=_cmd_report)


_COMMANDS = {"pack": _add_pack, "run": _add_run, "attest": _add_attest, "verify": _add_verify, "submit": _add_submit,
            "portal": _add_portal, "econ": _add_econ, "report": _add_report}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of the command ``argv`` names, and of no other.

    Help, a missing command and an unknown one get every command's parser,
    so the usage and the error list them all.
    """
    parser = argparse.ArgumentParser(prog="attestrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS:
        _COMMANDS[name](sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # OSError: an unreadable or unwritable file, or an unreachable portal (URLError)
    except (AttestrepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
