"""Tests of the benchmark itself: its checkers must catch corrupted outputs,
and its tracer must see every layer without changing what the CLI writes.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
if str(BENCH.parent / "src") not in sys.path:
    sys.path.append(str(BENCH.parent / "src"))

import checkers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qbrach import cli  # noqa: E402

REFERENCE_BYTES = run.REFERENCE.read_bytes()


def _record(cmd, ledger=None):
    ledger = ledger or checkers.Ledger(log=sys.stdout)
    ledger.record(cmd.label, 0, None, cmd.check)
    return ledger


def _evolve(tmp_path):
    """A short real trajectory (101 rows) written by the CLI."""
    cmd = workloads.evolve(1.3, (0.5, -2.0, 1.25), str(tmp_path), t_end=0.01)
    assert cli.main(cmd.argv) == 0
    return cmd, Path(cmd.outputs[0])


def _report(tmp_path, data: bytes):
    cmd = workloads.report_all(workloads.REFERENCE_SEED, str(tmp_path),
                               {workloads.REFERENCE_SEED: REFERENCE_BYTES})
    Path(cmd.outputs[0]).write_bytes(data)
    return cmd


def test_clean_outputs_pass(tmp_path):
    cmd, _ = _evolve(tmp_path)
    assert _record(cmd).failed == 0
    assert _record(_report(tmp_path, REFERENCE_BYTES)).failed == 0


def test_nan_row_counts_as_failure(tmp_path):
    cmd, path = _evolve(tmp_path)
    lines = path.read_text().splitlines()
    row = lines[50].split(",")
    row[3] = "nan"
    lines[50] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert _record(cmd).failed == 1


def test_truncated_csv_counts_as_failure(tmp_path):
    cmd, path = _evolve(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert _record(cmd).failed == 1


@pytest.mark.parametrize("old,new", [
    ('"verdict": "PASS"', '"verdict": "FAIL"'),
    ('"status": "PASS"', '"status": "FAIL"'),
])
def test_flipped_verdict_counts_as_failure(tmp_path, old, new):
    data = REFERENCE_BYTES.decode().replace(old, new, 1).encode()
    assert data != REFERENCE_BYTES
    assert _record(_report(tmp_path, data)).failed == 1


def test_wrong_report_byte_counts_as_failure(tmp_path):
    # Change one digit of one residual: the report still parses and passes
    # every tolerance, so only the byte comparison can catch it.
    text = REFERENCE_BYTES.decode()
    at = text.index('"residual": ', text.index('"propagator"')) + len('"residual": ') + 2
    assert text[at].isdigit()
    data = (text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]).encode()
    assert len(data) == len(REFERENCE_BYTES) and data != REFERENCE_BYTES
    assert _record(_report(tmp_path, data)).failed == 1


def test_nan_residual_behind_pass_verdict_counts_as_failure(tmp_path):
    cmd = workloads.angmom_conserve(3, str(tmp_path), t_end=0.01)
    assert cli.main(cmd.argv) == 0
    path = Path(cmd.outputs[0])
    assert _record(cmd).failed == 0
    obj = json.loads(path.read_text())
    obj["report"]["spectrum_drift"] = "nan"
    path.write_text(json.dumps(obj))
    assert obj["verdict"] == "PASS"
    assert _record(cmd).failed == 1


def test_negated_compton_residual_counts_as_failure(tmp_path):
    cmd = workloads.closed_form_commands(1, 0, str(tmp_path), {})[2]
    assert cmd.argv[:3] == ["compton", "--rep", "gamma"]
    assert cli.main(cmd.argv) == 0
    assert _record(cmd).failed == 0
    path = Path(cmd.outputs[0])
    lines = path.read_text().splitlines()
    row = lines[10].split(",")
    row[2] = "-1e-3"
    lines[10] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert _record(cmd).failed == 1


def test_failed_exit_or_exception_counts_as_failure():
    ledger = checkers.Ledger(log=sys.stdout)
    ledger.record("exit 1", 1, None, lambda: [])
    ledger.record("raised", None, "RuntimeError: boom", lambda: [])
    assert (ledger.attempted, ledger.failed, ledger.fail_ratio) == (2, 2, 1.0)


def test_accuracy_digits():
    gates = [checkers.Gate("a", 0.0, 1e-12), checkers.Gate("b", 1e-14, 1e-10)]
    assert checkers.accuracy_digits(gates) == pytest.approx(4.0)
    assert checkers.weakest_gate(gates).name == "b"
    assert checkers.accuracy_digits(gates[:1]) == 16.0


def test_self_time_subtracts_child_spans():
    # 0 (10 s) holds 1 (4 s) and 3 (3 s); 1 holds 2 (1 s).
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0])
    assert tracing.self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_wrappers_rebound_where_imported_by_name():
    tr = tracing.Tracer()
    bound = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in tr.bindings}
    for mod in ("matcore", "qbe", "cli"):
        assert (f"qbrach.{mod}", "kron_matrix") in bound
    for mod in ("qbe", "angmom4"):
        assert (f"qbrach.{mod}", "integrate_qbe") in bound
        assert (f"qbrach.{mod}", "conserved_residuals") in bound
    for mod in ("propagate", "frames"):
        for fn in ("majorana_eigenframe", "propagator", "evolve_hamiltonian"):
            assert (f"qbrach.{mod}", fn) in bound
    for mod in ("cliffrep", "qbe", "cli", "scatter", "frames"):
        assert (f"qbrach.{mod}", "build_majorana") in bound
    assert ("Trajectory", "h_at") in bound and ("Trajectory", "f_at") in bound


def test_traced_run_matches_untraced_and_restores(tmp_path):
    import itertools

    from qbrach import matcore, qbe

    original = matcore.kron_matrix
    commands = [workloads.evolve(1.3, (0.5, -2.0, 1.25), str(tmp_path), t_end=0.01)]
    commands += workloads.closed_form_commands(1, 0, str(tmp_path), {})
    ledger = checkers.Ledger(log=sys.stdout)
    plain = [run.run_iteration(cli, [c], ledger, digests=True) for c in commands]
    tr = tracing.Tracer()
    ids = itertools.count()
    traced = [run.run_iteration(cli, [c], ledger, tr, ids, digests=True) for c in commands]
    assert ledger.failed == 0
    assert [it.digests for it in plain] == [it.digests for it in traced]
    assert matcore.kron_matrix is original and qbe.kron_matrix is original

    evolve, closed = tracing.layer_totals(tr, [traced[0].commands,
                                               [c for it in traced[1:] for c in it.commands]])
    assert evolve["matcore.kron_matrix"]["calls"] > 0
    assert evolve["qbe.resum"]["calls"] == 2 * 101 + 2
    assert tracing.counter_total(tr, "qbe.rk4_steps", traced[0].commands) == 100
    assert evolve["cli.render_json"]["calls"] == 0
    for span in ("matcore.kron_matrix", "qbe.resum", "qbe.integrate_qbe"):
        assert closed[span]["calls"] == 0
    for span in workloads.WORKLOADS["closed_form"].fires:
        assert closed[span]["calls"] > 0, span
    # render_json recurses; only the outermost calls are spans.
    assert closed["cli.render_json"]["calls"] == 7
    for name, row in closed.items():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-9, name


def test_missing_output_is_not_read_from_an_earlier_command(tmp_path):
    ledger = checkers.Ledger(log=sys.stdout)
    cmd = workloads.closed_form_commands(1, 0, str(tmp_path), {})[5]
    assert cmd.argv[:3] == ["verify-algebra", "--rep", "majorana"]
    run.run_iteration(cli, [cmd], ledger)
    assert ledger.failed == 0
    silent = workloads.Command(cmd.argv[:3], cmd.outputs, cmd.check)  # exits 0, writes nothing
    run.run_iteration(cli, [silent], ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
