"""Tests for the command-line interface (run in-process with tiny settings)."""

import json
import signal

import pytest

from repro.cli import build_parser, main

TINY = ["--scale", "0.08", "--samples", "15", "--candidate-limit", "3",
        "--pivot-limit", "6", "--seed", "3"]


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_rejects_unknown_dataset():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "--dataset", "myspace"])


def test_datasets_command(capsys):
    assert main(["datasets", "--scale", "0.08"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "douban" in out


def test_solve_command(capsys):
    assert main(["solve", "--dataset", "facebook", *TINY]) == 0
    out = capsys.readouterr().out
    assert "S3CA on" in out
    assert "redemption_rate" in out


def test_solve_command_full_budget_flag(capsys):
    assert main(["solve", "--dataset", "facebook", "--spend-full-budget", *TINY]) == 0
    assert "redemption_rate" in capsys.readouterr().out


def test_compare_command_without_im_s(capsys):
    assert main(["compare", "--dataset", "facebook", "--no-im-s", *TINY]) == 0
    out = capsys.readouterr().out
    for name in ("IM-U", "IM-L", "PM-U", "PM-L", "S3CA"):
        assert name in out
    assert "IM-S" not in out


def test_sweep_budget_command(capsys):
    assert main([
        "sweep-budget", "--dataset", "facebook", "--budgets", "30", "60", *TINY
    ]) == 0
    out = capsys.readouterr().out
    assert "Redemption rate vs budget" in out
    assert "Total benefit vs budget" in out


def test_case_study_command(capsys):
    assert main([
        "case-study", "--policy", "booking", "--margins", "0.4", "0.6", *TINY
    ]) == 0
    out = capsys.readouterr().out
    assert "booking" in out
    assert "gross_margin" in out


def test_solve_command_scaling_flags_are_deterministic(capsys):
    """--shard-size / --workers change execution, not the printed result."""

    def stripped(out):
        # Drop the trailing wall-clock column; everything else must match.
        return [line.rstrip().rsplit(maxsplit=1)[0]
                for line in out.strip().splitlines() if line.strip()]

    assert main(["solve", "--dataset", "facebook", *TINY]) == 0
    serial_out = capsys.readouterr().out
    assert main([
        "solve", "--dataset", "facebook", "--shard-size", "4", "--workers", "2",
        *TINY,
    ]) == 0
    parallel_out = capsys.readouterr().out
    assert stripped(parallel_out) == stripped(serial_out)


def test_parser_accepts_scaling_flags():
    parser = build_parser()
    args = parser.parse_args(["solve", "--shard-size", "16", "--workers", "4"])
    assert args.shard_size == 16
    assert args.workers == 4


# ----------------------------------------------------------------------
# parse-time validation of scaling knobs
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "flag",
    ["--workers", "--shard-size", "--tier-topk", "--pivot-limit", "--candidate-limit"],
)
@pytest.mark.parametrize("value", ["0", "-1", "-128"])
def test_non_positive_scaling_knobs_rejected_at_parse_time(flag, value, capsys):
    """0/negative counts and limits are argparse errors, not deep crashes or
    silently changed solves."""
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["solve", flag, value])
    assert excinfo.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_non_integer_scaling_knob_rejected(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "--workers", "many"])
    assert "is not an integer" in capsys.readouterr().err


def test_serve_parser_knobs():
    parser = build_parser()
    args = parser.parse_args([
        "serve", "--host", "0.0.0.0", "--port", "9999", "--workers", "2",
        "--job-workers", "3", "--max-queue", "5",
    ])
    assert args.command == "serve"
    assert args.host == "0.0.0.0"
    assert args.port == 9999
    assert args.workers == 2
    assert args.job_workers == 3
    assert args.max_queue == 5


def test_serve_parser_rejects_bad_port(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--port", "0"])
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        "oops",
        {"type": "edge_add", "source": "0", "target": "7", "probability": "abc"},
        {"type": "edge_add", "source": "0", "target": "7", "probability": None},
        {"type": "edge_add", "source": "0", "target": "7", "probability": 1.5},
        {"type": "node_add", "node": "x", "benefit": -2},
        {"type": "node_retire", "node": [1]},
    ],
    ids=["not-an-object", "probability-abc", "probability-null",
         "probability-1.5", "negative-benefit", "unhashable-node"],
)
def test_events_command_rejects_a_malformed_entry(entry, tmp_path, capsys):
    """A bad event entry is an ``error:`` line and exit 2, before any solve."""
    path = tmp_path / "events.json"
    path.write_text(json.dumps([entry]))
    assert main([
        "events", "--dataset", "facebook", "--scale", "0.05", "--samples", "10",
        "--events-file", str(path),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph event 0 ")
    assert "Traceback" not in err


_SMALL = ["--scale", "0.05", "--samples", "10"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", *_SMALL, "--budget", "-5"], "budget must be > 0, got -5.0"),
        (["solve", *_SMALL, "--budget", "0"], "budget must be > 0, got 0.0"),
        (["compare", *_SMALL, "--budget", "-5"], "budget must be > 0, got -5.0"),
        (["events", *_SMALL, "--budget", "-5"], "budget must be > 0, got -5.0"),
        (["sweep-budget", *_SMALL, "--budgets", "60", "-3"],
         "budget must be > 0, got -3.0"),
        (["case-study", *_SMALL, "--margins", "0.3", "1.5"],
         "gross_margin must be in [0, 1), got 1.5"),
        (["case-study", *_SMALL, "--margins", "-0.5"],
         "gross_margin must be in [0, 1), got -0.5"),
        (["solve", *_SMALL, "--graph", "missing.txt"],
         "graph file not readable: "),
        (["datasets", "--scale", "-1"], "scale must be > 0, got -1.0"),
        (["datasets", "--scale", "0"], "scale must be > 0, got 0.0"),
    ],
    ids=["solve-budget-negative", "solve-budget-zero", "compare-budget",
         "events-budget", "sweep-budgets", "margin-above-one",
         "margin-negative", "graph-missing", "datasets-scale-negative",
         "datasets-scale-zero"],
)
def test_bad_numbers_exit_2_before_any_solve(
    argv, named, monkeypatch, tmp_path, capsys
):
    """A bad number or a missing graph file is an ``error:`` line and exit 2."""
    from repro.core.s3ca import S3CA
    from repro.experiments.runner import ExperimentRunner

    def solved(*args, **kwargs):
        raise AssertionError("a solve ran before the bad input was rejected")

    monkeypatch.setattr(S3CA, "solve", solved)
    monkeypatch.setattr(ExperimentRunner, "run_all", solved)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "events":
        (tmp_path / "events.json").write_text(json.dumps(
            [{"type": "edge_add", "source": "0", "target": "7", "probability": 0.5}]
        ))
        argv = [*argv, "--events-file", "events.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# interrupt / broken-pipe exit paths
# ----------------------------------------------------------------------


def test_main_keyboard_interrupt_returns_130(monkeypatch, capsys):
    """Ctrl-C mid-solve: exit 130, a one-line notice, no traceback."""
    import repro.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "solve", interrupted)
    assert main(["solve", "--dataset", "facebook", *TINY]) == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "Traceback" not in captured.err


def test_main_keyboard_interrupt_releases_pools(monkeypatch):
    """The interrupt path tears down live pools and owned shm segments."""
    import repro.cli as cli

    calls = []
    monkeypatch.setitem(
        cli._COMMANDS, "solve", lambda args: (_ for _ in ()).throw(KeyboardInterrupt)
    )
    import repro.diffusion.parallel as parallel
    import repro.utils.shm as shm

    monkeypatch.setattr(
        parallel, "shutdown_live_pools", lambda: calls.append("pools") or 0
    )
    monkeypatch.setattr(shm, "sweep_owned", lambda: calls.append("shm") or 0)
    assert main(["solve", "--dataset", "facebook", *TINY]) == 130
    assert calls == ["pools", "shm"]


def test_main_broken_pipe_returns_141(monkeypatch):
    """`repro ... | head` must exit with the SIGPIPE code, not a traceback."""
    import repro.cli as cli

    monkeypatch.setitem(
        cli._COMMANDS, "solve", lambda args: (_ for _ in ()).throw(BrokenPipeError)
    )
    # Keep pytest's captured stdout intact: the dup2 dance is only for real
    # pipes, not in-process tests.
    monkeypatch.setattr(cli, "_suppress_broken_pipe", lambda: None)
    assert main(["solve", "--dataset", "facebook", *TINY]) == 141


def test_shutdown_live_pools_closes_everything():
    from repro.diffusion.parallel import (
        SharedShardPool,
        live_pool_count,
        shutdown_live_pools,
    )

    pool = SharedShardPool(2)
    assert live_pool_count() >= 1
    closed = shutdown_live_pools()
    assert closed >= 1
    assert pool.closed
    assert shutdown_live_pools() == 0  # idempotent


def _signal_solve(signum, exit_code, message, ready, poll_seconds):
    """Signal a multi-worker CLI solve once ``ready(pid)``; check a clean exit.

    Runs the real CLI in a subprocess and its own session, polls
    ``ready(pid)`` every ``poll_seconds``, sends ``signum`` once it holds, and
    checks the three acceptance properties: exit code 130 (SIGINT) or 143
    (SIGTERM), no Python traceback, and no new /dev/shm/repro-* segments
    surviving the process.  The full-budget solve keeps the pool busy for
    seconds after it starts.  Whatever happens, the CLI's session group is
    killed at the end: pool workers inherit it, so no worker outlives the
    test even when the CLI hangs or exits without tearing its pool down.
    """
    import glob
    import os
    import subprocess
    import sys
    import time

    before = set(glob.glob("/dev/shm/repro-*"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "solve",
            "--dataset", "facebook", "--scale", "2.0", "--samples", "1000",
            "--spend-full-budget", "--workers", "2", "--seed", "3",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not ready(process.pid) and process.poll() is None:
            if time.monotonic() > deadline:
                pytest.fail("the CLI's worker pool did not start within 30s")
            time.sleep(poll_seconds)
        if process.poll() is not None:  # pragma: no cover - solve too fast
            pytest.skip("solve finished before the interrupt could land")
        process.send_signal(signum)
        try:
            _, stderr = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            pytest.fail(f"CLI did not exit within 30s of {message}")
        assert process.returncode == exit_code, stderr
        assert "Traceback" not in stderr, stderr
        assert message in stderr
        leaked = set(glob.glob("/dev/shm/repro-*")) - before
        assert not leaked, f"shm segments leaked past {message}: {sorted(leaked)}"
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def _workers_of(pid):
    """Pids of the CLI's child processes (its forked pool workers)."""
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return handle.read().split()


requires_proc = pytest.mark.skipif(
    not __import__("sys").platform.startswith("linux"),
    reason="watches the CLI's pool through /proc (Linux only)",
)

signals = pytest.mark.parametrize(
    "signum, exit_code, message",
    [
        (signal.SIGINT, 130, "interrupted"),
        (signal.SIGTERM, 143, "terminated"),
    ],
    ids=["SIGINT", "SIGTERM"],
)


@requires_proc
@signals
def test_sigint_mid_solve_exits_clean(signum, exit_code, message):
    """SIGINT or SIGTERM during a multi-worker solve: clean exit, no shm residue."""
    import os

    def pool_started(pid):
        """Whether the CLI's worker pool is up: its two forked workers, and
        the three handler threads the pool starts after forking them."""
        try:
            workers = _workers_of(pid)
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:  # the CLI already exited
            return False
        return len(workers) >= 2 and len(threads) >= 4

    # Interrupt the solve once its pool is up, however fast the machine.
    _signal_solve(signum, exit_code, message, pool_started, poll_seconds=0.02)


#: Start-up attempts per signal; each takes well under a second when the
#: signal is delivered.
STARTUP_ATTEMPTS = 5


@requires_proc
@signals
def test_signal_while_pool_workers_fork_exits_clean(signum, exit_code, message):
    """A signal sent the moment the first pool worker exists is not lost.

    It lands while the pool forks its workers.  The pool defers it until it
    is registered for teardown, instead of letting the interpreter's at-fork
    hooks swallow it ("Exception ignored ...") while the solve runs on to
    exit 0.  The window is a few milliseconds, so each signal gets several
    attempts.
    """

    def first_worker_forked(pid):
        try:
            return bool(_workers_of(pid))
        except OSError:  # the CLI already exited
            return False

    for _ in range(STARTUP_ATTEMPTS):
        _signal_solve(
            signum, exit_code, message, first_worker_forked, poll_seconds=0.0
        )
