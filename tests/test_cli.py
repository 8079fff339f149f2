"""Tests for the command-line interface (run in-process with tiny settings)."""

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


@pytest.mark.skipif(
    not __import__("sys").platform.startswith("linux"),
    reason="watches the CLI's pool through /proc (Linux only)",
)
@pytest.mark.parametrize(
    "signum, exit_code, message",
    [
        (signal.SIGINT, 130, "interrupted"),
        (signal.SIGTERM, 143, "terminated"),
    ],
    ids=["SIGINT", "SIGTERM"],
)
def test_sigint_mid_solve_exits_clean(tmp_path, signum, exit_code, message):
    """SIGINT or SIGTERM during a multi-worker solve: clean exit, no shm residue.

    Runs the real CLI in a subprocess, signals it while workers are busy,
    and checks the three acceptance properties: exit code 130 (SIGINT) or
    143 (SIGTERM), no Python traceback, and no new /dev/shm/repro-* segments
    surviving the process.  The full-budget solve keeps the pool busy for
    seconds after it starts.
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

    def pool_started():
        """Whether the CLI's worker pool is up: its two forked workers, and
        the three handler threads the pool starts after forking them."""
        pid = process.pid
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as handle:
                workers = handle.read().split()
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:  # the CLI already exited
            return False
        return len(workers) >= 2 and len(threads) >= 4

    try:
        # Interrupt the solve once its pool is up, however fast the machine.
        # Not earlier: a SIGINT landing in the interpreter's at-fork handlers
        # is reported as "Exception ignored" and the solve runs on.
        deadline = time.monotonic() + 30
        while not pool_started() and process.poll() is None:
            if time.monotonic() > deadline:
                pytest.fail("the CLI's worker pool did not start within 30s")
            time.sleep(0.02)
        if process.poll() is not None:  # pragma: no cover - solve too fast
            pytest.skip("solve finished before the interrupt could land")
        process.send_signal(signum)
        try:
            _, stderr = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            process.kill()
            pytest.fail(f"CLI did not exit within 30s of {message}")
        assert process.returncode == exit_code, stderr
        assert "Traceback" not in stderr, stderr
        assert message in stderr
        leaked = set(glob.glob("/dev/shm/repro-*")) - before
        assert not leaked, f"shm segments leaked past {message}: {sorted(leaked)}"
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup fallback
            os.killpg(process.pid, signal.SIGKILL)
