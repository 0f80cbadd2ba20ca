"""Tests for the command-line tools (in-process invocation)."""

import threading
import time

import pytest

import repro.plugins  # noqa: F401
from repro.cli.ldms_ls_cli import main as ldms_ls_main
from repro.cli.ldmsctl_cli import send_command
from repro.cli.ldmsd_cli import build_parser, main as ldmsd_main


class TestLdmsdCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.xprt == "sock"
        assert args.mem == "2MB"

    def test_bad_command_exits_nonzero(self, capsys):
        rc = ldmsd_main(["--cmd", "load name=no_such_plugin",
                         "--duration", "0.1"])
        assert rc == 1

    def test_runs_with_script(self, tmp_path, capsys):
        script = tmp_path / "boot.ctl"
        script.write_text(
            "# startup script\n"
            "load name=synthetic\n"
            "config name=synthetic instance=n0/s component_id=1 num_metrics=3\n"
            "start name=n0/s interval=50000\n"
        )
        rc = ldmsd_main(["--script", str(script), "--duration", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "'start name=n0/s interval=50000' -> 0" in out


class TestFullCliPipeline:
    def test_daemon_ctl_and_ls(self, tmp_path, capsys):
        """Start a daemon thread, control it over the UNIX socket, list
        its sets over TCP — the complete operator workflow."""
        ctl = str(tmp_path / "ctl.sock")
        port_holder = {}

        # Patch: grab the ephemeral port by parsing daemon stdout is
        # awkward under capsys; instead run the daemon pieces directly.
        from repro.core import Ldmsd
        from repro.core.control import ControlChannel, UnixControlServer

        daemon = Ldmsd("clinode")
        channel = ControlChannel(daemon)
        listener = daemon.listen("sock", ("127.0.0.1", 0))
        server = UnixControlServer(channel, ctl)
        try:
            reply = send_command(ctl, "load name=synthetic")
            assert reply.startswith("0")
            send_command(
                ctl, "config name=synthetic instance=cli/s component_id=1 "
                     "num_metrics=4")
            send_command(ctl, "start name=cli/s interval=100000")
            time.sleep(0.5)

            rc = ldms_ls_main(["--port", str(listener.port), "-l"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "cli/s" in out
            assert "schema=synthetic" in out
            assert "metric_0" in out
            assert "consistent" in out
        finally:
            server.close()
            daemon.shutdown()

    def test_ls_verbose_renders_self_set(self, capsys):
        """``ldms_ls -v`` shows ldmsd_self sets as a health block."""
        from repro.core import Ldmsd

        daemon = Ldmsd("vnode")
        listener = daemon.listen("sock", ("127.0.0.1", 0))
        try:
            daemon.load_sampler("ldmsd_self", instance="vnode/self",
                                component_id=1)
            daemon.start_sampler("vnode/self", interval=0.1)
            time.sleep(0.35)

            rc = ldms_ls_main(["--port", str(listener.port), "-v"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "vnode/self" in out
            assert "sampling :" in out and "end2end" in out
            # the raw 59-metric dump is replaced by the rendering
            assert "sample_us_p50" not in out
        finally:
            daemon.shutdown()

    def test_ctl_error_reply(self, tmp_path):
        from repro.core import Ldmsd
        from repro.core.control import ControlChannel, UnixControlServer

        ctl = str(tmp_path / "ctl2.sock")
        daemon = Ldmsd("clinode2")
        server = UnixControlServer(ControlChannel(daemon), ctl)
        try:
            assert send_command(ctl, "bogus verb=1").startswith("E")
        finally:
            server.close()
            daemon.shutdown()


class TestReproTopClockBoundary:
    def test_repro_top_routes_clock_through_timeutil(self):
        # Regression (found by flow-clock-boundary): the poll loop read
        # time.monotonic()/time.sleep() directly instead of going
        # through the sanctioned repro.util.timeutil boundary.
        import inspect

        import repro.cli.repro_top_cli as mod

        src = inspect.getsource(mod)
        assert "time.monotonic(" not in src
        assert "time.sleep(" not in src
        assert "timeutil.monotonic(" in src
        assert "timeutil.sleep(" in src
