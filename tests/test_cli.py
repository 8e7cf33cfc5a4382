"""Tests for the cludistream command-line interface."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.sites == 4
        assert args.stream == "synthetic"
        assert not args.simulate


class TestChunkSize:
    def test_prints_paper_default(self, capsys):
        status = main(
            ["chunk-size", "-d", "4", "--epsilon", "0.02", "--delta", "0.01"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "M = 1567" in out
        assert "M/2" in out


class TestRun:
    def test_synthetic_run(self, capsys):
        status = main(
            [
                "run",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "processed 2400 records" in out
        assert "site 0:" in out
        assert "coordinator:" in out

    def test_netflow_simulated_run(self, capsys):
        status = main(
            [
                "run",
                "--sites", "2",
                "--records", "1000",
                "--chunk", "500",
                "--clusters", "3",
                "--stream", "netflow",
                "--simulate",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "virtual seconds" in out


class TestRunVariants:
    def test_netflow_direct_run(self, capsys):
        from repro.cli import main

        status = main(
            [
                "run",
                "--sites", "1",
                "--records", "1000",
                "--chunk", "500",
                "--clusters", "3",
                "--stream", "netflow",
            ]
        )
        assert status == 0
        assert "coordinator:" in capsys.readouterr().out

    def test_chunk_size_rejects_bad_epsilon(self):
        from repro.cli import main

        with pytest.raises(ValueError):
            main(["chunk-size", "--epsilon", "0"])


class TestServeSiteParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.expected_sites == 2

    def test_site_requires_a_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["site"])
        args = build_parser().parse_args(["site", "--port", "5000"])
        assert args.site_id == 0
        assert args.stream == "synthetic"


class TestMultiProcessDemo:
    """The acceptance demo: one serve process, two site processes."""

    def test_serve_plus_two_sites_over_tcp(self):
        import os
        import subprocess
        import sys

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        base = [sys.executable, "-u", "-m", "repro.cli"]

        server = subprocess.Popen(
            base
            + [
                "serve",
                "--port", "0",
                "--expected-sites", "2",
                "--clusters", "2",
                "--timeout", "120",
            ],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sites: list[subprocess.Popen] = []
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening on 127.0.0.1:"), banner
            port = banner.rsplit(":", 1)[1]

            for site_id in range(2):
                sites.append(
                    subprocess.Popen(
                        base
                        + [
                            "site",
                            "--port", port,
                            "--site-id", str(site_id),
                            "--records", "600",
                            "--chunk", "200",
                            "--clusters", "2",
                            "--dim", "2",
                        ],
                        cwd=repo,
                        env=env,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT,
                        text=True,
                    )
                )
            site_outputs = [site.communicate(timeout=120)[0] for site in sites]
            server_output, _ = server.communicate(timeout=120)
        finally:
            for process in sites + [server]:
                if process.poll() is None:
                    process.kill()
                    process.wait()

        for site, output in zip(sites, site_outputs):
            assert site.returncode == 0, output
            assert "records=600" in output
        assert server.returncode == 0, server_output
        assert "all sites completed" in server_output
        assert "coordinator:" in server_output


class TestObservabilityFlags:
    def test_global_flags_parse(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--trace-file", "t.jsonl", "run"]
        )
        assert args.log_level == "debug"
        assert args.trace_file == "t.jsonl"

    def test_log_level_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "run"])

    def test_run_writes_a_parseable_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        status = main(
            [
                "--trace-file", str(trace),
                "run",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        from repro.obs import read_trace, summarize_trace

        events = list(read_trace(trace))
        assert events
        assert any(e.type == "site.chunk_test" for e in events)
        summary = summarize_trace(trace)
        assert summary.em_fits > 0


class TestStatsCommand:
    def run_trace(self, tmp_path) -> str:
        trace = tmp_path / "run.jsonl"
        main(
            [
                "--trace-file", str(trace),
                "run",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        return str(trace)

    def test_text_summary(self, tmp_path, capsys):
        trace = self.run_trace(tmp_path)
        capsys.readouterr()
        status = main(["stats", trace])
        assert status == 0
        out = capsys.readouterr().out
        assert "trace events:" in out
        assert "sites:" in out
        assert "em: fits=" in out

    def test_json_summary(self, tmp_path, capsys):
        import json as json_module

        trace = self.run_trace(tmp_path)
        capsys.readouterr()
        status = main(["stats", trace, "--json"])
        assert status == 0
        record = json_module.loads(capsys.readouterr().out)
        assert record["em_fits"] > 0
        assert "0" in record["sites"]
        assert record["sites"]["0"]["chunk_tests_passed"] > 0

    def test_format_json_flag(self, tmp_path, capsys):
        import json as json_module

        trace = self.run_trace(tmp_path)
        capsys.readouterr()
        status = main(["stats", trace, "--format", "json"])
        assert status == 0
        record = json_module.loads(capsys.readouterr().out)
        assert record["em_fits"] > 0
        assert "span_count" in record
        assert "span_durations" in record

    def test_format_text_is_the_default(self, tmp_path, capsys):
        trace = self.run_trace(tmp_path)
        capsys.readouterr()
        status = main(["stats", trace, "--format", "text"])
        assert status == 0
        assert "trace events:" in capsys.readouterr().out

    def test_format_rejects_unknown_values(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "x.jsonl", "--format", "xml"])

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        status = main(["stats", str(tmp_path / "absent.jsonl")])
        assert status == 1
        assert "absent.jsonl" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_run_parses_serve_telemetry(self):
        args = build_parser().parse_args(
            ["run", "--serve-telemetry", "0", "--telemetry-hold", "2.5"]
        )
        assert args.serve_telemetry == 0
        assert args.telemetry_hold == 2.5

    def test_serve_parses_serve_telemetry(self):
        args = build_parser().parse_args(["serve", "--serve-telemetry", "9100"])
        assert args.serve_telemetry == 9100

    def test_telemetry_off_by_default(self):
        assert build_parser().parse_args(["run"]).serve_telemetry is None

    def test_run_with_live_telemetry(self, capsys):
        import json as json_module
        import threading
        import time
        import urllib.request

        # _cmd_run resolves TelemetryServer from repro.obs.server at
        # call time, so patch it there.
        import repro.obs.server as obs_module

        captured: dict = {}
        scrapers: list[threading.Thread] = []
        original = obs_module.TelemetryServer

        class Probing(original):
            def start(self):
                server = super().start()

                def scrape():
                    # Poll until all 2 x 800 records are in: the second
                    # chunk's fit test is what sets a site's margin.  The
                    # run holds the server open for 3 s after the stream
                    # ends (--telemetry-hold), so the loop ends inside
                    # the hold; the deadline only bounds a broken run.
                    base = server.url
                    deadline = time.monotonic() + 30.0
                    while time.monotonic() < deadline:
                        with urllib.request.urlopen(base + "/health") as r:
                            captured["health"] = json_module.loads(r.read())
                        if captured["health"]["records"] >= 1600:
                            break
                        time.sleep(0.05)
                    with urllib.request.urlopen(base + "/metrics") as r:
                        captured["metrics"] = r.read().decode()

                scraper = threading.Thread(target=scrape)
                scraper.start()
                scrapers.append(scraper)
                return server

        obs_module.TelemetryServer = Probing
        try:
            status = main(
                [
                    "run",
                    "--sites", "2",
                    "--records", "800",
                    "--chunk", "400",
                    "--clusters", "3",
                    "--seed", "1",
                    "--serve-telemetry", "0",
                    "--telemetry-hold", "3",
                ]
            )
        finally:
            obs_module.TelemetryServer = original
        for scraper in scrapers:
            scraper.join()
        assert status == 0
        assert "telemetry:" in capsys.readouterr().out
        assert captured["health"]["records"] > 0
        assert "health_site_margin" in captured["metrics"]


class TestMonitorCommand:
    def test_requires_exactly_one_source(self, capsys):
        assert main(["monitor"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["monitor", "--url", "http://x", "--trace", "y"]) == 2

    def test_renders_a_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(
            [
                "--trace-file", str(trace),
                "run",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        capsys.readouterr()
        status = main(["monitor", "--trace", str(trace), "--no-clear"])
        assert status == 0
        out = capsys.readouterr().out
        assert "status=" in out
        assert "site" in out

    def test_unreachable_url_fails_cleanly(self, capsys):
        status = main(
            ["monitor", "--url", "http://127.0.0.1:9", "--iterations", "1",
             "--no-clear"]
        )
        assert status == 1
        assert "cannot reach" in capsys.readouterr().out


class TestServeFailures:
    """Bind failures must exit non-zero with a clear message, not a
    traceback (ISSUE satellite 2)."""

    def test_occupied_port_exits_one(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            status = main(["serve", "--port", str(port), "--timeout", "5"])
        finally:
            blocker.close()
        assert status == 1
        assert f"cannot bind 127.0.0.1:{port}" in capsys.readouterr().err

    def test_occupied_telemetry_port_exits_one(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            status = main(
                ["serve", "--serve-telemetry", str(port), "--timeout", "5"]
            )
        finally:
            blocker.close()
        assert status == 1
        assert f"cannot bind telemetry port {port}" in capsys.readouterr().err

    def test_site_connect_failure_exits_one(self, capsys):
        import socket

        # Grab an ephemeral port and release it: nothing is listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        status = main(
            ["site", "--port", str(port), "--records", "100", "--chunk", "50"]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert f"cannot reach coordinator at 127.0.0.1:{port}" in err


class TestServeEndpointManifest:
    """``serve --checkpoint-dir`` records the actually bound endpoints
    (ISSUE satellite 1: port 0 must surface the real port)."""

    def test_manifest_carries_bound_port(self, tmp_path, capsys):
        import json as json_module

        status = main(
            [
                "serve",
                "--port", "0",
                "--timeout", "0.5",
                "--checkpoint-dir", str(tmp_path),
            ]
        )
        # No sites ever connect: the run times out, but the manifest
        # and the banner still carry the real ephemeral port.
        assert status == 1
        out = capsys.readouterr().out
        banner = next(
            line for line in out.splitlines()
            if line.startswith("listening on 127.0.0.1:")
        )
        port = int(banner.rsplit(":", 1)[1])
        assert port > 0
        manifest = json_module.loads(
            (tmp_path / "node-0.manifest.json").read_text()
        )
        assert manifest["kind"] == "cluster_node"
        assert manifest["endpoints"]["tcp"] == {
            "host": "127.0.0.1",
            "port": port,
        }

    def test_sigterm_still_writes_the_checkpoint(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        server = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0",
                "--timeout", "120",
                "--checkpoint-dir", str(tmp_path),
            ],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("listening on 127.0.0.1:"), banner
            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=10)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert server.returncode == 1, output
        assert "stopped by signal waiting for sites" in output
        assert (tmp_path / "aggregator-0.json").exists()
        assert (tmp_path / "node-0.manifest.json").exists()

    @pytest.fixture
    def keep_signals(self):
        """``serve`` installs process-wide handlers; put the test
        process's own back afterwards."""
        import signal

        saved = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
        yield
        for signum, handler in saved.items():
            signal.signal(signum, handler)

    def test_the_banner_comes_after_the_signal_handler(
        self, monkeypatch, keep_signals
    ):
        # The banner tells a caller SIGTERM is safe to send.
        import builtins
        import signal

        import repro.cli as cli

        at_banner = []

        def spy(*args, **kwargs):
            if str(args[0]).startswith("listening on"):
                at_banner.append(signal.getsignal(signal.SIGTERM))
            builtins.print(*args, **kwargs)

        monkeypatch.setattr(cli, "print", spy, raising=False)
        assert main(["serve", "--port", "0", "--timeout", "0.2"]) == 1
        (handler,) = at_banner
        assert callable(handler)
        assert handler.__qualname__.startswith("run_aggregator.")


class TestServeTelemetry:
    def test_serve_is_a_federating_root(self):
        """``serve --serve-telemetry`` is a one-level tree's root: its
        ``/snapshot`` is the node's with the coordinator section, and
        ``/cluster/health`` lists the expected sites, which a plain
        ``site`` never reports."""
        import os
        import signal
        import subprocess
        import sys
        from urllib.request import urlopen

        repo = Path(__file__).resolve().parents[1]
        server = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0", "--expected-sites", "2",
                "--serve-telemetry", "0", "--timeout", "60",
            ],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH=str(repo / "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = server.stdout.readline().strip()
            assert url.startswith("telemetry: http://127.0.0.1:"), url
            assert server.stdout.readline().startswith("listening on")
            base = url.split(" ", 1)[1]
            snapshot = json.load(urlopen(f"{base}/snapshot", timeout=10))
            health = json.load(urlopen(f"{base}/cluster/health", timeout=10))
            server.send_signal(signal.SIGTERM)
            server.communicate(timeout=10)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert snapshot["node_id"] == 0
        assert snapshot["coordinator"]["clusters"] == 0
        assert health["status"] == "degraded"
        assert health["nodes"]["expected"] == 3
        sites = [n for n in health["per_node"] if n["role"] == "site"]
        assert [n["status"] for n in sites] == ["unreported"] * 2


class TestClusterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.sites is None
        assert args.fanin is None
        assert args.base_port == 0
        assert args.host == "127.0.0.1"
        assert not args.soak

    def test_write_spec_round_trip(self, tmp_path, capsys):
        from repro.cluster import load_spec

        path = tmp_path / "tree.json"
        status = main(
            [
                "cluster",
                "--sites", "8",
                "--fanin", "4",
                "--seed", "3",
                "--write-spec", str(path),
            ]
        )
        assert status == 0
        assert f"spec written to {path}" in capsys.readouterr().out
        spec = load_spec(path)
        assert len(spec.site_nodes) == 8
        assert len(spec.aggregators) == 3

    def test_missing_spec_file_exits_one(self, tmp_path, capsys):
        status = main(["cluster", "--spec", str(tmp_path / "absent.json")])
        assert status == 1
        assert "cannot load spec" in capsys.readouterr().err

    def test_invalid_topology_exits_two(self, capsys):
        status = main(["cluster", "--sites", "0"])
        assert status == 2
        assert "invalid topology" in capsys.readouterr().err

    def test_small_soak_passes(self, capsys):
        status = main(
            [
                "cluster",
                "--soak",
                "--sites", "8",
                "--fanin", "4",
                "--records", "120",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "8 sites" in out
        assert "PASS" in out


class TestCheckpointResume:
    """``run --checkpoint-dir`` / ``--resume`` round-trips through the
    runtime layer and converges to the uninterrupted result."""

    BASE = [
        "run",
        "--sites", "2",
        "--chunk", "400",
        "--clusters", "3",
        "--seed", "1",
    ]

    @staticmethod
    def summary_lines(out: str) -> list[str]:
        return [
            line
            for line in out.splitlines()
            if line.startswith(("site ", "coordinator:", "  w="))
        ]

    def test_resume_requires_a_directory(self, capsys):
        status = main(self.BASE + ["--records", "400", "--resume"])
        assert status == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_interrupted_run_converges(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")

        status = main(self.BASE + ["--records", "1200"])
        assert status == 0
        uninterrupted = self.summary_lines(capsys.readouterr().out)

        status = main(
            self.BASE + ["--records", "600", "--checkpoint-dir", ckpt]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "processed 1200 records" in out
        assert f"checkpoint written to {ckpt}" in out

        status = main(
            self.BASE
            + ["--records", "1200", "--checkpoint-dir", ckpt, "--resume"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "resumed from round 600" in out
        # Only the second half is processed after the resume.
        assert "processed 1200 records" in out
        assert self.summary_lines(out) == uninterrupted

    def test_resume_without_a_checkpoint_starts_fresh(self, tmp_path, capsys):
        ckpt = tmp_path / "empty"
        ckpt.mkdir()
        status = main(
            self.BASE
            + ["--records", "400", "--checkpoint-dir", str(ckpt), "--resume"]
        )
        assert status == 0
        captured = capsys.readouterr()
        manifest = ckpt / "manifest.json"
        assert captured.err.splitlines() == [
            f"run: no checkpoint at {manifest}, starting fresh"
        ]
        assert "processed 800 records" in captured.out
        assert "resumed from round" not in captured.out
        assert manifest.exists()

    def test_site_resume_without_a_checkpoint_starts_fresh(
        self, tmp_path, capsys
    ):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ckpt = tmp_path / "empty"
        ckpt.mkdir()
        status = main(
            ["site", "--port", str(port), "--records", "100", "--chunk", "50",
             "--checkpoint-dir", str(ckpt), "--resume"]
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (
            f"site 0: no checkpoint at {ckpt / 'site-0.json'}, starting fresh"
        )
        assert f"cannot reach coordinator at 127.0.0.1:{port}" in err[-1]


class TestWireCodecFlags:
    @pytest.mark.parametrize("command", ["site", "cluster"])
    def test_defaults_to_cds1(self, command):
        base = {"site": ["--port", "9999"], "cluster": []}
        args = build_parser().parse_args([command] + base[command])
        assert args.wire_codec == "cds1"
        assert args.quantize == "f64"
        assert args.delta_encoding is False

    def test_cds2_flags_parse(self):
        args = build_parser().parse_args(
            ["cluster", "--wire-codec", "cds2", "--quantize", "f32",
             "--delta-encoding"]
        )
        assert args.wire_codec == "cds2"
        assert args.quantize == "f32"
        assert args.delta_encoding is True

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["site", "--wire-codec", "zstd"])
        # serve sends nothing, so it has no codec flags since 1.16.0.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--wire-codec", "cds2"])
        assert excinfo.value.code == 2

    def test_unknown_quantize_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["site", "--quantize", "f8"])


class TestRemovedBench:
    def test_bench_and_its_timing_suite_flags_are_gone(self):
        for argv in (["bench"], ["bench", "--list"], ["bench", "--suite", "comm"],
                     ["bench", "--repeats", "3"], ["bench", "--baseline", "x"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2


class TestRemovedSubcommands:
    """``compare-comm`` and ``report`` re-ran Figs. 2 and 5 at a compact
    size; the paper benches now check those numbers against
    ``benchmarks/paper_claims.json``, and the reproduction lives under
    ``benchmarks/paper/``, outside the package."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-comm"],
            ["compare-comm", "--sites", "2", "--p-new", "0.3"],
            ["report"],
            ["report", "-o", "summary.md"],
        ],
    )
    def test_both_subcommands_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_the_flag_table_lost_exactly_those_two_entries(self):
        table = TestFlagSurface.surface()
        assert "compare-comm" not in table and "report" not in table
        assert list(table) == [
            "chunk-size", "run", "serve", "site", "cluster", "stats", "monitor"
        ]

    @pytest.mark.parametrize("name", ["repro.baselines", "repro.evaluation"])
    def test_the_reproduction_packages_left_the_library(self, name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)

    def test_no_library_module_imports_benchmarks(self):
        # The edge points one way: the reproduction uses the system.
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(root)}: {name}"
                    for name in names
                    if name.partition(".")[0] == "benchmarks"
                ]
        assert offenders == []


class TestHistoryFlags:
    def test_run_history_knobs_default_off(self, capsys):
        assert build_parser().parse_args(["run"]).history is False
        # The pyramid's knobs are gone (1.18.0): each is a usage error.
        for command in ("run", "serve"):
            for flag in (
                "--history-alpha", "--history-capacity", "--history-bytes"
            ):
                with pytest.raises(SystemExit) as exit_info:
                    build_parser().parse_args([command, flag, "2"])
                assert exit_info.value.code == 2
                assert flag in capsys.readouterr().err

    def test_serve_and_cluster_accept_history(self):
        assert build_parser().parse_args(
            ["serve", "--history"]
        ).history is True
        args = build_parser().parse_args(["cluster", "--history"])
        assert args.history is True
        # The cluster command takes the bare switch only; retention
        # knobs stay library defaults (pin them via the JSON spec).
        assert not hasattr(args, "history_alpha")

    def test_stats_window_parses_two_ints(self):
        args = build_parser().parse_args(
            ["stats", "t.jsonl", "--window", "0", "500"]
        )
        assert args.window == [0, 500]
        assert args.scope is None

    def test_run_with_history_records_queryable_snapshots(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "history.jsonl"
        status = main(
            [
                "--trace-file", str(trace),
                "run",
                "--history",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        assert status == 0
        capsys.readouterr()
        from repro.obs import read_trace

        # A stationary stream closes no reign; every scope's open reign
        # is in the trace all the same.
        scopes = {
            event.fields["scope"]
            for event in read_trace(trace)
            if event.type == "history.open"
        }
        assert scopes == {"coordinator", "site:0", "site:1"}
        # The offline fold over the same trace answers drift queries.
        status = main(["stats", str(trace), "--window", "0", "1200"])
        assert status == 0
        out = capsys.readouterr().out
        assert "drift window [0, 1200]" in out
        assert "components:" in out

    def test_stats_window_json_is_machine_readable(self, tmp_path, capsys):
        import json as json_module

        trace = tmp_path / "history.jsonl"
        main(
            [
                "--trace-file", str(trace),
                "run",
                "--history",
                "--sites", "2",
                "--records", "1200",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        capsys.readouterr()
        status = main(
            ["stats", str(trace), "--window", "100", "1100", "--json"]
        )
        assert status == 0
        report = json_module.loads(capsys.readouterr().out)
        assert report["t0"] == 100 and report["t1"] == 1100
        assert "weight_transport" in report

    def test_stats_window_without_history_fails_cleanly(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "plain.jsonl"
        main(
            [
                "--trace-file", str(trace),
                "run",
                "--sites", "2",
                "--records", "800",
                "--chunk", "400",
                "--clusters", "3",
                "--seed", "1",
            ]
        )
        capsys.readouterr()
        status = main(["stats", str(trace), "--window", "0", "800"])
        assert status == 1
        assert "--history" in capsys.readouterr().err


class TestFlagSurface:
    """The flag surface is frozen: ``tests/data/cli_flag_surface.json``
    lists every flag of every subcommand as (option strings, default,
    type, choices).  Adding, renaming or re-defaulting one is a diff of
    that file, never a side effect of a refactor."""

    @staticmethod
    def surface() -> dict:
        import argparse

        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            name: sorted(
                [
                    list(action.option_strings) or [action.dest],
                    action.default,
                    action.type.__name__ if action.type else None,
                    list(action.choices) if action.choices else None,
                ]
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            )
            for name, parser in subparsers.choices.items()
        }

    def test_matches_the_checked_in_table(self):
        table = json.loads(
            (Path(__file__).parent / "data" / "cli_flag_surface.json")
            .read_text()
        )
        surface = self.surface()
        assert list(surface) == list(table)
        for command, flags in table.items():
            assert surface[command] == flags, command
        assert len(surface) == 7
        assert sum(len(flags) for flags in surface.values()) == 91


class TestContradictoryFlags:
    """A flag combination that cannot take effect gets one answer on
    every subcommand: exit 2 and one line on stderr, no traceback."""

    @pytest.mark.parametrize(
        "command",
        [
            ["site", "--port", "1"],
            ["cluster", "--sites", "2"],
        ],
        ids=["site", "cluster"],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--quantize", "f32"], "quantization needs --wire-codec cds2"),
            (["--quantize", "f16"], "quantization needs --wire-codec cds2"),
            (["--delta-encoding"], "delta needs --wire-codec cds2"),
        ],
        ids=["f32", "f16", "delta"],
    )
    def test_codec_flags_without_cds2(self, command, flags, message, capsys):
        assert main(command + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("invalid codec flags: ")
        assert message in line

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["run", "--checkpoint-every", "3"],
                "--checkpoint-every requires --checkpoint-dir",
            ),
            (["run", "--resume"], "--resume requires --checkpoint-dir"),
            (["serve", "--resume"], "--resume requires --checkpoint-dir"),
            (
                ["site", "--port", "1", "--resume"],
                "--resume requires --checkpoint-dir",
            ),
            (
                ["cluster", "--telemetry-interval", "0"],
                "invalid --telemetry-interval: must be positive",
            ),
            (
                ["cluster", "--sites", "0"],
                "invalid topology: sites must be at least 1",
            ),
        ],
    )
    def test_usage_errors_are_one_line(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    def test_cds2_makes_the_same_flags_legal(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        status = main(
            ["cluster", "--sites", "2", "--wire-codec", "cds2",
             "--quantize", "f16", "--delta-encoding",
             "--write-spec", str(path)]
        )
        assert status == 0
        assert path.exists()


class TestSiteAgainstADeadCoordinator:
    def test_coordinator_closing_mid_run_exits_one(self, capsys):
        """A peer that reads 100 bytes and closes: the site notices at
        its drain instead of waiting out the 60 s drain timeout."""
        import socket
        import threading
        import time

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def read_a_little_and_close():
            connection, _ = listener.accept()
            connection.recv(100)
            connection.close()

        thread = threading.Thread(target=read_a_little_and_close)
        thread.start()
        start = time.monotonic()
        try:
            status = main(
                ["site", "--port", str(port), "--records", "200",
                 "--chunk", "200", "--clusters", "2", "--dim", "2"]
            )
        finally:
            thread.join()
            listener.close()
        assert status == 1
        assert time.monotonic() - start < 10.0
        err = capsys.readouterr().err
        assert f"cannot reach coordinator at 127.0.0.1:{port}" in err
        assert "unacknowledged" in err
