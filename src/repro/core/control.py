"""Daemon control channel: the ``ldmsctl`` text command protocol.

ldmsd is configured at runtime by process-owner issued commands over a
UNIX domain socket (paper §IV-B).  This module implements the command
language against a live :class:`~repro.core.ldmsd.Ldmsd` and an optional
real UNIX-socket server for it.

Intervals on the control channel are expressed in **microseconds**, as
in LDMS proper; the Python API uses seconds.

Supported commands (attribute syntax is ``key=value``)::

    load name=<plugin>
    config name=<plugin> instance=<inst> component_id=<id> [plugin args...]
    start name=<instance> interval=<usec> [offset=<usec>]
    stop name=<instance>
    term name=<instance>
    listen xprt=<xprt> port=<port> [host=<host>]
    add host=<host> xprt=<xprt> [port=<port>] interval=<usec>
        [offset=<usec>] [sets=<a>,<b>] [standby=<true|false>]
        [passive=<true|false>] [name=<prod>]
    advertise host=<host> xprt=<xprt> [port=<port>] [name=<this-daemon>]
    remove name=<producer>
    standby_activate name=<producer>
    store name=<store-plugin> [schema=<schema>] [container=<path>]
          [producers=<a>,<b>] [metrics=<m1>,<m2>] [plugin args...]
    enable_query [hot_window=<sec>] [cache_entries=<n>]
    dir
    stats
    prof [export=chrome]
    quit

``stats`` returns the daemon's operational counters *plus* the full
telemetry-registry snapshot (counters and histogram summaries)
under the ``obs`` key; ``prof`` returns the registry's latency
histograms with their bucket vectors, exemplar traces, the freshness
tracker snapshot, and the span ring's event window.  ``prof
export=chrome`` instead returns the daemon's recorded spans as Chrome
``trace_event`` JSON (the ``repro-trace`` CLI's wire verb).  Every
handled command is itself timed into the ``control.latency`` histogram.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import socket
import threading
from typing import TYPE_CHECKING

from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd

__all__ = ["parse_command", "ControlChannel", "UnixControlServer"]


def parse_command(line: str) -> tuple[str, dict[str, str]]:
    """Split ``verb key=value ...`` into a verb and attribute dict.

    Values may be quoted with shell rules.

    >>> parse_command('config name=meminfo instance="node 0/mem"')
    ('config', {'name': 'meminfo', 'instance': 'node 0/mem'})
    """
    parts = shlex.split(line.strip())
    if not parts:
        raise ConfigError("empty command")
    verb = parts[0].lower()
    attrs: dict[str, str] = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed attribute {tok!r} (expected key=value)")
        key, _, value = tok.partition("=")
        if not key:
            raise ConfigError(f"malformed attribute {tok!r}")
        attrs[key] = value
    return verb, attrs


def _usec(attrs: dict[str, str], key: str, required: bool = True) -> float | None:
    if key not in attrs:
        if required:
            raise ConfigError(f"missing required attribute {key}=")
        return None
    try:
        usec = float(attrs[key])
    except ValueError:
        usec = math.nan
    if not math.isfinite(usec):
        raise ConfigError(f"bad microsecond value {key}={attrs[key]!r}")
    return usec / 1e6


class ControlChannel:
    """Executes control commands against a daemon.

    Every command returns a reply string beginning with ``0`` on success
    or ``E`` followed by the error message.  A malformed value
    (``port=abc``, an unclosed quote) is a ``ValueError`` from the
    conversion that meets it, refused the same way as a
    :class:`ConfigError`.
    """

    def __init__(self, daemon: "Ldmsd"):
        self.daemon = daemon
        self._loaded: set[str] = set()
        self._h_latency = daemon.obs.histogram("control.latency")
        self._c_commands = daemon.obs.counter("control.commands")
        self._c_errors = daemon.obs.counter("control.errors")

    def handle(self, line: str) -> str:
        t0 = self.daemon.env.now()
        self._c_commands.inc()
        try:
            verb, attrs = parse_command(line)
            out = self._dispatch(verb, attrs)
            return "0" + (f" {out}" if out else "")
        except (ConfigError, ValueError) as exc:
            self._c_errors.inc()
            return f"E {exc}"
        finally:
            self._h_latency.observe(self.daemon.env.now() - t0)

    # ------------------------------------------------------------------
    def _dispatch(self, verb: str, attrs: dict[str, str]) -> str:
        handler = getattr(self, f"_cmd_{verb}", None)
        if handler is None:
            raise ConfigError(f"unknown command {verb!r}")
        return handler(attrs)

    @staticmethod
    def _need(attrs: dict[str, str], *keys: str) -> list[str]:
        missing = [k for k in keys if k not in attrs]
        if missing:
            raise ConfigError(f"missing required attribute(s): {', '.join(missing)}")
        return [attrs[k] for k in keys]

    def _cmd_load(self, attrs) -> str:
        """``load name=<plugin>``: mark a sampler plugin loadable."""
        (name,) = self._need(attrs, "name")
        from repro.core.sampler import sampler_registry

        if name not in sampler_registry:
            raise ConfigError(f"no sampler plugin {name!r}")
        self._loaded.add(name)
        return f"loaded {name}"

    def _cmd_config(self, attrs) -> str:
        """``config name=<plugin> instance=<i> ...``: instantiate + configure."""
        (name,) = self._need(attrs, "name")
        if name not in self._loaded:
            raise ConfigError(f"plugin {name!r} not loaded")
        kwargs = {k: v for k, v in attrs.items() if k != "name"}
        if "component_id" in kwargs:
            kwargs["component_id"] = int(kwargs["component_id"])
        plugin = self.daemon.load_sampler(name, **kwargs)
        return f"configured {plugin.instance}"

    def _cmd_start(self, attrs) -> str:
        """``start name=<inst> interval=<usec>``: begin periodic sampling."""
        (name,) = self._need(attrs, "name")
        interval = _usec(attrs, "interval")
        offset = _usec(attrs, "offset", required=False)
        self.daemon.start_sampler(name, interval=interval, offset=offset)
        return f"started {name}"

    def _cmd_stop(self, attrs) -> str:
        """``stop name=<inst>``: halt sampling, keep the instance."""
        (name,) = self._need(attrs, "name")
        self.daemon.stop_sampler(name)
        return f"stopped {name}"

    def _cmd_term(self, attrs) -> str:
        """``term name=<inst>``: stop and destroy a sampler instance."""
        (name,) = self._need(attrs, "name")
        plugin = self.daemon.sampler_plugins().get(name)
        if plugin is None:
            raise ConfigError(f"no sampler instance {name!r}")
        if name in self.daemon._schedules:
            self.daemon.stop_sampler(name)
        plugin.term()
        del self.daemon._plugins[name]
        return f"terminated {name}"

    def _cmd_listen(self, attrs) -> str:
        """``listen xprt=<x> port=<p>``: accept aggregator connections."""
        (xprt,) = self._need(attrs, "xprt")
        addr = self._addr_from(attrs, default_host="127.0.0.1")
        listener = self.daemon.listen(xprt, addr)
        port = getattr(listener, "port", None)
        return f"listening on {addr}" + (f" port={port}" if port is not None else "")

    def _cmd_add(self, attrs) -> str:
        """``add host=... interval=<usec>``: add an upstream producer."""
        (xprt,) = self._need(attrs, "xprt")
        interval = _usec(attrs, "interval")
        offset = _usec(attrs, "offset", required=False)
        sets = tuple(s for s in attrs.get("sets", "").split(",") if s)
        truthy = ("true", "1", "yes")
        standby = attrs.get("standby", "false").lower() in truthy
        passive = attrs.get("passive", "false").lower() in truthy
        host = attrs.get("host")
        if host is None and not passive:
            raise ConfigError("missing required attribute(s): host")
        name = attrs.get("name", host or "")
        if not name:
            raise ConfigError("passive producers require name=")
        addr = None
        if host is not None:
            addr = (host, int(attrs["port"])) if "port" in attrs else host
        self.daemon.add_producer(
            name=name,
            xprt=xprt,
            addr=addr,
            interval=interval,
            sets=sets,
            offset=offset,
            standby=standby,
            passive=passive,
        )
        return f"added producer {name}"

    def _cmd_advertise(self, attrs) -> str:
        """``advertise host=<h> xprt=<x>``: announce this daemon upstream."""
        host, xprt = self._need(attrs, "host", "xprt")
        addr = (host, int(attrs["port"])) if "port" in attrs else host
        self.daemon.advertise(xprt, addr, name=attrs.get("name"))
        return f"advertising to {host}"

    def _cmd_remove(self, attrs) -> str:
        """``remove name=<producer>``: drop a producer and its sets."""
        (name,) = self._need(attrs, "name")
        self.daemon.remove_producer(name)
        return f"removed {name}"

    def _cmd_standby_activate(self, attrs) -> str:
        """``standby_activate name=<producer>``: promote a standby producer."""
        (name,) = self._need(attrs, "name")
        self.daemon.activate_standby(name)
        return f"activated {name}"

    def _cmd_store(self, attrs) -> str:
        """``store name=<plugin> ...``: attach a store policy to the daemon."""
        (name,) = self._need(attrs, "name")
        schema = attrs.get("schema")
        producers = tuple(p for p in attrs.get("producers", "").split(",") if p) or None
        metrics = tuple(m for m in attrs.get("metrics", "").split(",") if m) or None
        passthrough = {
            k: v
            for k, v in attrs.items()
            if k not in ("name", "schema", "producers", "metrics")
        }
        self.daemon.add_store(
            name, schema=schema, producers=producers, metrics=metrics, **passthrough
        )
        return f"store {name} configured"

    def _cmd_enable_query(self, attrs) -> str:
        """``enable_query [hot_window=<s>] [cache_entries=<n>]``: attach
        the query/serving tier to the daemon's SOS store (PR 9).  A base
        container's hot window keeps ``hot_window`` seconds, a level-L
        rollup container's ``L x hot_window``."""
        self.daemon.enable_query(**{
            key: conv(attrs[key])
            for key, conv in (("hot_window", float), ("cache_entries", int))
            if key in attrs})
        return "query enabled"

    def _cmd_dir(self, attrs) -> str:
        """``dir``: JSON directory of published sets (name/schema/sizes)."""
        infos = self.daemon.dir_info()
        return json.dumps(
            [
                {
                    "name": i.name,
                    "schema": i.schema,
                    "card": i.card,
                    "meta_size": i.meta_size,
                    "data_size": i.data_size,
                }
                for i in infos
            ]
        )

    def _cmd_stats(self, attrs) -> str:
        """``stats``: JSON operational counters + obs registry snapshot."""
        return json.dumps(self.daemon.stats())

    def _cmd_prof(self, attrs) -> str:
        """Histogram dumps: per-stage latency buckets (µs-scale), the
        exemplar update spans still in the span ring (``traces``), the
        columnar-arena sweep profile, freshness and span-ring event
        snapshots.  ``export=chrome`` returns the span ring as Chrome
        ``trace_event`` JSON instead."""
        d = self.daemon
        if attrs.get("export") == "chrome":
            from repro.obs.spans import chrome_trace_events

            return json.dumps(chrome_trace_events([d.spans]))
        if "export" in attrs:
            raise ConfigError(f"unknown export format {attrs['export']!r}")
        with d.lock:  # the dumps fold what the daemon's threads stage
            now = d.env.now()
            return json.dumps(
                {
                    "name": d.name,
                    "histograms": d.obs.dump_histograms(),
                    "traces": [s.as_dict() for s in d.spans.updates()],
                    "arena": {
                        "sweeps": d.obs.counter("arena.sweeps").value,
                        "rows_vectorized":
                            d.obs.counter("arena.rows_vectorized").value,
                        "fallback_sets":
                            d.obs.counter("arena.fallback_sets").value,
                        # Schema-stable: zeroed, not None/omitted, when the
                        # columnar plane is off (no arena in this env).
                        "pool": (d.set_pool.stats()
                                 if d.set_pool is not None
                                 else {"arenas": 0, "blocks": 0, "rows": 0}),
                    },
                    "freshness": d.freshness.snapshot(now),
                    "flight": {
                        "total": d.spans.events_total,
                        "window": d.spans.window(),
                        "events": len(d.spans.events),
                    },
                    "spans": {
                        "total": d.spans.total,
                        "retained": len(d.spans.spans),
                    },
                    "xprt_refused_connections": d.refused_connections(),
                }
            )

    def _cmd_quit(self, attrs) -> str:
        """``quit``: shut the daemon down and close the channel."""
        self.daemon.shutdown()
        return "bye"

    @staticmethod
    def _addr_from(attrs: dict[str, str], default_host: str):
        host = attrs.get("host", default_host)
        if "port" in attrs:
            return (host, int(attrs["port"]))
        return host


class UnixControlServer:
    """Serves a :class:`ControlChannel` over a real UNIX domain socket.

    Line-oriented: one command per line, one reply line per command.
    Access control is the socket file's permissions, as in ldmsd.
    """

    def __init__(self, channel: ControlChannel, path: str):
        self.channel = channel
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        os.chmod(path, 0o600)  # owner-only, like ldmsd
        self.sock.listen(8)
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._client, args=(conn,), daemon=True).start()

    def _client(self, conn: socket.socket) -> None:
        buf = b""
        try:
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, _, buf = buf.partition(b"\n")
                    if not line.strip():
                        continue
                    reply = self.channel.handle(line.decode("utf-8", "replace"))
                    conn.sendall(reply.encode("utf-8") + b"\n")
        except OSError:
            pass
        finally:
            conn.close()

    def close(self) -> None:
        self._stop = True
        try:
            self.sock.close()
        finally:
            if os.path.exists(self.path):
                os.unlink(self.path)
