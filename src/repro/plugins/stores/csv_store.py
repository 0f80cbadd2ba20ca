"""CSV store: one file per metric set schema.

Row format mirrors LDMS's store_csv::

    Time,Producer,CompId,<metric1>,<metric2>,...

``CompId`` is the component id of the first metric (the per-node id in
all built-in samplers).  An optional separate ``.HEADER`` file carries
the column names (paper §IV-C: "optionally write header to separate
file"); otherwise the header is the first row of the data file.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TextIO

from repro.core.metric import MetricType
from repro.core.store import StorePlugin, StoreRecord, register_store
from repro.util.errors import ConfigError, StoreError

__all__ = ["CsvStore"]


def _cut_torn_tail(fpath: str) -> None:
    """Cut a file back to its last newline, to empty if it has none.

    A writer killed mid-line leaves a fragment that the next appended
    row would fuse with; a torn header empties the file, so the caller
    writes the header afresh.
    """
    with open(fpath, "ab+") as f:
        end = pos = f.seek(0, os.SEEK_END)
        keep = 0
        while pos > 0:
            step = min(pos, 4096)
            pos -= step
            f.seek(pos)
            nl = f.read(step).rfind(b"\n")
            if nl >= 0:
                keep = pos + nl + 1
                break
        if keep != end:
            f.truncate(keep)


def _render_untyped(cells: tuple) -> str:
    """A hand-built record's line (``mtypes`` None): dispatch per value."""
    ts, producer, comp_id, *values = cells
    body = ",".join([f"{v:.6g}" if isinstance(v, float) else str(v)
                     for v in values])
    return f"{ts:.6f},{producer},{comp_id},{body}\n"


def _compile_row(mtypes: Optional[tuple[MetricType, ...]]) -> Callable[[tuple], str]:
    """The row codec of one layout: ``codec((ts, producer, comp_id) +
    values)`` renders the whole line in one C call.

    The format is built from literals only (names travel as arguments:
    a ``%`` in a producer name must not reach it).  Float columns get
    ``%.6g`` — the same C conversion as ``f"{v:.6g}"`` — and integer
    columns ``%s``, which *is* ``str(v)`` for whatever the value turns
    out to be, where ``%d`` would render ``0.5`` as ``0`` and ``True``
    as ``1``.
    """
    if mtypes is None:
        return _render_untyped
    cols = ",".join(["%.6g" if t.is_float else "%s" for t in mtypes])
    return ("%.6f,%s,%s," + cols + "\n").__mod__


@register_store("store_csv")
class CsvStore(StorePlugin):
    """Buffered CSV writer.

    Config options
    --------------
    path:
        Container directory; one ``<schema>.csv`` per schema inside.
        An existing file is appended to, once a torn last line is cut.
    altheader:
        Truthy to write the header to ``<schema>.HEADER`` instead of
        the data file.
    buffer_lines:
        Lines buffered before an OS write (default 64).
    roll_bytes:
        When positive, roll the data file once it exceeds this size:
        the current file is renamed ``<schema>.csv.<n>`` and a fresh
        file (with header, unless altheader) is started.  Daily volumes
        of tens of GB (§IV-D) make rollover operationally necessary.
    """

    def config(self, path: str = "", altheader=False, buffer_lines=64,
               roll_bytes=0, **kwargs) -> None:
        super().config(**kwargs)
        if not path:
            raise ConfigError("store_csv: path= is required")
        self.path = path
        if isinstance(altheader, str):
            altheader = altheader.lower() in ("1", "true", "yes")
        self.altheader = bool(altheader)
        self.buffer_lines = int(buffer_lines)
        self.roll_bytes = int(roll_bytes)
        os.makedirs(path, exist_ok=True)
        self._files: dict[str, TextIO] = {}
        self._headers: dict[str, tuple[str, ...]] = {}
        self._buffers: dict[str, list[str]] = {}
        #: schema -> (mtypes, row codec) of the layout last rendered.
        self._codecs: dict[str, tuple[Optional[tuple], Callable]] = {}
        self._roll_counts: dict[str, int] = {}
        self._bytes = 0

    def _handle(self, record: StoreRecord) -> str:
        schema = record.schema
        if schema not in self._files:
            fpath = os.path.join(self.path, f"{schema}.csv")
            _cut_torn_tail(fpath)
            self._files[schema] = open(fpath, "a", encoding="utf-8")
            self._headers[schema] = record.names
            self._buffers[schema] = []
            self._codecs[schema] = (record.mtypes, _compile_row(record.mtypes))
            header = "Time,Producer,CompId," + ",".join(record.names) + "\n"
            if self.altheader:
                with open(os.path.join(self.path, f"{schema}.HEADER"), "w",
                          encoding="utf-8") as hf:
                    self._write(hf, header)
            elif self._files[schema].tell() == 0:
                self._buffers[schema].append(header)
        elif self._headers[schema] != record.names:
            raise StoreError(
                f"store_csv: schema {schema!r} metric names changed; "
                "configure one store instance per distinct set layout"
            )
        return schema

    def _row(self, schema: str, record: StoreRecord) -> str:
        """Render one line with the codec of the record's layout.

        The codec is keyed by the ``mtypes`` tuple, not by schema name:
        a set re-created with new value types keeps its metric names.
        Identity first — every record of one compiled layout carries
        the same tuple object.
        """
        mtypes = record.mtypes
        known, codec = self._codecs[schema]
        if mtypes is not known and mtypes != known:
            codec = _compile_row(mtypes)
            self._codecs[schema] = (mtypes, codec)
        comp_id = record.component_ids[0] if record.component_ids else 0
        return codec((record.timestamp, record.producer, comp_id)
                     + record.values)

    def _write(self, f: TextIO, text: str) -> None:
        """Every write goes through here, so ``bytes_written()`` is the
        bytes on disk: encoded size, not ``len(str)``."""
        f.write(text)
        self._bytes += len(text) if text.isascii() else len(text.encode())

    def store(self, record: StoreRecord) -> None:
        schema = self._handle(record)
        buf = self._buffers[schema]
        buf.append(self._row(schema, record))
        if len(buf) >= self.buffer_lines:
            self._drain(schema)

    def store_many(self, records: list[StoreRecord]) -> None:
        """Batch write: render every row, then run the buffer-drain
        check once per schema instead of once per row.  Emitted bytes
        are identical to per-record ``store`` calls in the same order.
        """
        touched = set()
        buffers = self._buffers
        for record in records:
            schema = self._handle(record)
            buffers[schema].append(self._row(schema, record))
            touched.add(schema)
        # sorted: drain order must not depend on PYTHONHASHSEED, or the
        # flush sequence (and thus file write order) varies across runs
        for schema in sorted(touched):
            if len(buffers[schema]) >= self.buffer_lines:
                self._drain(schema)

    def _drain(self, schema: str) -> None:
        buf = self._buffers[schema]
        if buf:
            self._write(self._files[schema], "".join(buf))
            buf.clear()
            if self.roll_bytes > 0 and self._files[schema].tell() >= self.roll_bytes:
                self._roll(schema)

    def _roll(self, schema: str) -> None:
        """Rotate <schema>.csv to <schema>.csv.<n> and start fresh."""
        self._files[schema].close()
        n = self._roll_counts.get(schema, 0) + 1
        self._roll_counts[schema] = n
        fpath = os.path.join(self.path, f"{schema}.csv")
        os.replace(fpath, f"{fpath}.{n}")
        self._files[schema] = open(fpath, "a", encoding="utf-8")
        if not self.altheader:
            header = ("Time,Producer,CompId,"
                      + ",".join(self._headers[schema]) + "\n")
            self._write(self._files[schema], header)

    def flush(self) -> None:
        for schema in list(self._files):
            self._drain(schema)
            self._files[schema].flush()

    def close(self) -> None:
        self.flush()
        for f in self._files.values():
            f.close()
        self._files.clear()

    def bytes_written(self) -> int:
        return self._bytes
