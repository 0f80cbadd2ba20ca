"""BAD: obs instrument calls allocate/format on the hot path unguarded."""


class Updater:
    def _complete_update(self, upd, data, now):
        # dict allocation in a record call, no handle guard
        self.daemon.flight.record(now, "updater", "stored",
                                  {"set": upd.name, "dgn": upd.dgn})
        # f-string formatting on the span path, no guard
        self.daemon.spans.record(1, 2, 0, 2, f"update:{upd.name}", now, now)
        # list display into freshness observe
        self.daemon.freshness.observe(now, [upd.name])

    def _flush_rows(self, rows, now):
        # %-formatting into a span finish
        self.daemon.spans.finish(rows, "flushed %d rows" % len(rows), now)
