"""GOOD: hot-path obs calls pass scalars, or pay for arguments only
behind a handle's ``is not None``."""


class Updater:
    def _complete_update(self, upd, data, now):
        # Scalar arguments are free: attribute reads + a tuple append
        # inside the instrument, nothing allocated at the call site.
        self.daemon.flight.record(now, "updater", "stored", upd.dgn)
        self.daemon.spans.record(1, 2, 0, 2, "update", now, now)
        # Handle idiom: arm()/start() hand out None for the events that
        # are not tracked, so the whole block (formatted label included)
        # runs only for the ones that are.
        fresh = self._fresh
        if fresh is not None:
            fresh.observe(now, 0)
        span = self.daemon.spans.start(upd.producer, upd.name, now)
        if span is not None:
            self.daemon.spans.finish(span, f"stored:{upd.name}", now)

    def _flush_rows(self, rows, now):
        # An explicit handle check guards the formatted detail record.
        span = rows[0][2]
        if span is not None:
            self.daemon.flight.record(now, "store", "flush",
                                      {"rows": len(rows)})

    def render_report(self, rows):
        # Not a hot function: formatting here is out of scope.
        return self.daemon.spans.finish(rows, f"report:{len(rows)}", 0.0)
