"""In-memory span tracing by attribute wrapping, and the per-layer metrics
derived from the spans.

The program is not edited: `install` replaces each traced function in every
`accelatoms` module namespace that holds it (so `from .dynamics import evolve`
in runner.py is traced too), and wraps the LindbladGenerator methods on the
class. Spans are (name, start, end, parent index) tuples kept in a list and
written out when the execution ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

# span name -> (module, attribute); class methods are "Class.method"
TRACED = {
    "config.parse_config": ("accelatoms.config", "parse_config"),
    "config.validate": ("accelatoms.config", "validate"),
    "rates.same_wedge_rates": ("accelatoms.rates", "same_wedge_rates"),
    "rates.cross_wedge_rates": ("accelatoms.rates", "cross_wedge_rates"),
    "liouvillian.LindbladGenerator.__init__": ("accelatoms.liouvillian", "LindbladGenerator.__init__"),
    "liouvillian.LindbladGenerator.rhs": ("accelatoms.liouvillian", "LindbladGenerator.rhs"),
    "liouvillian.LindbladGenerator.rhs_hermitian": ("accelatoms.liouvillian",
                                                    "LindbladGenerator.rhs_hermitian"),
    "liouvillian.build_superoperator": ("accelatoms.liouvillian", "build_superoperator"),
    "liouvillian.steady_state_analysis": ("accelatoms.liouvillian", "steady_state_analysis"),
    "dynamics.evolve": ("accelatoms.dynamics", "evolve"),
    "dynamics.populations": ("accelatoms.dynamics", "populations"),
    "dynamics.coherence_measure": ("accelatoms.dynamics", "coherence_measure"),
    "dynamics.partial_trace": ("accelatoms.dynamics", "partial_trace"),
    "dynamics.concurrence": ("accelatoms.dynamics", "concurrence"),
    "runner.execute_run": ("accelatoms.runner", "execute_run"),
    "runner.write_csv": ("accelatoms.runner", "write_csv"),
    "runner.write_text": ("pathlib", "Path.write_text"),
    "bec.bogoliubov_mode": ("accelatoms.bec", "bogoliubov_mode"),
    "bec.variational_width": ("accelatoms.bec", "variational_width"),
    "bec.bound_state_count": ("accelatoms.bec", "bound_state_count"),
    "bec.coupling_tensor": ("accelatoms.bec", "coupling_tensor"),
}

OBSERVABLES = ("dynamics.populations", "dynamics.coherence_measure",
               "dynamics.partial_trace", "dynamics.concurrence")
WRITES = ("runner.write_csv", "runner.write_text")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.rows_written = 0

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED where the program can reach it."""
        for name, (module, attr) in TRACED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, fn)
            if name == "runner.write_csv":
                wrapped = self._count_rows(wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("accelatoms") and getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)

    def _count_rows(self, write_csv):
        @functools.wraps(write_csv)
        def counted(path, header, rows):
            rows = list(rows)
            self.rows_written += len(rows)
            return write_csv(path, header, rows)
        return counted

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(spans: list[tuple[str, float, float, int]], rows_written: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer times and counts from one execution's spans."""
    names = [s[0] for s in spans]

    def parent(s):
        return names[s[3]] if s[3] >= 0 else None

    def picked(wanted, under):
        return [s for s in spans if s[0] in wanted and (under is None or parent(s) == under)]

    def total(*wanted, under=None):
        return sum(s[2] - s[1] for s in picked(wanted, under))

    def count(*wanted, under=None):
        return len(picked(wanted, under))

    evolve_s = total("dynamics.evolve")
    observables_s = total(*OBSERVABLES, under="dynamics.evolve")
    records = count("dynamics.populations", under="dynamics.evolve")
    rates = ("rates.same_wedge_rates", "rates.cross_wedge_rates")
    return {
        "import_s": total("import"),
        "config.parse_s": total("config.parse_config"),
        "config.validate_s": total("config.validate", under="setup"),
        "rates.assemble_s": total(*rates),
        "rates.calls": count(*rates),
        "liouvillian.build_s": total("liouvillian.LindbladGenerator.__init__"),
        "liouvillian.rhs_hermitian_calls": count("liouvillian.LindbladGenerator.rhs_hermitian"),
        "liouvillian.rhs_hermitian_s": total("liouvillian.LindbladGenerator.rhs_hermitian"),
        "liouvillian.rhs_calls": count("liouvillian.LindbladGenerator.rhs"),
        "liouvillian.rhs_s": total("liouvillian.LindbladGenerator.rhs"),
        "liouvillian.spectral_s": total("liouvillian.build_superoperator",
                                        "liouvillian.steady_state_analysis"),
        "dynamics.evolve_s": evolve_s,
        "dynamics.step_self_s": evolve_s - sum(s[2] - s[1] for s in spans
                                               if parent(s) == "dynamics.evolve"),
        "dynamics.records": records,
        "dynamics.observables_s": observables_s,
        "dynamics.observables_us_per_record": 1e6 * observables_s / records if records else 0.0,
        "runner.write_s": sum(s[2] - s[1] for s in spans
                              if s[0] in WRITES and parent(s) not in WRITES),
        "runner.rows_written": rows_written,
        "runner.bytes_written": bytes_written,
        "bec.modes_s": total("bec.bogoliubov_mode"),
        "bec.width_s": total("bec.variational_width"),
        "bec.bound_state_s": total("bec.bound_state_count"),
        "bec.bound_state_calls": count("bec.bound_state_count"),
        "bec.coupling_s": total("bec.coupling_tensor"),
    }
