"""Run one formloc entry point in this interpreter, with hooks installed.

Usage:
    python3 perfbench/launch.py probe HOOKS -m formloc reproduce nominal ...
    python3 perfbench/launch.py trace HOOKS OUT.json scripts/seed_sweep.py ...

HOOKS is a comma-separated list of `module:function` names, each optionally
suffixed with `+bytes`.  A hook replaces the function at the name every
caller looks it up: the defining module's attribute and every alias that a
loaded `formloc` module imported with `from ... import`.  A name that no
longer exists is listed as absent instead of failing the run.

probe  exits the interpreter at the first call of any hooked function, so
       the wall time of the process is its set-up time.
trace  records one span per hooked call (name, start, end, parent, error,
       and the size of the file named by the first argument for `+bytes`
       hooks), keeps them in memory, and writes them to OUT.json when the
       entry point ends.  The process then exits with the entry's code.

This file imports nothing beyond what the entry point itself loads, so that
a probe measures the program's own start-up.
"""

import importlib
import os
import runpy
import sys
import time


def _resolve(spec):
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _install(hooks, make_wrapper):
    """Replace each hooked function by make_wrapper(name, fn, opts) at every
    name a loaded formloc module binds to it; return the absent hooks."""
    absent = []
    swaps = []
    for spec in hooks:
        spec, _, opts = spec.partition("+")
        module, fn = _resolve(spec)
        if fn is None:
            absent.append(spec)
            continue
        layer = module.__name__.rpartition(".")[2]
        swaps.append((fn, make_wrapper(f"{layer}.{spec.partition(':')[2]}", fn, opts)))
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "formloc" and not name.startswith("formloc."):
            continue
        env = vars(mod)
        for key, value in list(env.items()):
            for fn, wrapper in swaps:
                if value is fn:
                    env[key] = wrapper
    return absent


class Tracer:
    """In-memory span store; spans are appended when they end."""

    def __init__(self):
        self.names = []
        self.spans = []      # (id, name index, start ns, end ns, parent id)
        self.errors = {}     # id -> exception class name
        self.extra = {}      # id -> bytes written
        self._stack = [-1]
        self._next = 0

    def wrap(self, name, fn, opts):
        index = len(self.names)
        self.names.append(name)
        stack, spans, errors, extra = self._stack, self.spans, self.errors, self.extra
        clock = time.perf_counter_ns
        measure_bytes = opts == "bytes"

        def hooked(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent))
            if measure_bytes:
                extra[sid] = os.path.getsize(args[0])
            return result

        return hooked

    def dump(self, path, absent):
        import json

        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "absent": absent,
                "spans": self.spans,
                "errors": {str(k): v for k, v in self.errors.items()},
                "extra": {str(k): v for k, v in self.extra.items()},
            }, fh, separators=(",", ":"))


def _stop_wrapper(name, fn, opts):
    def stop(*args, **kwargs):
        os._exit(0)
    return stop


def _run_entry(argv):
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
        runpy.run_path(argv[0], run_name="__main__")


def main():
    mode, hooks = sys.argv[1], sys.argv[2].split(",")
    if mode == "probe":
        if len(_install(hooks, _stop_wrapper)) == len(hooks):
            sys.exit(f"launch: none of the probe hooks exist: {sys.argv[2]}")
        _run_entry(sys.argv[3:])
        sys.exit("launch: the entry point ended before its first operation")
    out, entry = sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    absent = _install(hooks, tracer.wrap)
    code = 0
    try:
        _run_entry(entry)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(out, absent)
    sys.exit(code)


if __name__ == "__main__":
    main()
