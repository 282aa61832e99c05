"""Per-layer call counts and self times, from outside the package.

The tracer replaces each traced function with a wrapper under every
name it is looked up by inside ``eods`` (``sim`` imports ``t_quantile``
by name, for instance), so the package itself is untouched. A
function's self time is its wall time minus the time spent in the
traced functions it calls. Functions that a later version of the
package no longer has are reported with zero calls.
"""

import sys
import time

# (module, attribute) of every traced function; "cli.main" is the root
TRACED = (
    ("cli", "main"),
    ("sim", "run_scenario"),
    ("sim", "generate_dataset"),
    ("sim", "residual_sampler"),
    ("screen", "select_extremes"),
    ("screen", "bh_adjust"),
    ("odeb", "estimate"),
    ("odeb", "FullResponseSummary.from_responses"),
    ("odeb", "check_model"),
    ("regress", "fit_simple"),
    ("regress", "qq_points"),
    ("design", "power_eods"),
    ("design", "min_gamma_for_power"),
    ("design", "min_nfull_for_power"),
    ("dist", "norm_quantile"),
    ("dist", "t_cdf"),
    ("dist", "t_quantile"),
    ("dist", "f_cdf_noncentral"),
    ("dist", "f_quantile_central"),
    ("dist", "regularized_incomplete_beta"),
)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.originals = {}
        # time spent in traced callees, one slot per open call
        self._child = [0.0]

    def _wrap(self, name, fn):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child.pop()
                child[-1] += elapsed

        return traced

    def install(self):
        """Wrap every traced function under each name that refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "eods" or n.startswith("eods.")]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            self.calls[name] = 0
            self.self_s[name] = 0.0
            owner = sys.modules.get(f"eods.{mod_name}")
            if owner is None:
                continue
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(raw, classmethod):
                    continue
                self.originals[name] = raw.__func__
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self.originals[name] = fn
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def misses(self, name):
        """Evaluations not served from the function's memo cache."""
        info = getattr(self.originals.get(name), "cache_info", None)
        return info().misses if info else self.calls.get(name, 0)

    def report(self):
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.misses"] = self.misses(name)
        return out
