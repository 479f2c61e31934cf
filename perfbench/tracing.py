"""Per-layer counts and self time, recorded around the program's functions.

The `antipodes` modules import each other's functions by name (for
example `antipodality` and `discrimination` each hold their own `solve`,
and `cli` holds `is_rank_k_antipodal`), so `Tracer.install` replaces a
traced function in every module that holds it, not only where it is
defined.  `uninstall` puts the originals back.

Each call records a count and its self time: its duration minus the time
spent in traced calls it made.  Calls to the high-frequency boundaries
(`ratio`, `member`) only add to running totals; every other call also
records a span (id, parent id, name, job, start, end) while `spans` is a
list.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from itertools import count

# label -> (module, function names).  Labels are the metric prefixes.
BOUNDARIES = {
    "cli.main": ("cli", ("main",)),
    "rationals.ratio": ("rationals", ("ratio",)),
    "exact_lp.make_lp": ("exact_lp", ("make_lp",)),
    "exact_lp.solve": ("exact_lp", ("solve",)),
    "exact_lp.solve_strict": ("exact_lp", ("solve_strict",)),
    "exact_lp.check": (
        "exact_lp",
        ("check_point", "check_farkas", "check_strict_emptiness", "check_ray", "check_duals"),
    ),
    "antipodality.rank": ("antipodality", ("is_rank_k_antipodal",)),
    "antipodality.strict": ("antipodality", ("strict_rank_k",)),
    "antipodality.joint_direct": ("antipodality", ("joint_antipodal_direct",)),
    "antipodality.joint_shrunk": ("antipodality", ("joint_antipodal_shrunk",)),
    "antipodality.verify_cert": ("antipodality", ("verify_joint_certificate",)),
    "geometry.volume": ("geometry", ("volume",)),
    "geometry.member": ("geometry", ("member",)),
    "geometry.affine_rank": ("geometry", ("affine_rank",)),
    "geometry.load_point_set": ("geometry", ("load_point_set",)),
    "hashcodes.max_code": ("hashcodes", ("max_code",)),
    "hashcodes.is_perfect": ("hashcodes", ("is_perfect",)),
    "hashcodes.greedy_code": ("hashcodes", ("greedy_code",)),
    "hashcodes.random_code": ("hashcodes", ("random_code",)),
    "hashcodes.load_code": ("hashcodes", ("load_code",)),
    "construction.product_construct": ("construction", ("product_construct",)),
    "construction.projection_certificate": ("construction", ("projection_certificate",)),
    "construction.volume_inequality_check": ("construction", ("volume_inequality_check",)),
    "discrimination.min_error": ("discrimination", ("min_error",)),
}
HOT = {"rationals.ratio", "geometry.member"}
JOINT = {"antipodality.joint_direct", "antipodality.joint_shrunk"}
LAYERS = (
    "cli", "rationals", "exact_lp", "antipodality",
    "geometry", "hashcodes", "construction", "discrimination",
)

# The boundaries each workload is built to exercise: all must record calls.
EXERCISED = {
    "rank-sweep": {
        "cli.main", "rationals.ratio", "exact_lp.make_lp", "exact_lp.solve",
        "exact_lp.solve_strict", "exact_lp.check", "antipodality.rank",
        "antipodality.strict", "antipodality.joint_direct",
        "antipodality.verify_cert", "geometry.member", "geometry.affine_rank",
        "geometry.load_point_set",
    },
    "joint-stream": {
        "cli.main", "rationals.ratio", "exact_lp.make_lp", "exact_lp.solve",
        "exact_lp.solve_strict", "exact_lp.check", "antipodality.joint_direct",
        "antipodality.joint_shrunk", "antipodality.verify_cert",
        "geometry.member", "geometry.affine_rank", "geometry.load_point_set",
        "discrimination.min_error",
    },
    "build-measure": {
        "cli.main", "rationals.ratio", "hashcodes.max_code", "hashcodes.is_perfect",
        "hashcodes.greedy_code", "hashcodes.random_code", "hashcodes.load_code",
        "construction.product_construct", "construction.projection_certificate",
        "construction.volume_inequality_check", "geometry.volume",
        "antipodality.rank", "antipodality.joint_direct", "antipodality.verify_cert",
    },
}
assert set().union(*EXERCISED.values()) == set(BOUNDARIES)


class Tracer:
    """Wraps the boundaries and accumulates per-pass counts and times."""

    package = "antipodes"

    def __init__(self):
        self.spans = None
        self.job = None
        self._installed = []
        self._stack = []
        self._ids = count()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.reset()

    def reset(self):
        """Zero the totals in place; the installed wrappers hold them."""
        self.calls.clear()
        self.self_s.clear()
        self.inclusive_s.clear()
        self.lp_rows = 0
        self.lp_vars = 0
        self.lp_infeasible = 0
        self.lp_in_joint = 0
        self.subsets = 0
        self.nodes = 0

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if name == self.package or name.startswith(prefix)
        ]

    def install(self):
        modules = self._modules()
        for label, (home, names) in BOUNDARIES.items():
            defining = sys.modules[f"{self.package}.{home}"]
            for name in names:
                original = getattr(defining, name)
                traced = self._wrap(label, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, traced)
                        self._installed.append((module, name, original))
        missed = [
            f"{module.__name__}.{name}"
            for module in modules
            for name, value in vars(module).items()
            if any(value is original for _, _, original in self._installed)
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"untraced references remain: {missed}")

    def uninstall(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed = []

    # -- recording --------------------------------------------------------

    def _wrap(self, label, fn):
        calls, self_s, inclusive_s = self.calls, self.self_s, self.inclusive_s
        stack, clock = self._stack, time.perf_counter
        hot = label in HOT
        joint = label in JOINT
        observe = {
            "exact_lp.solve": self._saw_lp,
            "antipodality.rank": self._saw_subsets,
            "antipodality.strict": self._saw_subsets,
            "hashcodes.max_code": self._saw_search,
        }.get(label)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [time in traced children, span id, inside a joint decision]
            frame = [0.0, next(self._ids), joint or (parent is not None and parent[2])]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[label] += 1
                self_s[label] += took - frame[0]
                inclusive_s[label] += took
                if parent is not None:
                    parent[0] += took
                if not hot and self.spans is not None:
                    pid = parent[1] if parent is not None else None
                    self.spans.append((frame[1], pid, label, self.job, start, end))
            if observe is not None:
                observe(args, result, parent)
            return result

        return traced

    def _saw_lp(self, args, outcome, parent):
        lp = args[0]
        self.lp_rows += len(lp.constraints)
        self.lp_vars += lp.num_vars
        if outcome.status.name == "INFEASIBLE":
            self.lp_infeasible += 1
        if parent is not None and parent[2]:
            self.lp_in_joint += 1

    def _saw_subsets(self, args, report, parent):
        self.subsets += report.subsets_checked

    def _saw_search(self, args, result, parent):
        self.nodes += result.nodes

    # -- results ----------------------------------------------------------

    def counters(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{label}.calls": self.calls[label] for label in BOUNDARIES}
        out.update(
            {
                "exact_lp.rows": self.lp_rows,
                "exact_lp.vars": self.lp_vars,
                "exact_lp.infeasible": self.lp_infeasible,
                "exact_lp.solve_in_joint": self.lp_in_joint,
                "antipodality.subsets": self.subsets,
                "hashcodes.nodes": self.nodes,
            }
        )
        return out

    def times(self) -> dict:
        out = {}
        for label in BOUNDARIES:
            out[f"{label}.self_s"] = self.self_s[label]
            out[f"{label}.inclusive_s"] = self.inclusive_s[label]
        return out
