"""Deterministic synthetic Java projects with scripted git histories.

Everything here is the benchmark's own: it imports nothing from smellstab, so
a change to the program cannot change its inputs, and every truth it writes
to the ledger is derived from how the inputs were built, not from what the
program computes.

A project is a set of classes across packages.  Each class is a list of
*content lines* (one logical Java line each, unique within its file) plus a
formatting layer (indentation, blank lines, comments) that the lexer strips.
Because content lines are unique within a file and edits never reorder
them, the churn of an edit is exactly the set difference of content lines,
which is what any line diff reports.

Class kinds and the smells they plant (threshold margins are wide so that
no unplanted class comes near any of the ten strategies):

* ``normal``  -- fields, short methods with a loop, a branch, calls, ``new``,
  casts and at most two foreign field reads; no smell.
* ``data``    -- seven public fields and nothing else: Data Class.
* ``god``     -- ten methods of cyclomatic complexity 5 touching disjoint
  own fields and eight foreign fields: God Class.
* ``envy``    -- a normal class plus one method that reads six fields of
  data classes and none of its own: Feature Envy.
* ``brain``   -- a normal class plus one 70-line, deeply nested method with
  many variables: Brain Method.
* ``helper``  -- two small classes per project with fixed, seed-independent
  text that share their package's eight-line import block.  One commit edits
  both; the miner's merge check then reports a merge that never happened.

Two random streams drive a build.  The structure stream (kinds, packages,
dependencies, method and field counts, which files each commit edits and
how) is fixed per workload; the text stream (class, package and field
names, literals, which imports a package uses) follows ``--seed``.  So every
seed gives other sources and other commit ids but the same numbers in
``dataset.csv``: the stats stage's cost depends on those numbers (fits that
do not converge use up to a thousand objective evaluations), and varying
them would make the per-seed spread of the timings mostly input noise.
"""

from __future__ import annotations

import csv
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

T0 = 1_600_000_000  # snapshot committer time
DAY = 86_400
WINDOW_DAYS = 365
COMMITTER = "Bench <bench@example.invalid>"

WORDS = (
    "Ledger Invoice Parser Router Buffer Cursor Mapper Filter Gauge Sensor "
    "Broker Channel Codec Digest Engine Fetcher Grid Handler Index Journal "
    "Kernel Loader Matrix Notifier Oracle Planner Queue Reader Scanner Tracker "
    "Updater Vault Walker Archive Bridge Cache Driver Emitter Factory Gateway"
).split()

HELPER_IMPORTS = (
    "java.util.List", "java.util.Map", "java.util.Set", "java.util.ArrayList",
    "java.util.HashMap", "java.util.HashSet", "java.util.Iterator", "java.util.Collections",
)
OTHER_IMPORTS = (
    "java.io.File", "java.io.Reader", "java.io.Writer", "java.io.IOException",
    "java.time.Instant", "java.time.Duration", "java.math.BigDecimal", "java.math.BigInteger",
    "java.nio.file.Path", "java.nio.file.Files", "java.text.NumberFormat", "java.net.URI",
    "java.util.function.Function", "java.util.concurrent.Executor", "java.util.regex.Pattern",
)

FAN_IN_CAP = 3  # calls into one public method (Shotgun Surgery needs more than 10 callers)
SMELLY_KINDS = ("data", "god", "envy", "brain")
LEDGER_HEADER = ["project", "class", "kind", "lineage_status", "ChF", "ChS", "EffNei",
                 "IsSmelly", "HasSmellEff"]


# -- class model -----------------------------------------------------------------


@dataclass
class JavaFile:
    """Content lines (indent, text, kind); kind is code, comment or blank."""

    entries: tuple[tuple[int, str, str], ...]

    def code(self) -> tuple[str, ...]:
        return tuple(text for _, text, kind in self.entries if kind == "code")

    def render(self) -> str:
        return "".join(("    " * ind + text).rstrip() + "\n" for ind, text, _ in self.entries)


@dataclass
class ClassSpec:
    index: int
    name: str
    package: str
    kind: str
    neighbors: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)  # public callable method names
    data_fields: list[str] = field(default_factory=list)

    @property
    def qname(self) -> str:
        return f"{self.package}.{self.name}"

    @property
    def path(self) -> str:
        return "src/" + self.package.replace(".", "/") + f"/{self.name}.java"


class _Uid:
    def __init__(self) -> None:
        self.n = 0

    def __call__(self) -> int:
        self.n += 1
        return self.n


@dataclass
class Project:
    name: str
    packages: list[str]
    package_imports: dict[str, tuple[str, ...]]
    classes: list[ClassSpec]
    files: dict[str, JavaFile]  # path -> file at the snapshot

    def smelly(self) -> set[int]:
        return {c.index for c in self.classes if c.kind in SMELLY_KINDS}


def _helper_file(package: str, name: str, tag: str) -> JavaFile:
    """Fixed text: depends only on the package and name, never on the seed."""
    e = [(0, f"package {package};", "code"), (0, "", "blank")]
    e += [(0, f"import {imp};", "code") for imp in HELPER_IMPORTS]
    e += [(0, "", "blank"), (0, f"/** Small {tag} helper. */", "comment"),
          (0, f"public class {name} {{", "code")]
    for k in range(3):
        e.append((1, f"private int {tag}Slot{k} = {k + 1};", "code"))
    e += [(1, f"public int {tag}Sum() {{", "code"),
          (2, f"return {tag}Slot0 + {tag}Slot1 + {tag}Slot2; }}", "code"),
          (1, f"public int {tag}Scaled(int {tag}Factor) {{", "code"),
          (2, f"return {tag}Slot0 * {tag}Factor; }}", "code"),
          (0, "}", "code")]
    return JavaFile(tuple(e))


def _plan_project(rng: random.Random, text: random.Random, name: str, n_classes: int,
                  n_packages: int) -> Project:
    root = f"org.bench.{name}"
    packages = [f"{root}.p00util"] + [f"{root}.p{i:02d}{text.choice(WORDS).lower()}"
                                      for i in range(1, n_packages)]
    package_imports = {packages[0]: HELPER_IMPORTS}
    for p in packages[1:]:
        k = rng.randint(3, 6)
        package_imports[p] = tuple(sorted(text.sample(OTHER_IMPORTS, k)))

    n_free = n_classes - 2
    counts = {
        "data": max(2, round(0.10 * n_classes)),
        "god": max(1, round(0.07 * n_classes)),
        "envy": max(1, round(0.08 * n_classes)),
        "brain": max(1, round(0.07 * n_classes)),
    }
    kinds = [k for k, n in counts.items() for _ in range(n)]
    kinds += ["normal"] * (n_free - len(kinds))
    rng.shuffle(kinds)
    classes = [ClassSpec(0, "UtilHelperA", packages[0], "helper"),
               ClassSpec(1, "UtilHelperB", packages[0], "helper")]
    for i, kind in enumerate(kinds, start=2):
        pkg = packages[rng.randrange(len(packages))]
        classes.append(ClassSpec(i, f"C{i:03d}{text.choice(WORDS)}", pkg, kind))
    return Project(name, packages, package_imports, classes, {})


def _body_lines(c: ClassSpec, k: int, own: list[str], lit: int) -> list[tuple[int, str, str]]:
    """Opening lines of a normal method: loop, branch, tunable line."""
    s, a, i = f"s{c.index}_{k}", f"a{c.index}_{k}", f"i{c.index}_{k}"
    return [
        (1, f"public int m{c.index}_{k}(int {a}) {{", "code"),
        (2, f"int {s} = {a} + {own[k % len(own)]};", "code"),
        (2, f"for (int {i} = 0; {i} < {a}; {i}++) {{ {s} += {i} * {own[(k + 1) % len(own)]}; }}", "code"),
        (2, f"if ({s} > {lit}) {{ {s} = {s} - {own[(k + 2) % len(own)]}; }}", "code"),
        (2, f"{s} = {s} + {lit % 97 + 1};", "code"),
    ]


class _Builder:
    """Fills in class bodies once every class's kind and name is known."""

    def __init__(self, rng: random.Random, text: random.Random, project: Project):
        self.rng = rng
        self.text = text
        self.p = project
        self.fan_in: dict[str, int] = {}
        self.by_index = {c.index: c for c in project.classes}

    def plan(self) -> None:
        rng = self.rng
        cs = self.p.classes
        data = [c.index for c in cs if c.kind == "data"]
        callable_ = [c.index for c in cs if c.kind not in ("data", "helper")]
        for c in cs:
            if c.kind == "data":
                c.data_fields = [f"{self.text.choice(WORDS).lower()}{c.index}_{j}" for j in range(7)]
            elif c.kind != "helper":
                n_methods = 10 if c.kind == "god" else rng.randint(4, 6)
                c.methods = [f"m{c.index}_{k}" for k in range(n_methods)]
        for c in cs:
            if c.kind in ("data", "helper"):
                continue
            same = [j for j in callable_ if j != c.index and self.by_index[j].package == c.package]
            other = [j for j in callable_ if j != c.index and self.by_index[j].package != c.package]
            nbrs: list[int] = []
            for _ in range(rng.randint(1, 4)):
                pool = same if (same and rng.random() < 0.6) else other
                if pool:
                    j = rng.choice(pool)
                    if j not in nbrs:
                        nbrs.append(j)
            n_data = {"god": 3, "envy": 2}.get(c.kind, rng.randint(0, 1))
            for j in rng.sample(data, min(n_data, len(data))):
                nbrs.append(j)
            c.neighbors = nbrs

    def _import_lines(self, c: ClassSpec) -> list[str]:
        own = list(self.p.package_imports[c.package])
        cross = sorted({self.by_index[j].qname for j in c.neighbors
                        if self.by_index[j].package != c.package})
        return [f"import {q};" for q in own + cross]

    def _callee(self, target: ClassSpec) -> str | None:
        options = [m for m in target.methods if self.fan_in.get(f"{target.index}.{m}", 0) < FAN_IN_CAP]
        if not options:
            return None
        m = self.rng.choice(options)
        key = f"{target.index}.{m}"
        self.fan_in[key] = self.fan_in.get(key, 0) + 1
        return m

    def _use_lines(self, c: ClassSpec, k: int, q: int, j: int, n_fields: int) -> list[tuple[int, str, str]]:
        """Statements inside method k that depend on neighbor j."""
        t = self.by_index[j]
        s = f"s{c.index}_{k}"
        v = f"v{c.index}_{k}_{q}"
        out = [(2, f"{t.name} {v} = new {t.name}();", "code")]
        if t.kind == "data":
            for f in self.text.sample(t.data_fields, n_fields):
                out.append((2, f"{s} += {v}.{f} + {k};", "code"))
            return out
        callee = self._callee(t)
        if callee is not None:
            out.append((2, f"{s} += {v}.{callee}({s});", "code"))
        if self.rng.random() < 0.5:
            o = f"o{c.index}_{k}_{q}"
            out.append((2, f"Object {o} = {v};", "code"))
            out.append((2, f"if ({o} instanceof {t.name}) {{ {s} += (({t.name}) {o}).hashCode() % 7; }}", "code"))
        return out

    def build(self, c: ClassSpec) -> JavaFile:
        if c.kind == "helper":
            return _helper_file(c.package, c.name, "ha" if c.name.endswith("A") else "hb")
        rng = self.rng
        head: list[tuple[int, str, str]] = [
            (0, f"package {c.package};", "code"), (0, "", "blank")]
        imports = [] if c.kind == "data" else self._import_lines(c)
        head += [(0, line, "code") for line in imports]
        head += [(0, "", "blank"),
                 (0, f"/** {c.name}: generated {c.kind} class for the pipeline benchmark. */", "comment"),
                 (0, f"public class {c.name} {{", "code")]
        body: list[tuple[int, str, str]] = []
        if c.kind == "data":
            body += [(1, f"public int {f} = {n};", "code") for n, f in enumerate(c.data_fields)]
            return JavaFile(tuple(head + body + [(0, "}", "code")]))

        n_own = 10 if c.kind == "god" else rng.randint(3, 5)
        own = [f"f{c.index}_{k}" for k in range(n_own)]
        body += [(1, f"private int {f} = {self.text.randint(1, 9)};", "code") for f in own]
        plain = [j for j in c.neighbors if self.by_index[j].kind != "data"]
        datas = [j for j in c.neighbors if self.by_index[j].kind == "data"]
        if plain:
            t = self.by_index[plain[0]]
            body.append((1, f"private {t.name} link{c.index} = new {t.name}();", "code"))
        methods: list[list[tuple[int, str, str]]] = []
        for k in range(len(c.methods)):
            lines = _body_lines(c, k, own, self.text.randint(10, 500))
            if c.kind == "god":
                # cyclomatic complexity 5 and one private field per method (TCC 0)
                s, f = f"s{c.index}_{k}", own[k]
                lines = [lines[0],
                         (2, f"int {s} = {f};", "code"),
                         (2, f"for (int i{c.index}_{k} = 0; i{c.index}_{k} < {s}; i{c.index}_{k}++) {{ {f} += i{c.index}_{k}; }}", "code"),
                         (2, f"if ({s} > {k + 3}) {{ {f} = {f} - 1; }}", "code"),
                         (2, f"if ({s} < {k + 90}) {{ {f} = {f} + 2; }}", "code"),
                         (2, f"if ({f} == {k + 40}) {{ {s} = {s} * 3; }}", "code"),
                         (2, f"{s} = {s} + {k + 1};", "code")]
            methods.append(lines)
        # every neighbor is used in some method (round robin); a method reads at
        # most three foreign fields, so Feature Envy (more than 5) never fires by accident
        order = plain + datas
        for q, j in enumerate(order):
            k = q % len(methods)
            if self.by_index[j].kind == "data":
                n_fields = {"god": 3, "envy": 0}.get(c.kind, 1)
                if n_fields == 0:
                    continue  # the envy method below reads them
            else:
                n_fields = 0
            methods[k] += self._use_lines(c, k, q, j, n_fields)
        for k, m in enumerate(methods):
            m.append((2, f"return s{c.index}_{k}; }}", "code"))
        if c.kind == "envy":
            methods.append(self._envy_method(c, datas))
        if c.kind == "brain":
            methods.append(self._brain_method(c))
        for m in methods:
            body += m
        lines = head + body + [(0, "}", "code")]
        # keep shareable lines (package, imports, closing brace) under a quarter
        # of the file so no two unplanted classes can look like a merge
        shareable = 2 + len(imports)
        extra = 0
        while sum(1 for e in lines if e[2] == "code") < 4 * shareable + 4:
            k = len(c.methods) + 100 + extra
            filler = _body_lines(c, k, own, self.text.randint(10, 500))
            filler.append((2, f"return s{c.index}_{k}; }}", "code"))
            lines = lines[:-1] + filler + [lines[-1]]
            extra += 1
        return JavaFile(tuple(lines))

    def _envy_method(self, c: ClassSpec, datas: list[int]) -> list[tuple[int, str, str]]:
        s = f"e{c.index}"
        out = [(1, f"public int envy{c.index}() {{", "code"), (2, f"int {s} = 0;", "code")]
        reads = 0
        for q, j in enumerate(datas):
            t = self.by_index[j]
            v = f"d{c.index}_{q}"
            out.append((2, f"{t.name} {v} = new {t.name}();", "code"))
            for f in t.data_fields[:4]:
                out.append((2, f"{s} += {v}.{f};", "code"))
                reads += 1
        assert reads >= 6, "envy class needs two data-class neighbors"
        out.append((2, f"return {s}; }}", "code"))
        return out

    def _brain_method(self, c: ClassSpec) -> list[tuple[int, str, str]]:
        ci = c.index
        vs = [f"b{ci}_{k}" for k in range(10)]
        out = [(1, f"public int brain{ci}(int {vs[0]}) {{", "code")]
        out += [(2, f"int {v} = {vs[0]} + {k};", "code") for k, v in enumerate(vs[1:], start=1)]
        out.append((2, f"if ({vs[1]} > 1) {{ if ({vs[2]} > 2) {{ if ({vs[3]} > 3) {{ if ({vs[4]} > 4) {{ "
                       f"if ({vs[5]} > 5) {{ {vs[6]} = {vs[6]} + 1; }} }} }} }} }}", "code"))
        for k in range(60):
            a, b = vs[k % 10], vs[(k * 3 + 1) % 10]
            if k % 3 == 0:
                out.append((2, f"if ({a} > {b} + {k}) {{ {a} = {a} - {k + 1}; }}", "code"))
            else:
                out.append((2, f"{a} = {a} + {b} * {k + 2};", "code"))
        out.append((2, f"return {' + '.join(vs)}; }}", "code"))
        return out


def build_project(rng: random.Random, text: random.Random, name: str, n_classes: int,
                  n_packages: int = 10) -> Project:
    """``rng`` draws the structure, ``text`` the names and literals."""
    project = _plan_project(rng, text, name, n_classes, n_packages)
    builder = _Builder(rng, text, project)
    builder.plan()
    for c in project.classes:
        project.files[c.path] = builder.build(c)
    return project


# -- history ----------------------------------------------------------------------


@dataclass
class Lineage:
    cls: ClassSpec
    path: str
    status: str = "tracked"
    chf: int = 0
    chs: int = 0


@dataclass
class Commit:
    """One commit for git fast-import; ``merge`` marks a --no-ff merge."""

    branch: str
    timestamp: int
    message: str
    changes: dict[str, JavaFile | None]  # path -> new file, or None for delete
    merge_from: int | None = None  # index of the side commit merged
    parent: int | None = None  # index of the first parent; None for the root commit


class History:
    """Builds the commit list and the lineage truth side by side."""

    def __init__(self, rng: random.Random, text: random.Random, project: Project):
        self.rng = rng
        self.text = text
        self.project = project
        self.state: dict[str, JavaFile] = dict(project.files)
        self.commits: list[Commit] = [Commit("main", T0, "snapshot", dict(project.files))]
        self.main_tip = 0
        self.lineages = {c.index: Lineage(c, c.path) for c in project.classes}
        self.uid = _Uid()
        self.frozen: set[int] = {0, 1}  # helpers are edited only by the planted commit

    # -- edits on file content -------------------------------------------------

    def _edited(self, f: JavaFile, tag: str) -> JavaFile:
        """One content edit: insert, retune, or drop an inserted line."""
        entries = list(f.entries)
        rng = self.rng
        inserted = [i for i, e in enumerate(entries) if e[2] == "code" and e[1].startswith(f"int x{tag}_")]
        tunable = [i for i, e in enumerate(entries)
                   if e[2] == "code" and e[0] == 2 and " = s" in e[1] and e[1].startswith("s")
                   and e[1].count("+") == 1 and e[1].endswith(";") and "." not in e[1]]
        returns = [i for i, e in enumerate(entries) if e[2] == "code" and e[1].startswith("return ")
                   and e[0] == 2]
        choice = rng.random()
        if inserted and choice < 0.2:
            del entries[rng.choice(inserted)]
        elif tunable and choice < 0.6:
            i = rng.choice(tunable)
            ind, text, kind = entries[i]
            head, _, _ = text.rpartition("+ ")
            entries[i] = (ind, f"{head}+ {1000 + self.uid()};", kind)
        elif returns:
            i = rng.choice(returns)
            entries.insert(i, (2, f"int x{tag}_{self.uid()} = {self.text.randint(2, 99)} * 3;", "code"))
        else:  # data class: add a field
            entries.insert(len(entries) - 1, (1, f"public int x{tag}_{self.uid()} = 1;", "code"))
        return JavaFile(tuple(entries))

    def _reformatted(self, f: JavaFile) -> JavaFile:
        entries = list(f.entries)
        code = [i for i, e in enumerate(entries) if e[2] == "code" and e[0] > 0]
        for i in self.rng.sample(code, min(3, len(code))):
            ind, text, kind = entries[i]
            entries[i] = (ind + 1 if ind < 3 else ind - 1, text, kind)
        entries.insert(len(entries) - 1, (0, "", "blank"))
        return JavaFile(tuple(entries))

    def _commented(self, f: JavaFile) -> JavaFile:
        entries = list(f.entries)
        at = self.rng.randrange(1, len(entries))
        entries.insert(at, (1, f"// reviewed, note {self.uid()}", "comment"))
        return JavaFile(tuple(entries))

    # -- commits ------------------------------------------------------------------

    def editable(self, exclude_packages: tuple[str, ...] = ()) -> list[Lineage]:
        return [lin for idx, lin in sorted(self.lineages.items())
                if lin.status == "tracked" and idx not in self.frozen
                and lin.cls.package not in exclude_packages]

    def _commit(self, changes: dict[str, JavaFile | None], message: str, ts: int,
                renames: dict[int, str] | None = None, statuses: dict[int, str] | None = None,
                merge_from: int | None = None) -> None:
        """Record a first-parent commit and add its churn to the truth."""
        before = self.state
        after = dict(before)
        for path, f in changes.items():
            if f is None:
                after.pop(path, None)
            else:
                after[path] = f
        in_window = T0 < ts <= T0 + WINDOW_DAYS * DAY
        renames = renames or {}
        statuses = statuses or {}
        for idx, lin in self.lineages.items():
            if lin.status != "tracked":
                continue
            new_path = renames.get(idx, lin.path)
            if idx in statuses:
                lin.status = statuses[idx]
                continue
            if new_path not in after:
                raise AssertionError(f"lineage {lin.cls.qname} lost without a status")
            old = before[lin.path].code()
            new = after[new_path].code()
            lin.path = new_path
            if old == new:
                continue
            added = len(set(new) - set(old))
            deleted = len(set(old) - set(new))
            if added + deleted and in_window:
                lin.chf += 1
                lin.chs += added + deleted
        self.state = after
        self.commits.append(Commit("main", ts, message, changes, merge_from=merge_from,
                                   parent=self.main_tip))
        self.main_tip = len(self.commits) - 1

    def edit_commit(self, ts: int) -> None:
        """Six content edits, plus a comment-only change to a seventh file."""
        pool = self.editable()
        chosen = self.rng.sample(pool, 6)
        changes = {lin.path: self._edited(self.state[lin.path], str(lin.cls.index)) for lin in chosen}
        # an unrelated comment in one more file rides along, as in real commits
        other = [lin for lin in pool if lin.path not in changes]
        if other:
            lin = self.rng.choice(other)
            changes[lin.path] = self._commented(self.state[lin.path])
        self._commit(changes, f"edit {len(chosen)} files", ts)

    def planted_merge_commit(self, ts: int) -> None:
        """Edit both helpers together, plus files from other packages."""
        helpers = [self.lineages[0], self.lineages[1]]
        changes = {}
        for lin in helpers:
            f = self.state[lin.path]
            tag = "ha" if lin.cls.name.endswith("A") else "hb"
            entries = [(i, t.replace(f"{tag}Slot2 = 3;", f"{tag}Slot2 = 4;"), k) for i, t, k in f.entries]
            changes[lin.path] = JavaFile(tuple(entries))
        pool = self.editable(exclude_packages=(self.project.packages[0],))
        for lin in self.rng.sample(pool, 4):
            changes[lin.path] = self._edited(self.state[lin.path], str(lin.cls.index))
        self._commit(changes, "tune helper defaults", ts)

    def format_commit(self, ts: int, comments: bool) -> None:
        chosen = self.rng.sample(self.editable(), 6)
        changes = {lin.path: (self._commented if comments else self._reformatted)(self.state[lin.path])
                   for lin in chosen}
        self._commit(changes, "comments" if comments else "reformat", ts)

    def rename_commit(self, ts: int, move: bool) -> None:
        lin = self.rng.choice([l for l in self.editable((self.project.packages[0],))
                               if l.cls.kind == "normal"])
        f = self.state[lin.path]
        old_dir, _, fname = lin.path.rpartition("/")
        name = fname[:-5]
        if move:
            pkgs = [p for p in self.project.packages[1:] if p != lin.cls.package]
            pkg = self.rng.choice(pkgs)
            entries = [(i, f"package {pkg};" if t.startswith("package ") else t, k) for i, t, k in f.entries]
            new_path = "src/" + pkg.replace(".", "/") + f"/{name}.java"
        else:
            new_name = f"{name}Renamed"
            entries = [(i, t.replace(f"public class {name} {{", f"public class {new_name} {{"), k)
                       for i, t, k in f.entries]
            new_path = f"{old_dir}/{new_name}.java"
        self._commit({lin.path: None, new_path: JavaFile(tuple(entries))},
                     "move class" if move else "rename class", ts, renames={lin.cls.index: new_path})
        self.frozen.add(lin.cls.index)  # keep refactored classes out of later edit draws

    def split_commit(self, ts: int) -> None:
        lin = self.rng.choice([l for l in self.editable((self.project.packages[0],))
                               if l.cls.kind == "normal" and len(l.cls.methods) >= 5])
        f = self.state[lin.path]
        entries = list(f.entries)
        starts = [i for i, e in enumerate(entries) if e[0] == 1 and e[1].startswith("public int m")]
        cut = starts[len(starts) // 2]
        moved = entries[cut:-1]
        kept = entries[:cut] + [entries[-1]]
        name = lin.path.rpartition("/")[2][:-5]
        head_end = next(i for i, e in enumerate(entries) if e[1].startswith("public class "))
        part = entries[:head_end] + [(0, f"public class {name}Part {{", "code")] + moved + [(0, "}", "code")]
        part_path = lin.path[:-5] + "Part.java"
        self._commit({lin.path: JavaFile(tuple(kept)), part_path: JavaFile(tuple(part))},
                     "split class", ts, statuses={lin.cls.index: "excluded_split"})

    def merge_classes_commit(self, ts: int) -> None:
        by_pkg: dict[str, list[Lineage]] = {}
        for l in self.editable((self.project.packages[0],)):
            if l.cls.kind == "normal":
                by_pkg.setdefault(l.cls.package, []).append(l)
        pkg = self.rng.choice(sorted(p for p, ls in by_pkg.items() if len(ls) >= 2))
        a, b = self.rng.sample(by_pkg[pkg], 2)
        fa, fb = list(self.state[a.path].entries), list(self.state[b.path].entries)
        a_imports = {e[1] for e in fa if e[1].startswith("import ")}
        b_head_end = next(i for i, e in enumerate(fb) if e[1].startswith("public class "))
        new_imports = [e for e in fb[:b_head_end] if e[1].startswith("import ") and e[1] not in a_imports]
        a_head_end = next(i for i, e in enumerate(fa) if e[1].startswith("public class "))
        last_import = max(i for i, e in enumerate(fa[:a_head_end]) if e[1].startswith(("import ", "package ")))
        merged = fa[:last_import + 1] + new_imports + fa[last_import + 1:-1] + fb[b_head_end + 1:]
        self._commit({a.path: JavaFile(tuple(merged)), b.path: None}, "merge classes", ts,
                     statuses={a.cls.index: "excluded_merge", b.cls.index: "excluded_merge"})

    def delete_commit(self, ts: int) -> None:
        lin = self.rng.choice(self.editable((self.project.packages[0],)))
        self._commit({lin.path: None}, "delete class", ts, statuses={lin.cls.index: "deleted"})

    def branch_merge(self, ts: int) -> None:
        """Two side-branch commits of three edits each, merged with --no-ff."""
        base = self.main_tip
        side_state = dict(self.state)
        chosen = self.rng.sample(self.editable(), 5)
        touched: dict[str, JavaFile] = {}
        prev = base
        for step, group in enumerate((chosen[:3], chosen[2:])):
            changes = {}
            for lin in group:
                changes[lin.path] = self._edited(side_state[lin.path], str(lin.cls.index))
            side_state.update(changes)
            touched.update(changes)
            self.commits.append(Commit("side", ts - 3600 * (2 - step), "side work", changes, parent=prev))
            prev = len(self.commits) - 1
        self._commit(touched, "merge branch 'side'", ts, merge_from=prev)

    # -- output -------------------------------------------------------------------

    def fast_import_stream(self) -> bytes:
        out: list[bytes] = []
        for n, c in enumerate(self.commits, start=1):
            msg = c.message.encode()
            out.append(f"commit refs/heads/{c.branch}\nmark :{n}\n"
                       f"committer {COMMITTER} {c.timestamp} +0000\n".encode())
            out.append(b"data %d\n%s\n" % (len(msg), msg))
            if c.parent is not None:
                out.append(f"from :{c.parent + 1}\n".encode())
            if c.merge_from is not None:
                out.append(f"merge :{c.merge_from + 1}\n".encode())
            for path in sorted(c.changes):
                f = c.changes[path]
                if f is None:
                    out.append(f"D {path}\n".encode())
                else:
                    data = f.render().encode()
                    out.append(f"M 100644 inline {path}\n".encode())
                    out.append(b"data %d\n%s\n" % (len(data), data))
        return b"".join(out)

    def ledger_rows(self) -> list[list]:
        smelly = self.project.smelly()
        rows = []
        for idx, lin in sorted(self.lineages.items()):
            c = lin.cls
            rows.append([
                f"bench/{self.project.name}", c.qname, c.kind, lin.status, lin.chf, lin.chs,
                len(set(c.neighbors)), "true" if c.kind in SMELLY_KINDS else "false",
                "true" if any(j in smelly for j in c.neighbors) else "false",
            ])
        return rows


def write_repo(history: History, repo: Path) -> str:
    """Create the git repository; returns the snapshot commit id."""
    repo.mkdir(parents=True, exist_ok=True)
    env_args = ["-c", "init.defaultBranch=main", "-c", "core.autocrlf=false"]
    subprocess.run(["git", *env_args, "init", "-q", str(repo)], check=True)
    marks = repo / ".git" / "bench-marks"
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet", f"--export-marks={marks}"],
                   input=history.fast_import_stream(), check=True)
    snapshot = next(line.split()[1] for line in marks.read_text().splitlines() if line.startswith(":1 "))
    return snapshot


def write_ledger(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LEDGER_HEADER)
        w.writerows(rows)
