"""File walking, rule execution, pragma application and baseline filtering.

The engine is deliberately dumb: parse each file once, hand the
:class:`SourceFile` to every registered rule, then post-process the raw
findings (occurrence numbering for stable fingerprints, pragma suppression,
baseline grandfathering, pragma hygiene findings).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis import pragmas as pragmas_mod
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Report, assign_occurrences
from repro.analysis.registry import Rule, all_rules, known_suppression_targets


@dataclass
class SourceFile:
    """One parsed python file, as rules see it."""

    path: Path                 # absolute
    rel: str                   # posix path reported in findings
    module: str                # dotted module path ("repro.core.phase")
    text: str
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.Module] = None
    parse_error: Optional[SyntaxError] = None

    @property
    def package(self) -> str:
        """First package component under ``repro`` ("core", "mpc", ...)."""
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return parts[0]

    def in_packages(self, *packages: str) -> bool:
        return self.package in packages

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Convenience for rules: a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule_id, path=self.rel, line=lineno, col=col,
                       message=message, context=self.line_text(lineno))

    def numpy_names(self) -> Set[str]:
        """Names the module's imports bind to the ``numpy`` package.

        ``import numpy`` binds ``numpy``, ``import numpy as _np`` binds
        ``_np``, and ``import numpy.random`` binds the top-level package
        name -- at any nesting level, so a function-local import counts.
        """
        names: Set[str] = set()
        if self.tree is None:
            return names
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("numpy", "numpy.random"):
                        names.add(alias.asname or "numpy")
        return names


def module_name_for(path: Path) -> str:
    """Dotted module path, anchored at the last ``repro`` path component."""
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def load_source_file(path: Path, root: Optional[Path] = None) -> SourceFile:
    path = Path(path).resolve()
    try:
        rel = str(path.relative_to(root)) if root else str(path)
    except ValueError:
        rel = str(path)
    rel = rel.replace("\\", "/")
    text = path.read_text(encoding="utf-8")
    source = SourceFile(path=path, rel=rel, module=module_name_for(path),
                        text=text, lines=text.splitlines())
    try:
        source.tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        source.parse_error = exc
    return source


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            candidates = [entry]
        else:
            raise ValueError(f"not a python file or directory: {entry}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def analyze_source(source: SourceFile,
                   rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Raw rule findings for one file (no pragma/baseline processing)."""
    if source.parse_error is not None:
        exc = source.parse_error
        return [Finding(rule="parse-error", path=source.rel,
                        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                        message=f"file does not parse: {exc.msg}",
                        context=source.line_text(exc.lineno or 1))]
    found: List[Finding] = []
    for entry in (rules if rules is not None else all_rules()):
        found.extend(entry.check(source))
    return found


def _apply_pragmas(source: SourceFile, findings: List[Finding],
                   families: Dict[str, str]) -> List[Finding]:
    """Suppress pragma-covered findings; emit pragma hygiene findings."""
    pragma_map = pragmas_mod.parse_pragmas(source.lines)
    out: List[Finding] = []
    for finding in findings:
        pragma = pragma_map.get(finding.line)
        if (pragma is not None and pragma.valid
                and pragma.covers(finding.rule,
                                  families.get(finding.rule, ""))):
            pragma.used = True
            finding = replace(finding, suppressed=True)
        out.append(finding)
    known = set(known_suppression_targets())
    for pragma in pragma_map.values():
        if not pragma.valid:
            out.append(Finding(
                rule=pragmas_mod.MISSING_JUSTIFICATION, path=source.rel,
                line=pragma.line, col=0,
                message="pragma needs a justification: "
                        "# repro: allow[<rule>] -- <why this is sound>",
                context=source.line_text(pragma.line)))
        elif not pragma.used:
            unknown = [r for r in pragma.rules if r not in known]
            detail = (f" (unknown rule(s): {', '.join(unknown)})"
                      if unknown else "")
            out.append(Finding(
                rule=pragmas_mod.UNUSED, path=source.rel, line=pragma.line,
                col=0,
                message=f"pragma suppresses nothing{detail}; remove it",
                context=source.line_text(pragma.line)))
    return out


def analyze_paths(paths: Sequence, baseline: Optional[Baseline] = None,
                  rules: Optional[Sequence[Rule]] = None,
                  root: Optional[Path] = None) -> Report:
    """Run every rule over ``paths`` and return the processed report."""
    active = list(rules) if rules is not None else all_rules()
    families = {r.id: r.family for r in active}
    report = Report()
    all_findings: List[Finding] = []
    for path in iter_python_files(paths):
        source = load_source_file(path, root=root)
        report.files_scanned += 1
        report.paths_scanned.append(source.rel)
        file_findings = analyze_source(source, rules=active)
        all_findings.extend(_apply_pragmas(source, file_findings, families))
    processed = assign_occurrences(all_findings)
    if baseline is not None:
        processed = [
            f if f.suppressed or not baseline.covers(f)
            else replace(f, baselined=True)
            for f in processed]
    report.findings = processed
    return report


def find_repo_root(start: Optional[Path] = None) -> Path:
    """The directory holding ``src/repro`` (falls back to the cwd)."""
    candidates = []
    if start is not None:
        candidates.extend([Path(start)] + list(Path(start).resolve().parents))
    here = Path(__file__).resolve()
    # src/repro/analysis/engine.py -> parents[3] is the repo root
    candidates.append(here.parents[3])
    candidates.append(Path.cwd())
    candidates.extend(Path.cwd().parents)
    for candidate in candidates:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path.cwd()
