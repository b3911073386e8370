// Findings baseline for fwlint.
//
// A baseline is a committed snapshot of accepted findings
// (tools/fwlint/baseline.json). In --baseline mode fwlint diffs the current
// run against it and fails only on *new* findings, so the gate can ship
// while known debt is paid down incrementally — and shrinking is free:
// entries whose findings disappeared are reported as fixed, never required.
//
// Matching is deliberately line-insensitive: the key is (file, check,
// message) with multiset counts, and line numbers the message cites are
// masked ("line N"). Unrelated edits move findings around a file without
// invalidating the baseline; only genuinely new instances (more occurrences
// of a key than the baseline carries) trip the gate.
//
// The file format is a strict, tiny JSON subset — exactly what
// SerializeBaseline() emits — parsed by hand so the tool stays free of
// third-party dependencies. ParseBaseline() accepts arbitrary whitespace but
// nothing fancier; a malformed file is a hard error (exit 2), never silently
// treated as empty.
#ifndef FIREWORKS_TOOLS_FWLINT_BASELINE_H_
#define FIREWORKS_TOOLS_FWLINT_BASELINE_H_

#include <string>
#include <vector>

#include "tools/fwlint/fwlint.h"

namespace fwlint {

// One accepted (file, check, message) key with its instance count.
struct BaselineEntry {
  std::string file;
  std::string check;
  std::string message;
  int count = 0;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

// Parses baseline JSON. Returns false (with a human-readable *error) on
// malformed input; an empty findings array is valid.
bool ParseBaseline(const std::string& text, Baseline* out, std::string* error);

// Serialises diagnostics into baseline JSON: one entry per distinct
// (file, check, message) key with its count, sorted, one entry per line —
// stable output, reviewable diffs.
std::string SerializeBaseline(const std::vector<Diagnostic>& diags);

// The result of diffing a run against a baseline.
struct BaselineDiff {
  // Findings not covered by the baseline (the gate fails iff non-empty).
  // When a key has more instances than the baseline allows, the *last*
  // instances in (file, line) order are the fresh ones.
  std::vector<Diagnostic> fresh;
  // Baseline entries (or partial counts) with no matching finding anymore:
  // debt that has been paid and should be dropped by regenerating.
  std::vector<BaselineEntry> fixed;
};

BaselineDiff DiffAgainstBaseline(const std::vector<Diagnostic>& diags, const Baseline& base);

// Human-readable suppression-debt report: baselined finding totals per
// check, fixed-but-still-baselined entries, and every fwlint:allow site with
// its staleness verdict.
std::string DebtReport(const std::vector<SuppressionSite>& sites, const Baseline& base,
                       const BaselineDiff& diff);

}  // namespace fwlint

#endif  // FIREWORKS_TOOLS_FWLINT_BASELINE_H_
