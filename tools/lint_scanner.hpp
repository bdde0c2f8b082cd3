// newtop_lint: the scanning engine behind the determinism & layering lint.
//
// A deliberately small, libclang-free analyzer: a comment- and string-aware
// tokenizer plus a handful of token-pattern rules driven by the tables in
// lint_rules.hpp.  It trades type-level precision for zero dependencies and
// sub-second whole-tree runs, which is what lets it sit in tier-1 ctest and
// every check.sh invocation.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace newtop::lint {

struct Finding {
    std::string file;  // repo-relative path, '/'-separated
    int line = 0;      // 1-based
    std::string rule;  // rule id from lint_rules.hpp
    std::string message;

    friend bool operator==(const Finding&, const Finding&) = default;
};

/// Render as "file:line: rule: message" (the clickable compiler format).
std::string to_string(const Finding& f);

/// Scan one translation unit's text.  `rel_path` decides which rules are in
/// scope (layer membership, sanctioned directories); it must be repo-relative
/// with '/' separators.  Findings come back sorted by (line, rule).
std::vector<Finding> scan_source(std::string_view rel_path, std::string_view content);

/// Scan every .hpp/.cpp under the standard roots (lint_rules.hpp:kScanRoots)
/// of `repo_root`, excluding kExcludedDirs.  File order — and therefore
/// finding order — is sorted, so output is stable across filesystems.
std::vector<Finding> scan_tree(const std::filesystem::path& repo_root);

/// Whole-tree scan result: every rule's findings, plus a census of every
/// well-formed allow(rule) suppression comment in scanned files.  The
/// census backs the tracked baseline (tools/lint_suppressions.baseline):
/// CI fails when a rule's suppression count grows without the baseline
/// being regenerated in the same diff.
struct TreeReport {
    std::vector<Finding> findings;               // sorted by (file, line, rule)
    std::map<std::string, int> suppressions;     // rule id -> active suppression count
};

TreeReport scan_tree_report(const std::filesystem::path& repo_root);

/// Self-check: the declared layer dependency table must be a DAG and every
/// named dependency must itself be a declared layer.
bool layer_table_is_valid(std::string* error = nullptr);

}  // namespace newtop::lint
