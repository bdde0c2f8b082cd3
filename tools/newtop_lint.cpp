// newtop_lint CLI: determinism, layering & hot-path allocation lint over the tree.
//
// Usage:
//     newtop_lint [--root <repo-root>] [--list-rules]
//                 [--json] [-o <file>]
//                 [--baseline <file>] [--write-baseline <file>]
//
// Exit status 0 when the tree is clean, 1 when there are findings (or the
// suppression census exceeds the baseline), 2 on usage errors.  Findings
// print in compiler format (file:line: rule: msg) so editors and CI
// annotate them directly.
//
// --json emits a machine-readable report {findings, suppressions, clean}.
// With -o the JSON goes to the file and the human-readable findings still
// print to stdout (the check.sh/CI mode: artifact + annotations from one
// run).  Without -o, the JSON replaces the human output on stdout.
//
// --baseline compares the per-rule suppression counts against a tracked
// census file (`<rule> <count>` lines); a rule with *more* suppressions
// than the baseline fails the run, so new suppressions must be justified
// by regenerating the baseline (--write-baseline) in the same diff.
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "tools/lint_rules.hpp"
#include "tools/lint_scanner.hpp"

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string to_json(const newtop::lint::TreeReport& report) {
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    bool first = true;
    for (const auto& f : report.findings) {
        os << (first ? "" : ",") << "\n    {\"file\": \"" << json_escape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \"" << json_escape(f.rule)
           << "\", \"message\": \"" << json_escape(f.message) << "\"}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n  \"suppressions\": {";
    first = true;
    for (const auto& [rule, count] : report.suppressions) {
        os << (first ? "" : ",") << "\n    \"" << json_escape(rule) << "\": " << count;
        first = false;
    }
    os << "\n  },\n  \"clean\": " << (report.findings.empty() ? "true" : "false") << "\n}\n";
    return os.str();
}

/// Baseline format: one `<rule> <count>` per line; '#' comments allowed.
std::map<std::string, int> read_baseline(const std::string& path, bool& ok) {
    std::map<std::string, int> out;
    std::ifstream in(path);
    ok = in.good();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string rule;
        int count = 0;
        if (ls >> rule >> count) out[rule] = count;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::string out_path;
    std::string baseline_path;
    std::string write_baseline_path;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--write-baseline" && i + 1 < argc) {
            write_baseline_path = argv[++i];
        } else if (arg == "--list-rules") {
            for (const auto rule : newtop::lint::kAllRules) std::cout << rule << '\n';
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: newtop_lint [--root <repo-root>] [--list-rules] [--json]\n"
                         "                   [-o <file>] [--baseline <file>]\n"
                         "                   [--write-baseline <file>]\n"
                         "Scans src/, tests/, tools/, bench/ and examples/ for determinism,\n"
                         "layering and hot-path allocation violations (rules:\n"
                         "tools/lint_rules.hpp).\n"
                         "Suppress with: // newtop-lint: allow(<rule>): <reason>\n";
            return 0;
        } else {
            std::cerr << "newtop_lint: unknown argument '" << arg << "' (try --help)\n";
            return 2;
        }
    }

    const newtop::lint::TreeReport report = newtop::lint::scan_tree_report(root);

    if (json && out_path.empty()) {
        std::cout << to_json(report);
    } else {
        if (json) {
            std::ofstream out(out_path);
            if (!out) {
                std::cerr << "newtop_lint: cannot write '" << out_path << "'\n";
                return 2;
            }
            out << to_json(report);
        }
        for (const auto& f : report.findings) std::cout << newtop::lint::to_string(f) << '\n';
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        if (!out) {
            std::cerr << "newtop_lint: cannot write '" << write_baseline_path << "'\n";
            return 2;
        }
        out << "# Per-rule count of active `newtop-lint: allow(...)` suppressions.\n"
               "# Regenerate with: newtop_lint --root . --write-baseline "
               "tools/lint_suppressions.baseline\n"
               "# CI fails when a rule's live count exceeds its entry here, so growing\n"
               "# the suppression set requires updating this file in the same change.\n";
        for (const auto& [rule, count] : report.suppressions) {
            out << rule << ' ' << count << '\n';
        }
    }

    bool over_baseline = false;
    if (!baseline_path.empty()) {
        bool ok = false;
        const std::map<std::string, int> baseline = read_baseline(baseline_path, ok);
        if (!ok) {
            std::cerr << "newtop_lint: cannot read baseline '" << baseline_path << "'\n";
            return 2;
        }
        for (const auto& [rule, count] : report.suppressions) {
            const auto it = baseline.find(rule);
            const int allowed = it == baseline.end() ? 0 : it->second;
            if (count > allowed) {
                std::cerr << "newtop_lint: suppression count for '" << rule << "' grew to "
                          << count << " (baseline " << allowed
                          << "); justify it and regenerate with --write-baseline\n";
                over_baseline = true;
            }
        }
    }

    if (report.findings.empty() && !over_baseline) {
        std::cerr << "newtop_lint: clean\n";
        return 0;
    }
    if (!report.findings.empty()) {
        std::cerr << "newtop_lint: " << report.findings.size() << " finding"
                  << (report.findings.size() == 1 ? "" : "s") << '\n';
    }
    return 1;
}
